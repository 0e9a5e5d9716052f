"""serlab: verification of joint certain-value inference on three-qubit entangled states.

The library checks, both analytically and by seeded Monte Carlo measurement
simulation, the quantitative content of two kinds of arguments built on
entangled states of three spin-1/2 particles:

* incompleteness arguments, where values of observables without any common
  eigenstate are jointly predicted with certainty from measurements on
  disjoint particles; and
* contradiction arguments without inequalities, where the jointly inferred
  values can never appear in a direct joint measurement, in any state.
"""

from .hilbert import (
    EIGENVALUE_TOL,
    EXACT_ENTRY_TOL,
    OPERATOR_TOL,
    SCALAR_TOL,
    Observable,
    SpectralDecomposition,
    StateVector,
    acts_only_on,
    basis_index,
    basis_state,
    common_eigenstate_dim,
    has_common_eigenstate,
    tensor,
)
from .inference import (
    CERTAINTY_TOL,
    SCENARIOS,
    Certification,
    Check,
    FrequencyEntry,
    SamplingStats,
    ScenarioReport,
    SerClaim,
    certify_ser,
    hardy_null_outcome_scan,
    run_scenario,
    sample_scenario,
)
from .measurement import (
    RNG_ALGORITHM,
    IncompatibleObservablesError,
    MeasurementRecord,
    OutcomeAssignment,
    ZeroProbabilityError,
    collapse,
    commutes,
    conditional_probability,
    outcome_probability,
    sample_counts,
    sample_joint,
)
from .spin import Axis, embed, hardy_projector, mermin_A, mermin_B, pauli, spin, spin_product
from .states import PsiParams, ghz_mermin_state, hardy_state, psi_state, random_psi_params

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "CERTAINTY_TOL",
    "Certification",
    "Check",
    "EIGENVALUE_TOL",
    "EXACT_ENTRY_TOL",
    "FrequencyEntry",
    "IncompatibleObservablesError",
    "MeasurementRecord",
    "Observable",
    "OPERATOR_TOL",
    "OutcomeAssignment",
    "PsiParams",
    "RNG_ALGORITHM",
    "SCALAR_TOL",
    "SCENARIOS",
    "SamplingStats",
    "ScenarioReport",
    "SerClaim",
    "SpectralDecomposition",
    "StateVector",
    "ZeroProbabilityError",
    "acts_only_on",
    "basis_index",
    "basis_state",
    "certify_ser",
    "collapse",
    "common_eigenstate_dim",
    "commutes",
    "conditional_probability",
    "embed",
    "ghz_mermin_state",
    "hardy_null_outcome_scan",
    "hardy_projector",
    "hardy_state",
    "has_common_eigenstate",
    "mermin_A",
    "mermin_B",
    "outcome_probability",
    "pauli",
    "psi_state",
    "random_psi_params",
    "run_scenario",
    "sample_counts",
    "sample_joint",
    "sample_scenario",
    "spin",
    "spin_product",
    "tensor",
]
