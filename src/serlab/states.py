"""The named entangled states of three (and two) spin-1/2 particles."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .hilbert import SCALAR_TOL, StateVector, basis_index

__all__ = ["PsiParams", "psi_state", "hardy_state", "ghz_mermin_state", "random_psi_params"]


@dataclass(frozen=True)
class PsiParams:
    """Amplitude pair (a, b) subject to 3|a|^2 + |b|^2 = 1 with a*b != 0.

    Both amplitudes may be complex; every certainty and probability statement
    made about the resulting state depends only on |a| and |b|.  |a|^2 must
    exceed ``SCALAR_TOL``: the scenarios condition on sigma_z outcomes of
    probability 2|a|^2 and 3|a|^2, and an outcome at or below that tolerance
    counts as impossible.
    """

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ValueError("amplitudes must be finite")
        if abs(self.a) <= SCALAR_TOL or abs(self.b) <= SCALAR_TOL:
            raise ValueError("both amplitudes must be nonzero (a*b != 0)")
        if abs(self.a) ** 2 <= SCALAR_TOL:
            raise ValueError(f"|a|^2 must exceed the zero-probability tolerance {SCALAR_TOL:g}")
        residual = 3.0 * abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0
        if abs(residual) > SCALAR_TOL:
            raise ValueError(f"3|a|^2+|b|^2 must equal 1 (off by {residual:.3e})")


def psi_state(params: PsiParams) -> StateVector:
    """a(|+++> - |+-+> - |-++>) + b|--->, dimension 8."""
    amps = np.zeros(8, dtype=complex)
    amps[basis_index("+++")] = params.a
    amps[basis_index("+-+")] = -params.a
    amps[basis_index("-++")] = -params.a
    amps[basis_index("---")] = params.b
    return StateVector(amps, normalize=True)


def hardy_state() -> StateVector:
    """(|++> - |+-> - |-+>)/sqrt(3): zero amplitude on |-->, dimension 4."""
    amps = np.zeros(4, dtype=complex)
    amps[basis_index("++")] = 1.0
    amps[basis_index("+-")] = -1.0
    amps[basis_index("-+")] = -1.0
    return StateVector(amps / np.sqrt(3.0))


def ghz_mermin_state() -> StateVector:
    """(|+++> - |--->)/sqrt(2), dimension 8."""
    amps = np.zeros(8, dtype=complex)
    amps[basis_index("+++")] = 1.0
    amps[basis_index("---")] = -1.0
    return StateVector(amps / np.sqrt(2.0))


def random_psi_params(rng: np.random.Generator) -> PsiParams:
    """Draw admissible (a, b) with random phases, away from the a*b = 0 boundary.

    |a|^2 is uniform in (0.01, 0.32); |b|^2 = 1 - 3|a|^2 then stays in
    (0.04, 0.97); both phases are uniform in [0, 2*pi).
    """
    mod_a_sq = rng.uniform(0.01, 0.32)
    mod_b_sq = 1.0 - 3.0 * mod_a_sq
    phase_a, phase_b = rng.uniform(0.0, 2.0 * np.pi, size=2)
    a = np.sqrt(mod_a_sq) * np.exp(1j * phase_a)
    b = np.sqrt(mod_b_sq) * np.exp(1j * phase_b)
    return PsiParams(a, b)
