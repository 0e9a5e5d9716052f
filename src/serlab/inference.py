"""Certain-value inference and the four verification scenarios.

A *strong element of reality* (SER) claim asserts that the value of an
observable on one group of particles is predicted with certainty (conditional
probability 1) by the outcome of a measurement already performed on a disjoint
group.  :func:`certify_ser` mechanizes exactly three clauses:

1. certainty: the conditional probability of the predicted value equals 1;
2. no disturbance: the inferring and target particle groups are disjoint;
3. locality of the inference: every conditioning observable acts
   non-trivially only on the inferring group.

Spacelike separation is modeled as disjoint particle-index sets; no spacetime
geometry is represented.

The scenario runners assemble machine-checkable reports:

* ``epr-psi``    - joint SERs sigma_x(1) = -1, sigma_x(2) = -1, pi(1+2) = 1 on
  the psi family after post-selecting sigma_z = +1 on all three particles,
  plus the proof that the three target observables share no common eigenstate.
* ``epr-ghz``    - joint SERs A_j = eps_j on the GHZ-Mermin state for every
  sigma_y outcome branch, plus pairwise no-common-eigenstate checks.
* ``bell-hardy`` - joint SERs sigma_z(1) = -1, sigma_z(2) = -1, pi(1+2) = 1
  whose direct joint measurement is impossible in every state (the projector
  product is the zero operator).
* ``bell-ghz``   - joint SERs B_j = eps_j whose inferred product is -1 in
  every branch while B_1 B_2 B_3 is the identity, so direct measurement always
  yields product +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .hilbert import Observable, StateVector, acts_only_on, has_common_eigenstate
from .measurement import (
    RNG_ALGORITHM,
    IncompatibleObservablesError,
    OutcomeAssignment,
    ZeroProbabilityError,
    conditional_probability,
    outcome_probability,
    sample_counts,
)
from .spin import Axis, hardy_projector, mermin_A, mermin_B, spin, spin_product
from .states import PsiParams, ghz_mermin_state, hardy_state, psi_state

CERTAINTY_TOL = 1e-10
REGION_TOL = 1e-10
OPERATOR_ZERO_TOL = 1e-12
OPERATOR_IDENTITY_TOL = 1e-12
VALUE_MATCH_TOL = 1e-12
Z_SCORE_LIMIT = 4.0

SCENARIOS = ("epr-psi", "epr-ghz", "bell-hardy", "bell-ghz")

__all__ = [
    "CERTAINTY_TOL",
    "SCENARIOS",
    "SerClaim",
    "Certification",
    "Check",
    "FrequencyEntry",
    "SamplingStats",
    "ScenarioReport",
    "certify_ser",
    "run_epr_psi",
    "run_epr_ghz",
    "run_bell_hardy",
    "run_bell_ghz",
    "run_scenario",
    "sample_scenario",
    "hardy_null_outcome_scan",
]


@dataclass(frozen=True)
class SerClaim:
    """A predicted-with-certainty value for an observable on an undisturbed group."""

    observable: Observable
    predicted_value: float
    conditioning: OutcomeAssignment
    inferring_region: frozenset[int]
    target_region: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "inferring_region", frozenset(self.inferring_region))
        object.__setattr__(self, "target_region", frozenset(self.target_region))
        object.__setattr__(self, "predicted_value", float(self.predicted_value))

    def describe(self) -> str:
        label = self.observable.label or "observable"
        return f"{label}={self.predicted_value:+g} given {self.conditioning.describe()}"


@dataclass(frozen=True)
class Certification:
    """Verdict of :func:`certify_ser`; falsy when a named clause failed."""

    ok: bool
    failed_clause: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def certify_ser(state: StateVector, claim: SerClaim, tolerance: float = CERTAINTY_TOL) -> Certification:
    """Check the three SER clauses; failures are verdicts, never exceptions."""
    n = state.num_particles
    overlap = claim.inferring_region & claim.target_region
    if overlap:
        return Certification(
            False,
            "region-overlap",
            f"inferring region {sorted(claim.inferring_region)} intersects "
            f"target region {sorted(claim.target_region)}",
        )
    for obs, _ in claim.conditioning.pairs:
        if not acts_only_on(obs, claim.inferring_region, n, tol=REGION_TOL):
            return Certification(
                False,
                "conditioning-not-local",
                f"{obs.label or 'conditioning observable'} acts outside "
                f"the inferring region {sorted(claim.inferring_region)}",
            )
    try:
        p = conditional_probability(state, (claim.observable, claim.predicted_value), claim.conditioning)
    except ZeroProbabilityError:
        return Certification(False, "condition-unpreparable", "conditioning outcome has probability ~0")
    except IncompatibleObservablesError:
        return Certification(False, "incompatible-target", "target does not commute with the conditioning set")
    if not abs(p - 1.0) <= tolerance:
        return Certification(False, "not-certain", f"conditional probability is {p!r}, not 1")
    return Certification(True)


@dataclass(frozen=True)
class Check:
    """One verified statement: expected vs computed, with a stable anchor id."""

    description: str
    anchor: str
    expected: object
    computed: object
    passed: bool


@dataclass(frozen=True)
class FrequencyEntry:
    """Empirical vs analytic weight of one joint outcome tuple."""

    outcomes: tuple[float, ...]
    expected: float
    count: int
    frequency: float
    z: float | None


@dataclass
class SamplingStats:
    trials: int
    seed: int
    algorithm: str
    observable_labels: tuple[str, ...]
    entries: list[FrequencyEntry]
    unobserved_admissible: list[tuple[float, ...]]


@dataclass
class ScenarioReport:
    scenario: str
    parameters: PsiParams | None
    checks: list[Check] = field(default_factory=list)
    post_selection: OutcomeAssignment | None = None
    post_selection_probability: float | None = None
    certified_claims: list[tuple[SerClaim, Certification]] = field(default_factory=list)
    incompleteness_verdict: bool | None = None
    contradiction_verdict: bool | None = None
    sampling: SamplingStats | None = None

    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def first_failure(self) -> Check | None:
        for check in self.checks:
            if not check.passed:
                return check
        return None


def _flip(claims: list[SerClaim], which: int | None) -> list[SerClaim]:
    """Replace the predicted value of one claim by a different eigenvalue (fault injection)."""
    if which is None:
        return claims
    if not 0 <= which < len(claims):
        raise ValueError(f"flip index {which} out of range; scenario emits {len(claims)} claims")
    claim = claims[which]
    for value in claim.observable.eigenvalues():
        if abs(value - claim.predicted_value) > VALUE_MATCH_TOL:
            claims = list(claims)
            claims[which] = replace(claim, predicted_value=value)
            return claims
    raise ValueError("observable has a single eigenvalue; nothing to flip to")


def _certify_claims(state, claims, checks, anchor_prefix, tolerance):
    certified = []
    for claim in claims:
        cert = certify_ser(state, claim, tolerance=tolerance)
        certified.append((claim, cert))
        detail = "" if cert.ok else f" [{cert.failed_clause}: {cert.detail}]"
        checks.append(
            Check(
                description=f"certified SER {claim.describe()}{detail}",
                anchor=f"{anchor_prefix}:certainty:{claim.observable.label}",
                expected=True,
                computed=cert.ok,
                passed=cert.ok,
            )
        )
    return certified


def run_epr_psi(
    params: PsiParams,
    *,
    tolerance: float = CERTAINTY_TOL,
    flip_claim: int | None = None,
) -> ScenarioReport:
    """Incompleteness argument on the psi family.

    Post-select sigma_z = +1 on all three particles, certify the three joint
    SER claims, and verify that the claim targets {sigma_x(1), sigma_x(2),
    pi(1+2)} share no common eigenstate.  Also records the pair-state caveat:
    on the two-particle Hardy state alone, the pi value rests on the
    preparation itself, whose region overlaps the target region, so the claim
    must fail certification there.
    """
    state = psi_state(params)
    sz = {p: spin(Axis.Z, p, 3) for p in (1, 2, 3)}
    sx = {p: spin(Axis.X, p, 3) for p in (1, 2)}
    pi3 = hardy_projector(3)

    report = ScenarioReport(scenario="epr-psi", parameters=params)

    post = OutcomeAssignment([(sz[1], +1.0), (sz[2], +1.0), (sz[3], +1.0)])
    p_post = outcome_probability(state, post)
    expected_post = abs(params.a) ** 2
    report.post_selection = post
    report.post_selection_probability = p_post
    report.checks.append(
        Check(
            description="post-selection probability P(sigma_z(1)=+1, sigma_z(2)=+1, sigma_z(3)=+1) = |a|^2",
            anchor="epr-psi:postselect",
            expected=expected_post,
            computed=p_post,
            passed=abs(p_post - expected_post) <= VALUE_MATCH_TOL,
        )
    )

    claims = [
        SerClaim(sx[2], -1.0, OutcomeAssignment([(sz[1], +1.0)]), frozenset({1}), frozenset({2})),
        SerClaim(sx[1], -1.0, OutcomeAssignment([(sz[2], +1.0)]), frozenset({2}), frozenset({1})),
        SerClaim(pi3, 1.0, OutcomeAssignment([(sz[3], +1.0)]), frozenset({3}), frozenset({1, 2})),
    ]
    claims = _flip(claims, flip_claim)
    certified = _certify_claims(state, claims, report.checks, "epr-psi", tolerance)
    report.certified_claims = certified

    shared = has_common_eigenstate([sx[1], sx[2], pi3])
    report.checks.append(
        Check(
            description="no common eigenstate of {sigma_x(1), sigma_x(2), pi(1+2)}",
            anchor="epr-psi:no-common-eigenstate",
            expected=False,
            computed=shared,
            passed=shared is False,
        )
    )

    caveat_claim = SerClaim(
        hardy_projector(),
        1.0,
        OutcomeAssignment((), dim=4),
        inferring_region=frozenset({1, 2}),
        target_region=frozenset({1, 2}),
    )
    caveat = certify_ser(hardy_state(), caveat_claim, tolerance=tolerance)
    report.checks.append(
        Check(
            description="pair-state caveat: pi(1+2)=1 on the Hardy pair alone is not certifiable "
            "(the preparing region overlaps the target region)",
            anchor="epr-psi:pair-state-caveat",
            expected="region-overlap",
            computed=caveat.failed_clause or "certified",
            passed=caveat.failed_clause == "region-overlap",
        )
    )

    # every check above is a premise of the argument, so a failing one (even a
    # NaN post-selection value) voids the verdict
    report.incompleteness_verdict = report.passed()
    return report


def run_epr_ghz(
    *,
    tolerance: float = CERTAINTY_TOL,
    flip_claim: int | None = None,
) -> ScenarioReport:
    """Incompleteness argument on the GHZ-Mermin state.

    For each of the 8 sigma_y outcome branches (eps_1, eps_2, eps_3), certify
    the three SER claims A_j = eps_j; then verify that no pair of the A_j has
    a common eigenstate.  The verdict requires every branch to certify, since
    the argument covers whatever results the measurements produce.
    """
    state = ghz_mermin_state()
    sy = {p: spin(Axis.Y, p, 3) for p in (1, 2, 3)}
    a_ops = {j: mermin_A(j) for j in (1, 2, 3)}

    report = ScenarioReport(scenario="epr-ghz", parameters=None)

    branches = [(e1, e2, e3) for e1 in (+1.0, -1.0) for e2 in (+1.0, -1.0) for e3 in (+1.0, -1.0)]
    claims: list[SerClaim] = []
    for eps in branches:
        for j in (1, 2, 3):
            others = frozenset({1, 2, 3} - {j})
            claims.append(
                SerClaim(a_ops[j], eps[j - 1], OutcomeAssignment([(sy[j], eps[j - 1])]), frozenset({j}), others)
            )
    claims = _flip(claims, flip_claim)

    certified: list[tuple[SerClaim, Certification]] = []
    for b, eps in enumerate(branches):
        branch_claims = claims[3 * b : 3 * b + 3]
        branch_ok = True
        for claim in branch_claims:
            cert = certify_ser(state, claim, tolerance=tolerance)
            certified.append((claim, cert))
            branch_ok = branch_ok and cert.ok
        label = ",".join(f"{e:+g}" for e in eps)
        report.checks.append(
            Check(
                description=f"branch ({label}): SERs A_1={eps[0]:+g}, A_2={eps[1]:+g}, A_3={eps[2]:+g} all certified",
                anchor=f"epr-ghz:branch:{label}",
                expected=True,
                computed=branch_ok,
                passed=branch_ok,
            )
        )
    report.certified_claims = certified

    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i >= j:
                continue
            shared = has_common_eigenstate([a_ops[i], a_ops[j]])
            report.checks.append(
                Check(
                    description=f"no common eigenstate of {{A_{i}, A_{j}}}",
                    anchor=f"epr-ghz:no-common-eigenstate:A_{i},A_{j}",
                    expected=False,
                    computed=shared,
                    passed=shared is False,
                )
            )

    # each branch check ANDs its three certifications, so the report holds them all
    report.incompleteness_verdict = report.passed()
    return report


def run_bell_hardy(
    params: PsiParams,
    *,
    tolerance: float = CERTAINTY_TOL,
    flip_claim: int | None = None,
) -> ScenarioReport:
    """Contradiction on the psi family: jointly inferred values that no state can show.

    Post-select sigma_x(1)=+1, sigma_x(2)=+1, sigma_z(3)=+1 (probability
    |a|^2/4), certify the SERs sigma_z(2)=-1, sigma_z(1)=-1, pi(1+2)=1, and
    verify that the product of the three corresponding eigenprojectors is the
    zero operator, so the inferred triple can never be obtained in a joint
    measurement of the three compatible observables in any state.
    """
    state = psi_state(params)
    sz = {p: spin(Axis.Z, p, 3) for p in (1, 2, 3)}
    sx = {p: spin(Axis.X, p, 3) for p in (1, 2)}
    pi3 = hardy_projector(3)

    report = ScenarioReport(scenario="bell-hardy", parameters=params)

    post = OutcomeAssignment([(sx[1], +1.0), (sx[2], +1.0), (sz[3], +1.0)])
    p_post = outcome_probability(state, post)
    expected_post = abs(params.a) ** 2 / 4.0
    report.post_selection = post
    report.post_selection_probability = p_post
    report.checks.append(
        Check(
            description="post-selection probability P(sigma_x(1)=+1, sigma_x(2)=+1, sigma_z(3)=+1) = |a|^2/4",
            anchor="bell-hardy:postselect",
            expected=expected_post,
            computed=p_post,
            passed=abs(p_post - expected_post) <= VALUE_MATCH_TOL,
        )
    )

    claims = [
        SerClaim(sz[2], -1.0, OutcomeAssignment([(sx[1], +1.0)]), frozenset({1}), frozenset({2})),
        SerClaim(sz[1], -1.0, OutcomeAssignment([(sx[2], +1.0)]), frozenset({2}), frozenset({1})),
        SerClaim(pi3, 1.0, OutcomeAssignment([(sz[3], +1.0)]), frozenset({3}), frozenset({1, 2})),
    ]
    claims = _flip(claims, flip_claim)
    certified = _certify_claims(state, claims, report.checks, "bell-hardy", tolerance)
    report.certified_claims = certified

    product = (
        sz[1].spectral().projector_for(-1.0)
        @ sz[2].spectral().projector_for(-1.0)
        @ pi3.spectral().projector_for(1.0)
    )
    product_norm = float(np.max(np.abs(product)))
    report.checks.append(
        Check(
            description="projector product P(sigma_z(1)=-1) P(sigma_z(2)=-1) P(pi(1+2)=1) is the zero operator "
            "(the inferred triple has probability 0 in every state)",
            anchor="bell-hardy:zero-operator",
            expected=0.0,
            computed=product_norm,
            passed=product_norm < OPERATOR_ZERO_TOL,
        )
    )

    # every check above is a premise of the argument, so a failing one voids the verdict
    report.contradiction_verdict = report.passed()
    return report


def run_bell_ghz(
    *,
    tolerance: float = CERTAINTY_TOL,
    flip_claim: int | None = None,
) -> ScenarioReport:
    """Contradiction on the GHZ-Mermin state.

    The product of the sigma_x components is -1 with certainty, so in every
    sigma_x branch the inferred values B_j = eps_j multiply to -1; but
    B_1 B_2 B_3 is the identity, so directly measured B values always multiply
    to +1.
    """
    state = ghz_mermin_state()
    sx = {p: spin(Axis.X, p, 3) for p in (1, 2, 3)}
    b_ops = {j: mermin_B(j) for j in (1, 2, 3)}

    report = ScenarioReport(scenario="bell-ghz", parameters=None)

    branches = [(e1, e2, e3) for e1 in (+1.0, -1.0) for e2 in (+1.0, -1.0) for e3 in (+1.0, -1.0)]
    claims: list[SerClaim] = []
    for eps in branches:
        for j in (1, 2, 3):
            others = frozenset({1, 2, 3} - {j})
            claims.append(
                SerClaim(b_ops[j], eps[j - 1], OutcomeAssignment([(sx[j], eps[j - 1])]), frozenset({j}), others)
            )
    claims = _flip(claims, flip_claim)

    certified: list[tuple[SerClaim, Certification]] = []
    for b, eps in enumerate(branches):
        branch_claims = claims[3 * b : 3 * b + 3]
        branch_ok = True
        for claim in branch_claims:
            cert = certify_ser(state, claim, tolerance=tolerance)
            certified.append((claim, cert))
            branch_ok = branch_ok and cert.ok
        label = ",".join(f"{e:+g}" for e in eps)
        report.checks.append(
            Check(
                description=f"branch ({label}): SERs B_1={eps[0]:+g}, B_2={eps[1]:+g}, B_3={eps[2]:+g} all certified",
                anchor=f"bell-ghz:branch:{label}",
                expected=True,
                computed=branch_ok,
                passed=branch_ok,
            )
        )
    report.certified_claims = certified

    xxx = spin_product(Axis.X, 3)
    p_minus = outcome_probability(state, OutcomeAssignment([(xxx, -1.0)]))
    report.checks.append(
        Check(
            description="P(sigma_x(1) sigma_x(2) sigma_x(3) = -1) = 1, so the inferred product "
            "eps_1 eps_2 eps_3 is -1 in every branch",
            anchor="bell-ghz:x-product-certainty",
            expected=1.0,
            computed=p_minus,
            passed=abs(p_minus - 1.0) <= VALUE_MATCH_TOL,
        )
    )

    b_product = b_ops[1].matrix @ b_ops[2].matrix @ b_ops[3].matrix
    identity_dev = float(np.max(np.abs(b_product - np.eye(8))))
    report.checks.append(
        Check(
            description="B_1 B_2 B_3 is the identity operator, so directly measured B values "
            "multiply to +1 in every state",
            anchor="bell-ghz:b-product-identity",
            expected=0.0,
            computed=identity_dev,
            passed=identity_dev < OPERATOR_IDENTITY_TOL,
        )
    )

    # each branch check ANDs its three certifications, so the report holds them all
    report.contradiction_verdict = report.passed()
    return report


def run_scenario(
    scenario: str,
    params: PsiParams | None = None,
    *,
    tolerance: float = CERTAINTY_TOL,
    flip_claim: int | None = None,
) -> ScenarioReport:
    """Dispatch an analytic scenario run by name."""
    if scenario in ("epr-psi", "bell-hardy") and params is None:
        raise ValueError(f"scenario {scenario!r} needs psi-family parameters (a, b)")
    if scenario == "epr-psi":
        return run_epr_psi(params, tolerance=tolerance, flip_claim=flip_claim)
    if scenario == "epr-ghz":
        return run_epr_ghz(tolerance=tolerance, flip_claim=flip_claim)
    if scenario == "bell-hardy":
        return run_bell_hardy(params, tolerance=tolerance, flip_claim=flip_claim)
    if scenario == "bell-ghz":
        return run_bell_ghz(tolerance=tolerance, flip_claim=flip_claim)
    raise ValueError(f"unknown scenario {scenario!r}")


def _scenario_measurement_plan(scenario: str, params: PsiParams | None):
    """State, measured observables, and per-trial product constraint for sampling."""
    if scenario in ("epr-psi", "bell-hardy") and params is None:
        raise ValueError(f"scenario {scenario!r} needs psi-family parameters (a, b)")
    if scenario == "epr-psi":
        return psi_state(params), [spin(Axis.Z, p, 3) for p in (1, 2, 3)], None
    if scenario == "epr-ghz":
        return ghz_mermin_state(), [spin(Axis.Y, p, 3) for p in (1, 2, 3)], None
    if scenario == "bell-hardy":
        return psi_state(params), [spin(Axis.X, 1, 3), spin(Axis.X, 2, 3), spin(Axis.Z, 3, 3)], None
    if scenario == "bell-ghz":
        return ghz_mermin_state(), [spin(Axis.X, p, 3) for p in (1, 2, 3)], -1.0
    raise ValueError(f"unknown scenario {scenario!r}")


def sample_scenario(
    scenario: str,
    params: PsiParams | None = None,
    *,
    seed: int = 0,
    trials: int = 100_000,
) -> ScenarioReport:
    """Monte Carlo companion to a scenario: sampled joint frequencies vs Born values.

    Emits one z-score check per outcome tuple with analytic probability in
    (0, 1), a zero-count hard check per impossible tuple, and, when the
    scenario fixes the product of outcomes, a per-trial product constraint
    check.  Outcome tuples that are possible but unseen are listed in the
    sampling stats.
    """
    state, observables, product_constraint = _scenario_measurement_plan(scenario, params)
    report = ScenarioReport(scenario=scenario, parameters=params)

    counts = sample_counts(state, observables, seed=seed, trials=trials)
    spectra = [o.eigenvalues() for o in observables]
    labels = tuple(o.label or "O" for o in observables)

    entries: list[FrequencyEntry] = []
    unobserved: list[tuple[float, ...]] = []

    combos: list[tuple[float, ...]] = [()]
    for values in spectra:
        combos = [c + (v,) for c in combos for v in values]

    product_violations = 0
    for tup in combos:
        assignment = OutcomeAssignment(list(zip(observables, tup)))
        p = outcome_probability(state, assignment)
        count = counts.get(tup, 0)
        freq = count / trials
        z: float | None = None
        if 0.0 < p < 1.0:
            z = float((freq - p) / np.sqrt(p * (1.0 - p) / trials))
        entries.append(FrequencyEntry(outcomes=tup, expected=p, count=count, frequency=freq, z=z))
        tup_label = "(" + ",".join(f"{v:+g}" for v in tup) + ")"
        if z is not None:
            report.checks.append(
                Check(
                    description=f"frequency of {tup_label} within {Z_SCORE_LIMIT:g} sigma of {p:.6g}",
                    anchor=f"{scenario}:sampling:z:{tup_label}",
                    expected=f"|z| < {Z_SCORE_LIMIT:g}",
                    computed=z,
                    passed=bool(abs(z) < Z_SCORE_LIMIT),
                )
            )
        else:
            expected_count = 0 if p < 0.5 else trials
            report.checks.append(
                Check(
                    description=f"outcome {tup_label} has Born probability {p:g}: hard count constraint",
                    anchor=f"{scenario}:sampling:hard:{tup_label}",
                    expected=expected_count,
                    computed=count,
                    passed=count == expected_count,
                )
            )
        if p > 1e-15 and count == 0:
            unobserved.append(tup)
        if product_constraint is not None and abs(float(np.prod(tup)) - product_constraint) > 1e-9:
            product_violations += count

    if product_constraint is not None:
        report.checks.append(
            Check(
                description=f"product of outcomes equals {product_constraint:+g} in every trial",
                anchor=f"{scenario}:sampling:product-constraint",
                expected=0,
                computed=product_violations,
                passed=product_violations == 0,
            )
        )

    report.sampling = SamplingStats(
        trials=trials,
        seed=seed,
        algorithm=RNG_ALGORITHM,
        observable_labels=labels,
        entries=entries,
        unobserved_admissible=unobserved,
    )
    return report


def hardy_null_outcome_scan(seed: int = 0, n_states: int = 20, trials: int = 100_000) -> list[int]:
    """Count (sigma_z(1)=-1, sigma_z(2)=-1, pi=1) outcomes across random states.

    The projector product for that triple is the zero operator, so every
    returned count must be 0 regardless of the sampled state.
    """
    observables = [spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3), hardy_projector(3)]
    target = (-1.0, -1.0, 1.0)
    rng = np.random.default_rng(seed)
    hits: list[int] = []
    for s in range(n_states):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(amps, normalize=True)
        counts = sample_counts(state, observables, seed=seed + s + 1, trials=trials)
        hit = sum(
            count
            for outcome, count in counts.items()
            if all(abs(o - t) <= 1e-8 for o, t in zip(outcome, target))
        )
        hits.append(hit)
    return hits
