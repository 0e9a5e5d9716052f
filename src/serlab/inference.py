"""Certain-value inference and the four verification scenarios.

A *strong element of reality* (SER) claim asserts that the value of an
observable on one group of particles is predicted with certainty (conditional
probability 1) by the outcome of a measurement already performed on a disjoint
group.  :func:`certify_ser` mechanizes exactly three clauses:

1. certainty: given the conditioning outcome, the predicted value is missed with probability 0;
2. no disturbance: the inferring and target particle groups are disjoint;
3. locality of the inference: every conditioning observable acts
   non-trivially only on the inferring group.

Spacelike separation is modeled as disjoint particle-index sets; no spacetime
geometry is represented.

Each scenario is one :class:`Scenario` record in :data:`SCENARIO_TABLE`, run
analytically by :func:`run_scenario` and sampled by :func:`sample_scenario`.
Its proof ends in :class:`Identity` rows, one report check each after its claims:

* ``epr-psi``    - joint SERs sigma_x(2) = -1, sigma_x(1) = -1, pi(1+2) = 1 on
  the psi family after post-selecting sigma_z = +1 on all three particles,
  plus a no-common-eigenstate row for the three targets and the pair-state caveat.
* ``epr-ghz``    - joint SERs A_j = eps_j on the GHZ-Mermin state for every
  sigma_y outcome branch, plus a no-common-eigenstate row per pair.
* ``bell-hardy`` - joint SERs sigma_z(2) = -1, sigma_z(1) = -1, pi(1+2) = 1
  after post-selecting sigma_x(1) = sigma_x(2) = sigma_z(3) = +1, whose direct
  joint measurement is impossible in every state (a zero-operator row).
* ``bell-ghz``   - joint SERs B_j = eps_j whose inferred product is -1 in
  every sigma_x branch (a row certain on the state) while B_1 B_2 B_3 is
  the identity (an identity row), so direct measurement always yields +1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from .hilbert import (
    EIGENVALUE_TOL,
    EXACT_ENTRY_TOL,
    SCALAR_TOL,
    Observable,
    StateVector,
    _index,
    acts_only_on,
    has_common_eigenstate,
)
from .measurement import (
    NEGLIGIBLE_PROBABILITY,
    RNG_ALGORITHM,
    OutcomeAssignment,
    commutes,
    outcome_probability,
    sample_counts,
)
from .spin import Axis, _shared, hardy_projector, mermin_A, mermin_B, spin, spin_product
from .states import PsiParams, ghz_mermin_state, hardy_state, psi_state

CERTAINTY_TOL = 1e-24  # the largest miss probability a certain claim may have
Z_SCORE_LIMIT = 4.0

__all__ = [
    "CERTAINTY_TOL",
    "SCENARIOS",
    "SCENARIO_TABLE",
    "SerClaim",
    "Certification",
    "Check",
    "FrequencyEntry",
    "SamplingStats",
    "ScenarioReport",
    "certify_ser",
    "run_scenario",
    "sample_scenario",
    "hardy_null_outcome_scan",
]


@dataclass(frozen=True)
class SerClaim:
    """A predicted-with-certainty value for an observable on an undisturbed group.

    The target's eigenprojector is looked up when the claim is built, which
    rejects an off-spectrum value; the verdict of the three clauses that never
    read a state is computed on first use.  Both are kept on the instance, so
    they are freed with the claim; ``dataclasses.replace`` starts anew.
    """

    observable: Observable
    predicted_value: float
    conditioning: OutcomeAssignment
    inferring_region: frozenset[int]
    target_region: frozenset[int]

    def __post_init__(self):
        n = self.observable.num_particles
        for name in ("inferring_region", "target_region"):
            region = frozenset(getattr(self, name))
            for p in region:
                if not 1 <= _index(p) <= n:
                    raise ValueError(f"{name.replace('_', ' ')} {sorted(region)} out of range 1..{n}")
            object.__setattr__(self, name, region)
        if self.conditioning.dim != self.observable.dim:
            raise ValueError("conditioning and observable live in different spaces")
        object.__setattr__(self, "predicted_value", float(self.predicted_value))
        object.__setattr__(self, "_target_projector", self.observable.projector(self.predicted_value))

    def describe(self) -> str:
        return f"{self.observable.name}={self.predicted_value:+g} given {self.conditioning.describe()}"

    @cached_property
    def _structural_failure(self) -> Certification | None:
        """The first failed clause of the three that never read a state, or None.

        They are judged in the order region-overlap, conditioning-not-local, incompatible-target.
        """
        if self.inferring_region & self.target_region:
            return Certification(
                False,
                "region-overlap",
                f"inferring region {sorted(self.inferring_region)} intersects "
                f"target region {sorted(self.target_region)}",
            )
        for obs, _ in self.conditioning.pairs:
            if not acts_only_on(obs, self.inferring_region, self.observable.num_particles):
                return Certification(
                    False,
                    "conditioning-not-local",
                    f"{obs.name} acts outside the inferring region {sorted(self.inferring_region)}",
                )
        if not all(commutes(obs, self.observable) for obs, _ in self.conditioning.pairs):
            return Certification(False, "incompatible-target", "target does not commute with the conditioning set")
        return None


@dataclass(frozen=True)
class Certification:
    """Verdict of :func:`certify_ser`; falsy when a named clause failed.

    ``miss`` is the claim's miss probability, infinite when a clause before not-certain failed.
    """

    ok: bool
    failed_clause: str | None = None
    detail: str = ""
    miss: float = math.inf

    def __bool__(self) -> bool:
        return self.ok


def _miss_probability(phi: np.ndarray, projector: np.ndarray) -> float:
    """``|phi - P phi|^2 / |phi|^2``, ``P`` an eigenprojector: the chance that measuring on ``phi`` misses its value."""
    residual = phi - projector @ phi
    return float(np.real(np.vdot(residual, residual) / np.vdot(phi, phi)))


def certify_ser(state: StateVector, claim: SerClaim) -> Certification:
    """Check the three SER clauses; failures are verdicts, never exceptions.

    Certain means a miss probability ``|phi - P_t phi|^2 / |phi|^2 <= CERTAINTY_TOL``, with ``phi = P_g psi``
    the state projected by the conditioning and ``P_t`` the target's eigenprojector: computed from the residual,
    it resolves misses far below the ~1e-16 that ``1 - p`` can.  A state of another space raises ``ValueError``.
    Only condition-unpreparable and not-certain read the state; the claim keeps the verdict of the checks before them.
    """
    if state.dim != claim.observable.dim:
        raise ValueError("state and claim live in different spaces")
    failure = claim._structural_failure
    if failure is not None:
        return failure
    phi = claim.conditioning.joint_projector() @ state.amplitudes
    if np.vdot(phi, phi).real <= SCALAR_TOL:
        return Certification(False, "condition-unpreparable", "conditioning outcome has probability ~0")
    miss = _miss_probability(phi, claim._target_projector)
    if not miss <= CERTAINTY_TOL:
        return Certification(False, "not-certain", f"miss probability is {miss!r}, above {CERTAINTY_TOL:g}", miss)
    return Certification(True, miss=miss)


class Check(NamedTuple):
    """One verified statement: expected vs computed, with a stable anchor id.

    ``deviation`` is how far the checked quantity is from what the check requires; the check passes when it is at
    most ``bound``, so a NaN deviation fails.
    """

    description: str
    anchor: str
    expected: object
    computed: object
    deviation: float
    bound: float = 0.0

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound


def _equality_check(description: str, anchor: str, expected: object, computed: object) -> Check:
    """A check that passes when ``computed == expected``."""
    return Check(description, anchor, expected, computed, float(computed != expected))


class FrequencyEntry(NamedTuple):
    """Empirical vs analytic weight of one joint outcome tuple."""

    outcomes: tuple[float, ...]
    expected: float
    count: int
    frequency: float
    z: float | None


class SamplingStats(NamedTuple):
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
        return next((check for check in self.checks if not check.passed), None)


class PostSelection(NamedTuple):
    """Post-selection of +1 on every measured observable of the psi-family state."""

    predicted: tuple[float, float, float]  # the targets' certain values on that branch
    weight: float  # its expected probability, in units of |a|^2
    text: str  # the same, as the check description writes it


class Identity(NamedTuple):
    """One operator identity that an argument ends in, reported as one check; :func:`_check_identity` reads each kind.

    ``operators`` pairs each observable factory with a value, ``None`` where the kind reads none.
    """

    kind: str
    anchor: str  # the report anchor after "<scenario>:"
    operators: tuple[tuple[Callable[[], Observable], float | None], ...]
    description: str


@dataclass(frozen=True)
class Scenario:
    """One argument of the paper as data.

    ``measured`` holds one observable factory per particle: claim k is
    inferred from the outcome on particle k+1, and :func:`sample_scenario`
    measures the same triple.  Factories, not operators, so that nothing is
    built at import.  Without a ``post_selection`` the scenario runs on the
    GHZ-Mermin state in all 8 sign branches, each predicted value equal to
    its branch sign.  ``identities`` are reported after the claim checks, in
    row order; every row but a ``certain`` one is computed once per process.
    """

    measured: tuple[Callable[[], Observable], ...]
    targets: tuple[Callable[[], Observable], ...]
    target_regions: tuple[frozenset[int], ...]
    identities: tuple[Identity, ...]
    verdict: str  # "incompleteness" or "contradiction": true when every check passes
    post_selection: PostSelection | None = None
    product_constraint: float | None = None  # every sampled outcome triple multiplies to this

    @property
    def needs_params(self) -> bool:
        return self.post_selection is not None


def _outcome_text(outcomes) -> str:
    """An outcome tuple as reports write it, e.g. ``(+1,-1,+1)``."""
    return "(" + ",".join(f"{v:+g}" for v in outcomes) + ")"


def _spins(*axes: Axis) -> tuple[Callable[[], Observable], ...]:
    """Factories of one spin component per particle, particle 1 first."""
    return tuple(partial(spin, axis, particle, 3) for particle, axis in enumerate(axes, 1))


_PI = partial(hardy_projector, 3)  # pi(1+2) among three particles
_PSI_TARGET_REGIONS = (frozenset({2}), frozenset({1}), frozenset({1, 2}))
_GHZ_TARGET_REGIONS = (frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2}))

SCENARIO_TABLE: dict[str, Scenario] = {
    "epr-psi": Scenario(
        measured=_spins(Axis.Z, Axis.Z, Axis.Z),
        targets=(partial(spin, Axis.X, 2, 3), partial(spin, Axis.X, 1, 3), _PI),
        target_regions=_PSI_TARGET_REGIONS,
        identities=(
            Identity(
                "no-common-eigenstate", "no-common-eigenstate",
                tuple((make, None) for make in (*_spins(Axis.X, Axis.X), _PI)),
                "no common eigenstate of {sigma_x(1), sigma_x(2), pi(1+2)}",
            ),
            Identity(
                "pair-caveat", "pair-state-caveat", ((partial(hardy_projector, 2), 1.0),),
                "pair-state caveat: pi(1+2)=1 on the Hardy pair alone is not certifiable "
                "(the preparing region overlaps the target region)",
            ),
        ),
        verdict="incompleteness",
        post_selection=PostSelection((-1.0, -1.0, 1.0), 1.0, "|a|^2"),
    ),
    "epr-ghz": Scenario(
        measured=_spins(Axis.Y, Axis.Y, Axis.Y),
        targets=tuple(partial(mermin_A, j) for j in (1, 2, 3)),
        target_regions=_GHZ_TARGET_REGIONS,
        identities=tuple(
            Identity(
                "no-common-eigenstate", f"no-common-eigenstate:A_{i},A_{j}",
                ((partial(mermin_A, i), None), (partial(mermin_A, j), None)),
                f"no common eigenstate of {{A_{i}, A_{j}}}",
            )
            for i, j in itertools.combinations((1, 2, 3), 2)
        ),
        verdict="incompleteness",
    ),
    "bell-hardy": Scenario(
        measured=_spins(Axis.X, Axis.X, Axis.Z),
        targets=(partial(spin, Axis.Z, 2, 3), partial(spin, Axis.Z, 1, 3), _PI),
        target_regions=_PSI_TARGET_REGIONS,
        identities=(
            Identity(
                "zero-operator", "zero-operator", tuple(zip((*_spins(Axis.Z, Axis.Z), _PI), (-1.0, -1.0, 1.0))),
                "projector product P(sigma_z(1)=-1) P(sigma_z(2)=-1) P(pi(1+2)=1) is the zero operator "
                "(the inferred triple has probability 0 in every state)",
            ),
        ),
        verdict="contradiction",
        post_selection=PostSelection((-1.0, -1.0, 1.0), 0.25, "|a|^2/4"),
    ),
    "bell-ghz": Scenario(
        measured=_spins(Axis.X, Axis.X, Axis.X),
        targets=tuple(partial(mermin_B, j) for j in (1, 2, 3)),
        target_regions=_GHZ_TARGET_REGIONS,
        identities=(
            Identity(
                "certain", "x-product-certainty", ((partial(spin_product, Axis.X, 3), -1.0),),
                "P(sigma_x(1) sigma_x(2) sigma_x(3) = -1) = 1, so the inferred product "
                "eps_1 eps_2 eps_3 is -1 in every branch",
            ),
            Identity(
                "identity", "b-product-identity", tuple((partial(mermin_B, j), None) for j in (1, 2, 3)),
                "B_1 B_2 B_3 is the identity operator, so directly measured B values multiply to +1 in every state",
            ),
        ),
        verdict="contradiction",
        product_constraint=-1.0,
    ),
}

SCENARIOS = tuple(SCENARIO_TABLE)

_SIGN_BRANCHES = list(itertools.product((+1.0, -1.0), repeat=3))  # (+1,+1,+1), (+1,+1,-1), ...


def _prepare(scenario: str, params: PsiParams | None) -> tuple[Scenario, StateVector, PsiParams | None]:
    """The scenario's record, its state, and the parameters it uses (None off the psi family)."""
    spec = SCENARIO_TABLE.get(scenario)
    if spec is None:
        raise ValueError(f"unknown scenario {scenario!r}")
    if not spec.needs_params:
        return spec, _shared(ghz_mermin_state), None  # read-only, so one instance serves every run
    if params is None:
        raise ValueError(f"scenario {scenario!r} needs psi-family parameters (a, b)")
    return spec, psi_state(params), params


def _flip(claims: list[SerClaim], which: int) -> None:
    """Replace the predicted value of one claim by a different eigenvalue (fault injection)."""
    which = _index(which)
    if not 0 <= which < len(claims):
        raise ValueError(f"flip index {which} out of range; scenario emits {len(claims)} claims")
    claim = claims[which]
    spectral = claim.observable.spectral()
    k = spectral.index_of(claim.predicted_value)
    others = spectral.eigenvalues[:k] + spectral.eigenvalues[k + 1 :]
    if not others:
        raise ValueError("observable has a single eigenvalue; nothing to flip to")
    claims[which] = replace(claim, predicted_value=others[0])


class _FixedPart(NamedTuple):
    """What a run or a sampling of one scenario computes without reading the state, report texts included."""

    measured: tuple[Observable, ...]
    post_selection: OutcomeAssignment | None
    post_text: str  # the post-selection check's description; "" when not post-selected
    claims: tuple[SerClaim, ...]  # unflipped, in report order; a GHZ claim fills the 4 slots of its (k, eps_k)
    check_texts: tuple[tuple[str, str], ...]  # (description, anchor) per sign branch, or per claim when post-selected
    identities: tuple[Check | Callable[[StateVector], Check], ...]  # per row: its check, or a function of the state
    outcomes: tuple[tuple[tuple[float, ...], OutcomeAssignment], ...]  # each outcome tuple of ``measured``


def _branch_text(scenario: str, targets: list[Observable], eps: tuple[float, ...]) -> tuple[str, str]:
    """The description and anchor of one sign branch's check."""
    label = ",".join(f"{e:+g}" for e in eps)
    values = ", ".join(f"{target.label}={e:+g}" for target, e in zip(targets, eps))
    return f"branch ({label}): SERs {values} all certified", f"{scenario}:branch:{label}"


def _claim_text(scenario: str, claim: SerClaim) -> tuple[str, str]:
    """The description, before any failure detail, and the anchor of one post-selected claim's check."""
    return f"certified SER {claim.describe()}", f"{scenario}:certainty:{claim.observable.label}"


def _check_identity(scenario: str, row: Identity) -> Check | Callable[[StateVector], Check]:
    """The check of one identity row; for a ``certain`` row, a function of the state with its assignment built.

    A ``certain`` row reports the values' probability, against CERTAINTY_TOL on their miss probability.
    """
    ops = [(make(), value) for make, value in row.operators]
    anchor = f"{scenario}:{row.anchor}"
    if row.kind == "certain":
        assignment = OutcomeAssignment(ops)
        return lambda state: Check(
            row.description, anchor, 1.0, outcome_probability(state, assignment),
            _miss_probability(state.amplitudes, assignment.joint_projector()), CERTAINTY_TOL,
        )
    if row.kind == "no-common-eigenstate":
        return _equality_check(row.description, anchor, False, has_common_eigenstate([obs for obs, _ in ops]))
    if row.kind == "pair-caveat":  # prepared and targeted on the same pair {1, 2}
        ((obs, value),) = ops
        claim = SerClaim(obs, value, OutcomeAssignment((), dim=obs.dim), {1, 2}, {1, 2})
        caveat = certify_ser(hardy_state(), claim).failed_clause or "certified"
        return _equality_check(row.description, anchor, "region-overlap", caveat)
    if row.kind == "zero-operator":
        deviation = float(np.max(np.abs(OutcomeAssignment(ops).joint_projector())))
    elif row.kind == "identity":
        product = reduce(np.matmul, (obs.matrix for obs, _ in ops))
        deviation = float(np.max(np.abs(product - np.eye(len(product)))))
    else:
        raise ValueError(f"unknown identity kind {row.kind!r}")
    return Check(row.description, anchor, 0.0, deviation, deviation, EXACT_ENTRY_TOL)


def _build_fixed_part(scenario: str) -> _FixedPart:
    """The scenario's state-free part, built on its first run through ``spin._shared``, so once per process."""
    spec = SCENARIO_TABLE[scenario]
    measured = tuple(make() for make in spec.measured)
    targets = [make() for make in spec.targets]
    post = spec.post_selection
    if post is None:
        post_selection, post_text = None, ""
        branches = [(eps, eps) for eps in _SIGN_BRANCHES]  # (measured outcomes, predicted values)
    else:
        post_selection = OutcomeAssignment([(obs, +1.0) for obs in measured])
        post_text = f"post-selection probability P({post_selection.describe()}) = {post.text}"
        branches = [((+1.0, +1.0, +1.0), post.predicted)]
    @cache  # a claim reads one outcome and one value: branches that agree on both hold one claim object
    def claim(k: int, given: float, value: float) -> SerClaim:
        return SerClaim(targets[k], value, OutcomeAssignment([(measured[k], given)]), {k + 1}, spec.target_regions[k])

    claims = tuple(claim(k, given[k], values[k]) for given, values in branches for k in range(len(targets)))
    if post is None:
        check_texts = tuple(_branch_text(scenario, targets, eps) for eps in _SIGN_BRANCHES)
    else:
        check_texts = tuple(map(partial(_claim_text, scenario), claims))
    identities = tuple(_check_identity(scenario, row) for row in spec.identities)
    tuples = itertools.product(*(o.eigenvalues() for o in measured))
    outcomes = tuple((tup, OutcomeAssignment(list(zip(measured, tup)))) for tup in tuples)
    return _FixedPart(measured, post_selection, post_text, claims, check_texts, identities, outcomes)


def run_scenario(
    scenario: str,
    params: PsiParams | None = None,
    *,
    flip_claim: int | None = None,
) -> ScenarioReport:
    """Run one argument analytically: certify its claims, then check its identity rows.

    A post-selected scenario checks the post-selection probability and gets
    one check per claim; a GHZ scenario gets one check per sign branch, which
    ANDs the branch's three certifications, since the argument covers
    whatever results the measurements produce.  Every check is a premise of
    the argument, so the verdict is ``report.passed()``: a failing check,
    even a NaN post-selection value, voids it.  The claims and every check
    that does not read the state are built once (:func:`_build_fixed_part`);
    a flipped claim replaces one entry of a copy of the claim list.  Each
    distinct claim object is certified once per run, so a claim shared by
    four GHZ branches is judged once and a flip reaches its own slot only.
    Every call certifies afresh and returns a new report.
    """
    spec, state, params = _prepare(scenario, params)
    fixed = _shared(_build_fixed_part, scenario)
    report = ScenarioReport(scenario=scenario, parameters=params)

    post = spec.post_selection
    if post is not None:
        report.post_selection = fixed.post_selection
        p_post = outcome_probability(state, report.post_selection)
        expected_post = post.weight * abs(params.a) ** 2
        report.post_selection_probability = p_post
        report.checks.append(
            Check(
                fixed.post_text, f"{scenario}:postselect", expected_post, p_post,
                abs(p_post - expected_post), SCALAR_TOL * expected_post,  # relative: |a|^2 may be ~1e-12
            )
        )

    claims = list(fixed.claims)
    if flip_claim is not None:
        _flip(claims, flip_claim)
    # each distinct claim object once; by identity, since the frozen dataclass's hash would hash every field
    distinct = {id(claim): claim for claim in claims}
    verdicts = {key: certify_ser(state, claim) for key, claim in distinct.items()}
    report.certified_claims = [(claim, verdicts[id(claim)]) for claim in claims]

    if post is not None:
        for (claim, cert), fixed_claim, text in zip(report.certified_claims, fixed.claims, fixed.check_texts):
            description, anchor = text if claim is fixed_claim else _claim_text(scenario, claim)  # a flipped claim
            detail = "" if cert.ok else f" [{cert.failed_clause}: {cert.detail}]"
            report.checks.append(Check(description + detail, anchor, True, cert.ok, cert.miss, CERTAINTY_TOL))
    else:
        for b, (description, anchor) in enumerate(fixed.check_texts):
            certs = [cert for _, cert in report.certified_claims[3 * b : 3 * b + 3]]
            miss = max((cert.miss for cert in certs), key=lambda m: (m != m, m))  # a NaN miss is the largest
            report.checks.append(Check(description, anchor, True, all(certs), miss, CERTAINTY_TOL))

    report.checks.extend(row if isinstance(row, Check) else row(state) for row in fixed.identities)
    setattr(report, f"{spec.verdict}_verdict", report.passed())
    return report


def sample_scenario(
    scenario: str,
    params: PsiParams | None = None,
    *,
    seed: int = 0,
    trials: int = 100_000,
) -> ScenarioReport:
    """Monte Carlo companion to a scenario: sampled joint frequencies vs Born values.

    Samples the scenario's measured triple.  Emits one z-score check per
    outcome tuple with analytic probability in (0, 1), a zero-count hard
    check per impossible tuple, and, when the scenario fixes the product of
    outcomes, a per-trial product constraint check.  Outcome tuples that are
    possible but unseen are listed in the sampling stats.
    """
    spec, state, params = _prepare(scenario, params)
    fixed = _shared(_build_fixed_part, scenario)
    observables = fixed.measured
    product_constraint = spec.product_constraint
    report = ScenarioReport(scenario=scenario, parameters=params)

    counts = sample_counts(state, observables, seed=seed, trials=trials)
    entries: list[FrequencyEntry] = []
    unobserved: list[tuple[float, ...]] = []
    product_violations = 0
    for tup, assignment in fixed.outcomes:
        p = outcome_probability(state, assignment)
        count = counts.get(tup, 0)
        freq = count / trials
        z: float | None = None
        if 0.0 < p < 1.0:
            z = float((freq - p) / np.sqrt(p * (1.0 - p) / trials))
        entries.append(FrequencyEntry(outcomes=tup, expected=p, count=count, frequency=freq, z=z))
        tup_label = _outcome_text(tup)
        if z is not None:  # |z| < Z_SCORE_LIMIT: at most the largest float below it
            description = f"frequency of {tup_label} within {Z_SCORE_LIMIT:g} sigma of {p:.6g}"
            anchor, expected = f"{scenario}:sampling:z:{tup_label}", f"|z| < {Z_SCORE_LIMIT:g}"
            report.checks.append(Check(description, anchor, expected, z, abs(z), math.nextafter(Z_SCORE_LIMIT, 0.0)))
        else:
            description = f"outcome {tup_label} has Born probability {p:g}: hard count constraint"
            anchor, expected_count = f"{scenario}:sampling:hard:{tup_label}", 0 if p < 0.5 else trials
            report.checks.append(_equality_check(description, anchor, expected_count, count))
        if p > NEGLIGIBLE_PROBABILITY and count == 0:
            unobserved.append(tup)
        if product_constraint is not None and abs(float(np.prod(tup)) - product_constraint) > EIGENVALUE_TOL:
            product_violations += count

    if product_constraint is not None:
        description = f"product of outcomes equals {product_constraint:+g} in every trial"
        anchor = f"{scenario}:sampling:product-constraint"
        report.checks.append(_equality_check(description, anchor, 0, product_violations))

    labels = tuple(o.name for o in observables)
    report.sampling = SamplingStats(trials, seed, RNG_ALGORITHM, labels, entries, unobserved)
    return report


def hardy_null_outcome_scan(seed: int = 0, n_states: int = 20, trials: int = 100_000) -> list[int]:
    """Count the outcomes of bell-hardy's zero-operator row, (sigma_z(1)=-1, sigma_z(2)=-1, pi=1), across random states.

    The projector product for that triple is the zero operator, so every
    returned count must be 0 regardless of the sampled state.
    """
    row = next(row for row in SCENARIO_TABLE["bell-hardy"].identities if row.kind == "zero-operator")
    observables, target = zip(*((make(), value) for make, value in row.operators))
    seed, n_states = _index(seed), _index(n_states)
    if n_states < 1:
        raise ValueError("n_states must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    hits: list[int] = []
    for s in range(n_states):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(amps, normalize=True)
        counts = sample_counts(state, observables, seed=seed + s + 1, trials=trials)
        hit = sum(
            count
            for outcome, count in counts.items()
            if all(abs(o - t) <= EIGENVALUE_TOL for o, t in zip(outcome, target))
        )
        hits.append(hit)
    return hits
