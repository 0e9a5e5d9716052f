"""Tests for SER certification and the four scenarios of the scenario table."""

import cmath
import contextlib
import gc
import importlib
import io
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from serlab import cli, inference
from serlab.cli import RunConfig, main, run_command
from serlab.inference import (
    CERTAINTY_TOL,
    SCENARIO_TABLE,
    SCENARIOS,
    Z_SCORE_LIMIT,
    Check,
    Identity,
    SerClaim,
    certify_ser,
    hardy_null_outcome_scan,
    run_scenario,
    sample_scenario,
)
from serlab.hilbert import EXACT_ENTRY_TOL, SCALAR_TOL, Observable, StateVector, has_common_eigenstate
from serlab.measurement import OutcomeAssignment, collapse, conditional_probability
from serlab.spin import Axis, embed, hardy_projector, mermin_A, pauli, spin, spin_product
from serlab.states import PsiParams, ghz_mermin_state, hardy_state, psi_state

from oracles import distinct_eigenvalues, joint_probability, random_psi_params, random_unitary

DEFAULT = PsiParams(0.5, 0.5)
spin_module = importlib.import_module("serlab.spin")  # the package exports a function named spin
GHZ_SCENARIOS = [name for name in SCENARIOS if not SCENARIO_TABLE[name].needs_params]


def _params(scenario):
    return DEFAULT if SCENARIO_TABLE[scenario].needs_params else None


def _state(scenario):
    return psi_state(DEFAULT) if SCENARIO_TABLE[scenario].needs_params else ghz_mermin_state()


# --- certification ---------------------------------------------------------------


def test_certify_accepts_genuine_claim():
    state = psi_state(DEFAULT)
    claim = SerClaim(
        spin(Axis.X, 2, 3),
        -1.0,
        OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)]),
        frozenset({1}),
        frozenset({2}),
    )
    cert = certify_ser(state, claim)
    assert cert
    assert cert.failed_clause is None


def test_certify_rejects_uncertain_claim():
    # Conditioning on the minus branch leaves probability 1/2, not 1.  On the plus branch, sigma_x(2)
    # tilted toward sigma_z(2) by theta misses -1 with probability sin^2(theta/2), 2.5e-11 down to
    # 2.5e-23: 1 - p rounds all of these to 0 or to a few ulps of 1
    state = psi_state(DEFAULT)
    claims = [SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment([(spin(Axis.Z, 1, 3), -1.0)]), {1}, {2})]
    for theta in (1e-5, 1e-7, 1e-9, 1e-11):
        tilted = Observable(math.cos(theta) * pauli(Axis.X).matrix + math.sin(theta) * pauli(Axis.Z).matrix)
        tilted = embed(tilted, 2, 3)
        claims.append(SerClaim(tilted, -1.0, OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)]), {1}, {2}))
    for claim in claims:
        cert = certify_ser(state, claim)
        assert (cert.ok, cert.failed_clause) == (False, "not-certain")


@pytest.mark.parametrize("region", ["inferring_region", "target_region"])
@pytest.mark.parametrize(
    "particles, error", [({1.5}, TypeError), ({True}, TypeError), ({7}, ValueError), ({0}, ValueError)]
)
def test_ser_claim_rejects_malformed_region(region, particles, error):
    regions = {"inferring_region": {1}, "target_region": {2}} | {region: particles}
    conditioning = OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)])
    with pytest.raises(error):
        SerClaim(spin(Axis.X, 2, 3), -1.0, conditioning, **regions)


def test_ser_claim_rejects_conditioning_on_another_space():
    conditioning = OutcomeAssignment([(spin(Axis.Z, 1, 2), 1.0)])
    with pytest.raises(ValueError, match="conditioning and observable live in different spaces"):
        SerClaim(spin(Axis.X, 2, 3), -1.0, conditioning, {1}, {2})


@pytest.mark.parametrize("target_region", [{1}, {3}], ids=["overlapping", "disjoint"])
def test_certify_rejects_a_state_of_another_space(target_region):
    # the check comes before any clause, so an overlap verdict cannot hide the mismatch
    claim = SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment([(spin(Axis.Z, 1, 3), 1.0)]), {1}, target_region)
    with pytest.raises(ValueError, match="state and claim live in different spaces"):
        certify_ser(hardy_state(), claim)


@pytest.mark.parametrize("value", [float("nan"), 0.5])
def test_ser_claim_rejects_off_spectrum_predicted_value(value):
    # an off-spectrum claim never reaches certify_ser, which returns verdicts only
    conditioning = OutcomeAssignment([(spin(Axis.Y, 1, 3), -1.0)])
    with pytest.raises(ValueError, match="not in the spectrum of A_1"):
        SerClaim(mermin_A(1), value, conditioning, frozenset({1}), frozenset({2, 3}))


OFF_SPECTRUM_CALLS = {
    "SerClaim": lambda obs: SerClaim(obs, 0.5, OutcomeAssignment((), dim=8), {2}, {1}),
    "OutcomeAssignment": lambda obs: OutcomeAssignment([(obs, 0.5)]),
    "collapse": lambda obs: collapse(psi_state(DEFAULT), obs, 0.5),
    "Observable.projector": lambda obs: obs.projector(0.5),
    "conditional_probability": lambda obs: conditional_probability(
        psi_state(DEFAULT), (obs, 0.5), OutcomeAssignment((), dim=8)
    ),
}


@pytest.mark.parametrize("call", OFF_SPECTRUM_CALLS.values(), ids=OFF_SPECTRUM_CALLS)
def test_off_spectrum_value_has_one_message(call):
    sz1 = spin(Axis.Z, 1, 3)
    for obs, label in [(sz1, "sigma_z(1)"), (Observable(sz1.matrix), "O[8x8]")]:
        with pytest.raises(ValueError) as exc:
            call(obs)
        assert str(exc.value) == f"0.5 is not in the spectrum of {label}"


def test_unlabeled_observable_has_one_name():
    unlabeled = Observable(spin(Axis.Z, 1, 3).matrix)
    claim = SerClaim(unlabeled, 1.0, OutcomeAssignment([(unlabeled, 1.0)]), {3}, {2})
    assert claim.describe() == "O[8x8]=+1 given O[8x8]=+1"
    assert certify_ser(psi_state(DEFAULT), claim).detail == "O[8x8] acts outside the inferring region [3]"


def test_certify_rejects_overlapping_regions():
    claim = SerClaim(
        hardy_projector(),
        1.0,
        OutcomeAssignment((), dim=4),
        inferring_region=frozenset({1, 2}),
        target_region=frozenset({1, 2}),
    )
    cert = certify_ser(hardy_state(), claim)
    assert not cert
    assert cert.failed_clause == "region-overlap"


def test_certify_rejects_nonlocal_conditioning():
    # Claimed inferring region {3}, but the conditioning observable acts on particle 1; then region {1},
    # with a second conditioning observable on particle 3, which leaves the claim otherwise certain
    state = psi_state(DEFAULT)
    sz1, sz3 = spin(Axis.Z, 1, 3), spin(Axis.Z, 3, 3)
    for conditioning, region in [([(sz1, +1.0)], {3}), ([(sz1, +1.0), (sz3, +1.0)], {1})]:
        claim = SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment(conditioning), region, {2})
        cert = certify_ser(state, claim)
        assert not cert
        assert cert.failed_clause == "conditioning-not-local"


def test_certify_rejects_incompatible_target():
    state = psi_state(DEFAULT)
    claim = SerClaim(
        spin(Axis.X, 1, 3),
        +1.0,
        OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)]),
        frozenset({1}),
        frozenset({2}),
    )
    cert = certify_ser(state, claim)
    assert not cert
    assert cert.failed_clause == "incompatible-target"


def test_certify_rejects_unpreparable_condition():
    mu = ghz_mermin_state()
    given = OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0), (spin(Axis.Z, 2, 3), -1.0)])
    claim = SerClaim(spin(Axis.Z, 3, 3), +1.0, given, frozenset({1, 2}), frozenset({3}))
    cert = certify_ser(mu, claim)
    assert not cert
    assert cert.failed_clause == "condition-unpreparable"


# --- scenario runs -----------------------------------------------------------------


def test_run_epr_psi_defaults():
    report = run_scenario("epr-psi", DEFAULT)
    assert report.passed()
    assert report.incompleteness_verdict is True
    assert report.post_selection_probability == pytest.approx(0.25, abs=1e-12)
    assert len(report.certified_claims) == 3
    assert all(bool(cert) for _, cert in report.certified_claims)
    anchors = [c.anchor for c in report.checks]
    assert "epr-psi:no-common-eigenstate" in anchors
    assert "epr-psi:pair-state-caveat" in anchors


def test_run_epr_ghz():
    report = run_scenario("epr-ghz")
    assert report.passed()
    assert report.incompleteness_verdict is True
    assert len(report.certified_claims) == 24  # 8 branches x 3 claims
    branch_checks = [c for c in report.checks if c.anchor.startswith("epr-ghz:branch")]
    assert len(branch_checks) == 8
    pair_checks = [c for c in report.checks if "no-common-eigenstate" in c.anchor]
    assert len(pair_checks) == 3


def test_run_bell_hardy_defaults():
    report = run_scenario("bell-hardy", DEFAULT)
    assert report.passed()
    assert report.contradiction_verdict is True
    assert report.post_selection_probability == pytest.approx(0.0625, abs=1e-12)
    zero_check = next(c for c in report.checks if c.anchor == "bell-hardy:zero-operator")
    assert zero_check.computed < 1e-12


def test_run_bell_ghz():
    report = run_scenario("bell-ghz")
    assert report.passed()
    assert report.contradiction_verdict is True
    identity_check = next(c for c in report.checks if c.anchor == "bell-ghz:b-product-identity")
    assert identity_check.computed < 1e-12
    certainty_check = next(c for c in report.checks if c.anchor == "bell-ghz:x-product-certainty")
    assert certainty_check.computed == pytest.approx(1.0, abs=1e-12)


def test_verdicts_invariant_over_random_parameters():
    rng = np.random.default_rng(77)
    for _ in range(100):
        params = random_psi_params(rng)
        assert run_scenario("epr-psi", params).incompleteness_verdict is True
        assert run_scenario("bell-hardy", params).contradiction_verdict is True


@pytest.mark.parametrize("scenario", ["epr-psi", "bell-hardy"])
def test_psi_verdict_false_beside_failing_check(scenario, monkeypatch):
    # a NaN post-selection probability fails its check, and the verdict with it
    monkeypatch.setattr("serlab.inference.outcome_probability", lambda state, assignment: float("nan"))
    report = run_scenario(scenario, DEFAULT)
    assert not report.passed()
    assert report.first_failure().anchor.endswith(":postselect")
    assert {report.incompleteness_verdict, report.contradiction_verdict} == {False, None}


def test_post_selection_check_is_relative(monkeypatch):
    # at |a|^2 = 1e-11 the bell-hardy post-selection probability is 2.5e-12, so an absolute bound of
    # 1e-12 would pass a value 20% off
    params = PsiParams(math.sqrt(1e-11), math.sqrt(1.0 - 3e-11))
    assert run_scenario("bell-hardy", params).passed()
    exact = inference.outcome_probability
    monkeypatch.setattr(inference, "outcome_probability", lambda state, assignment: 1.2 * exact(state, assignment))
    report = run_scenario("bell-hardy", params)
    assert [check.anchor for check in report.checks if not check.passed] == ["bell-hardy:postselect"]


def test_run_scenario_dispatch():
    assert run_scenario("epr-ghz").scenario == "epr-ghz"
    with pytest.raises(ValueError, match="unknown scenario 'nope'"):
        run_scenario("nope")
    with pytest.raises(ValueError, match="needs psi-family parameters"):
        run_scenario("bell-hardy")
    with pytest.raises(ValueError, match="needs psi-family parameters"):
        sample_scenario("epr-psi", trials=10)
    assert SCENARIOS == ("epr-psi", "epr-ghz", "bell-hardy", "bell-ghz")
    assert [name for name, spec in SCENARIO_TABLE.items() if spec.needs_params] == ["epr-psi", "bell-hardy"]


def test_every_identity_row_is_one_check_after_the_claims():
    assert [len(spec.identities) for spec in SCENARIO_TABLE.values()] == [2, 3, 1, 2]
    anchors = [row.anchor for spec in SCENARIO_TABLE.values() for row in spec.identities]
    assert len(set(anchors)) == len(anchors) == 8
    for name, spec in SCENARIO_TABLE.items():
        reported = [check.anchor for check in run_scenario(name, _params(name)).checks]
        rows = [f"{name}:{row.anchor}" for row in spec.identities]
        assert all(reported.count(anchor) == 1 for anchor in rows)
        assert reported[-len(rows) :] == rows
        claim_checks = reported[: -len(rows)]
        assert claim_checks and all(a.split(":")[1] in ("postselect", "certainty", "branch") for a in claim_checks)


# --- mutation sensitivity ------------------------------------------------------------


@pytest.mark.parametrize("scenario,n_claims", [("epr-psi", 3), ("bell-hardy", 3)])
def test_flipping_any_psi_claim_fails(scenario, n_claims):
    for k in range(n_claims):
        report = run_scenario(scenario, DEFAULT, flip_claim=k)
        assert not report.passed()
        flipped_cert = report.certified_claims[k][1]
        assert not flipped_cert
        assert flipped_cert.failed_clause == "not-certain"


def _counting_certify(monkeypatch) -> list:
    """Record each claim that ``run_scenario`` certifies from here on."""
    judged = []
    certify = inference.certify_ser

    def counting(state, claim):
        judged.append(claim)
        return certify(state, claim)

    monkeypatch.setattr(inference, "certify_ser", counting)
    return judged


@pytest.mark.parametrize("scenario", ["epr-ghz", "bell-ghz"])
def test_flipping_ghz_claims_fails(scenario, monkeypatch):
    # a flip fails its own branch only: its slot's three twins keep the shared claim and stay certified
    shared = [claim for claim, _ in run_scenario(scenario).certified_claims]
    judged = _counting_certify(monkeypatch)
    for k in range(24):
        report = run_scenario(scenario, flip_claim=k)
        assert not report.passed()
        twins = [i for i, claim in enumerate(shared) if claim is shared[k] and i != k]
        assert len(twins) == 3 and all(report.certified_claims[i][0] is shared[k] for i in twins)
        assert [bool(cert) for _, cert in report.certified_claims] == [i != k for i in range(24)]
        branches = [check.passed for check in report.checks if ":branch:" in check.anchor]
        assert branches == [b != k // 3 for b in range(8)]
    assert len(judged) == 24 * 7  # the flipped claim and the 6 shared ones, each once per run


def test_flip_claim_out_of_range():
    with pytest.raises(ValueError):
        run_scenario("epr-psi", DEFAULT, flip_claim=3)


@pytest.mark.parametrize("flip_claim", [True, 1.0])
def test_flip_claim_must_be_an_int(flip_claim):
    with pytest.raises(TypeError):
        run_scenario("epr-psi", DEFAULT, flip_claim=flip_claim)


# one false row of each kind that reads operators, on the epr-psi record under a temporary key
_FALSE_ROWS = [
    Identity(
        "no-common-eigenstate", "false-no-common-eigenstate",
        ((partial(spin, Axis.Z, 1, 3), None), (partial(spin, Axis.Z, 2, 3), None)),
        "no common eigenstate of {sigma_z(1), sigma_z(2)}",
    ),
    Identity(
        "zero-operator", "false-zero-operator",
        ((partial(spin, Axis.Z, 1, 3), -1.0), (partial(spin, Axis.Z, 2, 3), -1.0)),
        "projector product P(sigma_z(1)=-1) P(sigma_z(2)=-1) is the zero operator",
    ),
    Identity(
        "identity", "false-identity", tuple((partial(mermin_A, j), None) for j in (1, 2, 3)),
        "A_1 A_2 A_3 is the identity operator",
    ),
    Identity(
        "certain", "false-certainty", ((partial(spin_product, Axis.X, 3), -1.0),),
        "P(sigma_x(1) sigma_x(2) sigma_x(3) = -1) = 1 on the psi family",
    ),
]


@pytest.fixture
def false_scenario(monkeypatch):
    """A table key whose record is epr-psi's; its part is dropped from the shared memo afterwards."""
    name = "false-row"
    monkeypatch.setattr(cli, "_SCENARIO_CHOICES", (*cli._SCENARIO_CHOICES, name))
    yield name
    spin_module._SHARED.pop((inference._build_fixed_part, name), None)


@pytest.mark.parametrize("row", _FALSE_ROWS, ids=lambda row: row.kind)
def test_a_false_identity_row_fails_its_scenario(row, false_scenario, monkeypatch, capsys):
    monkeypatch.setitem(SCENARIO_TABLE, false_scenario, replace(SCENARIO_TABLE["epr-psi"], identities=(row,)))
    report = run_scenario(false_scenario, DEFAULT)
    assert [(check.anchor, check.passed) for check in report.checks[-1:]] == [(f"{false_scenario}:{row.anchor}", False)]
    assert report.first_failure().description == row.description
    assert report.incompleteness_verdict is False
    capsys.readouterr()
    assert run_command("verify", RunConfig(scenario=false_scenario)) == 1
    assert capsys.readouterr().err == f"FAIL: {row.description}\n"


def test_every_emitted_claim_recertifies():
    reports = [run_scenario(name, DEFAULT) for name in SCENARIOS]
    states = [psi_state(DEFAULT), ghz_mermin_state(), psi_state(DEFAULT), ghz_mermin_state()]
    for report, state in zip(reports, states):
        for claim, cert in report.certified_claims:
            assert bool(cert)
            assert bool(certify_ser(state, claim))


# --- one rule decides every check ------------------------------------------------------------


@st.composite
def psi_params(draw) -> PsiParams:
    """Random admissible (a, b): 3|a|^2 + |b|^2 = 1, ab != 0 and |a|^2 above the zero-probability tolerance."""
    mod_a_sq = draw(st.floats(SCALAR_TOL, 1.0 / 3.0, exclude_min=True, exclude_max=True))
    phase_a, phase_b = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    try:
        return PsiParams(cmath.rect(math.sqrt(mod_a_sq), phase_a), cmath.rect(math.sqrt(1.0 - 3.0 * mod_a_sq), phase_b))
    except ValueError:  # the rounding of sqrt and the phase may land on a bound
        reject()


def _flip_choices(scenario):
    return st.tuples(st.just(scenario), st.none() | st.integers(0, 2 if SCENARIO_TABLE[scenario].needs_params else 23))


@settings(max_examples=40)
@given(st.sampled_from(SCENARIOS).flatmap(_flip_choices), psi_params(), st.integers(0, 2**32))
def test_each_check_passes_by_its_deviation_and_bound(flip, params, seed):
    scenario, flip_claim = flip
    spec = SCENARIO_TABLE[scenario]
    params = params if spec.needs_params else None
    report = run_scenario(scenario, params, flip_claim=flip_claim)
    assert getattr(report, f"{spec.verdict}_verdict") == all(check.passed for check in report.checks)
    assert report.passed() == (flip_claim is None)
    certs = [cert for _, cert in report.certified_claims]
    assert all(cert.ok == (cert.miss <= CERTAINTY_TOL) for cert in certs)
    if spec.needs_params:
        claim_checks = [check for check in report.checks if ":certainty:" in check.anchor]
        assert [(check.passed, check.deviation) for check in claim_checks] == [(cert.ok, cert.miss) for cert in certs]
    else:
        branch_checks = [check for check in report.checks if ":branch:" in check.anchor]
        assert [check.passed for check in branch_checks] == [all(certs[3 * b : 3 * b + 3]) for b in range(8)]
    sampled = sample_scenario(scenario, params, seed=seed, trials=200).checks
    for check in sampled:
        if ":sampling:z:" in check.anchor:
            assert check.passed == (abs(check.computed) < Z_SCORE_LIMIT)
    for check in report.checks + sampled:
        if check.bound == 0.0:  # an equality check: no-common-eigenstate, pair caveat, hard count, product
            assert check.passed == (check.computed == check.expected)


def test_a_nan_deviation_fails_even_against_an_infinite_bound():
    assert not Check("d", "a", 0.0, math.nan, math.nan, math.inf).passed
    assert Check("d", "a", 0.0, math.inf, math.inf, math.inf).passed


def test_a_z_check_fails_at_the_limit_and_passes_one_ulp_below(monkeypatch):
    # p = 1/2 on every tuple and all 16 trials on the first: z = (1 - 1/2) / sqrt(1/4 / 16) = 4 exactly
    first = sample_scenario("epr-ghz", trials=1).sampling.entries[0].outcomes
    monkeypatch.setattr(inference, "outcome_probability", lambda state, assignment: 0.5)
    monkeypatch.setattr(inference, "sample_counts", lambda state, observables, seed, trials: {first: trials})
    check = sample_scenario("epr-ghz", trials=16).checks[0]
    assert (check.anchor, check.computed, check.passed) == ("epr-ghz:sampling:z:(-1,-1,-1)", Z_SCORE_LIMIT, False)
    below = math.nextafter(Z_SCORE_LIMIT, 0.0)
    assert check._replace(computed=below, deviation=below).passed


@pytest.mark.parametrize("entry, passed", [(EXACT_ENTRY_TOL, True), (math.nextafter(EXACT_ENTRY_TOL, 1.0), False)])
def test_an_identity_row_may_reach_the_entry_tolerance(entry, passed, false_scenario, monkeypatch):
    # the comparison Observable's Hermiticity test makes on the same tolerance
    near = np.eye(8)
    near[0, 1] = near[1, 0] = entry
    row = Identity("identity", "near-identity", ((partial(Observable, near, "N"), None),), "N is the identity operator")
    monkeypatch.setitem(SCENARIO_TABLE, false_scenario, replace(SCENARIO_TABLE["epr-psi"], identities=(row,)))
    check = run_scenario(false_scenario, DEFAULT).checks[-1]
    assert (check.deviation, check.bound, check.passed) == (entry, EXACT_ENTRY_TOL, passed)
    near[1, 0] = 0.0  # a Hermiticity deviation of ``entry``
    if passed:
        Observable(near)
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            Observable(near)


# --- what a run builds once ------------------------------------------------------------


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_flipped_runs_leave_the_shared_claims_untouched(scenario):
    def claims(flip_claim=None):
        return [claim for claim, _ in run_scenario(scenario, _params(scenario), flip_claim=flip_claim).certified_claims]

    argv = ["verify", "--scenario", scenario, "--format", "json"]
    first = _cli(argv)
    shared = claims()
    assert first[0] == 0 and all(a is b for a, b in zip(claims(), shared))
    for k in range(len(shared)):
        assert _cli([*argv, "--flip-claim", str(k)])[0] == 1
        assert _cli(argv) == first  # an unflipped run after a flipped one writes the same bytes and exit code
        flipped = claims(k)
        assert [a is b for a, b in zip(flipped, shared)] == [i != k for i in range(len(shared))]
    assert all(a is b for a, b in zip(claims(), shared))


@pytest.mark.parametrize("scenario", GHZ_SCENARIOS)
def test_changing_a_returned_ghz_report_leaves_the_next_one_alone(scenario):
    verdict = f"{SCENARIO_TABLE[scenario].verdict}_verdict"
    first = run_scenario(scenario)
    checks, certified = list(first.checks), list(first.certified_claims)
    setattr(first, verdict, False)
    first.checks.append(first.checks[0])
    first.checks[0] = first.checks[0]._replace(deviation=math.nan)
    first.certified_claims.append(first.certified_claims[0])
    first.certified_claims[1] = first.certified_claims[0]
    assert not first.passed()
    second = run_scenario(scenario)
    assert second.checks is not first.checks and second.certified_claims is not first.certified_claims
    assert second.checks == checks and second.passed() and getattr(second, verdict) is True
    assert [(id(claim), cert) for claim, cert in second.certified_claims] == [
        (id(claim), cert) for claim, cert in certified
    ]


def test_replaced_claim_recomputes_its_clauses():
    state = psi_state(DEFAULT)
    claim = SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)]), {1}, {2})
    assert certify_ser(state, claim)
    variants = {
        "region-overlap": replace(claim, target_region=frozenset({1, 2})),
        "conditioning-not-local": replace(claim, inferring_region=frozenset({3})),
        "incompatible-target": replace(claim, observable=spin(Axis.X, 1, 3)),
        "not-certain": replace(claim, predicted_value=1.0),
    }
    for clause, variant in variants.items():
        assert certify_ser(state, variant).failed_clause == clause
    assert certify_ser(state, claim) and certify_ser(state, claim).failed_clause is None


def test_one_claim_is_judged_afresh_on_each_state():
    claim = SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)]), {1}, {2})
    for _ in range(2):
        assert certify_ser(psi_state(DEFAULT), claim)
        assert certify_ser(ghz_mermin_state(), claim).failed_clause == "not-certain"  # misses with probability 1/2


def test_user_claim_and_its_memo_are_freed_together():
    observable = Observable(spin(Axis.X, 2, 3).matrix, label="sigma_x(2) by hand")
    claim = SerClaim(observable, -1.0, OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)]), {3}, {2})
    verdict = certify_ser(psi_state(DEFAULT), claim)
    assert verdict.failed_clause == "conditioning-not-local"
    assert certify_ser(psi_state(DEFAULT), claim) is verdict  # the claim holds it
    refs = [weakref.ref(obj) for obj in (claim, verdict, observable)]
    del claim, verdict, observable
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_nonlocal_second_pair_fails_after_honest_claims():
    for name in SCENARIOS:
        assert run_scenario(name, _params(name)).passed()
    sz1, sz3 = spin(Axis.Z, 1, 3), spin(Axis.Z, 3, 3)
    for pairs in ([(sz1, +1.0), (sz3, +1.0)], [(sz3, +1.0), (sz1, +1.0)]):
        claim = SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment(pairs), {1}, {2})
        cert = certify_ser(psi_state(DEFAULT), claim)
        assert (cert.ok, cert.failed_clause) == (False, "conditioning-not-local")


def _part(scenario):
    """The scenario's state-free part, from the shared memo."""
    return inference._shared(inference._build_fixed_part, scenario)


def test_verify_certifies_each_distinct_claim_once(monkeypatch):
    argv = ["verify", "--scenario", "all", "--format", "json"]
    monkeypatch.setattr(spin_module, "_SHARED", {})
    judged = _counting_certify(monkeypatch)
    cold = _cli(argv)
    assert cold[0] == 0
    # building epr-psi's part certifies the claim of its pair-caveat row, on a 4x4 observable of its own
    caveat = [claim for claim in judged if claim.observable is hardy_projector(2)]
    claims = [claim for claim in judged if claim.observable is not hardy_projector(2)]
    assert len(caveat) == 1
    assert len(claims) == 18  # 3 per post-selected scenario; per GHZ scenario one per (k, eps_k), not 24
    assert len({id(claim) for claim in claims}) == 18

    judged.clear()
    assert _cli(argv) == cold
    # the CLI keeps the GHZ reports from the cold run, so only the psi family's 6 claims are certified again
    psi = [claim for name in SCENARIOS if SCENARIO_TABLE[name].needs_params for claim in _part(name).claims]
    assert [id(claim) for claim in judged] == [id(claim) for claim in psi] and len(psi) == 6

    for scenario in GHZ_SCENARIOS:  # a flipped run certifies afresh: its flipped claim and the 6 shared ones
        shared = {id(claim) for claim in _part(scenario).claims}
        judged.clear()
        assert _cli(["verify", "--scenario", scenario, "--flip-claim", "5"])[0] == 1
        fresh = [claim for claim in judged if id(claim) not in shared]
        assert len(judged) == 7 and len(shared) == 6 and len(fresh) == 1
        assert fresh[0].predicted_value == -_part(scenario).claims[5].predicted_value


@pytest.mark.parametrize("scenario", GHZ_SCENARIOS)
def test_warm_ghz_runs_certify_their_claims_on_every_call(scenario, monkeypatch):
    cold = run_scenario(scenario)
    judged = _counting_certify(monkeypatch)
    for _ in range(3):  # the library keeps no report: each call certifies the 6 distinct claims afresh
        judged.clear()
        report = run_scenario(scenario)
        assert len(judged) == len({id(claim) for claim in judged}) == 6
        assert report.checks == cold.checks and report is not cold


@pytest.mark.parametrize("flip", [None, 0, 1, 2])
@pytest.mark.parametrize("scenario", [name for name in SCENARIOS if SCENARIO_TABLE[name].needs_params])
def test_claim_check_texts_follow_each_slots_own_claim(scenario, flip):
    report = run_scenario(scenario, DEFAULT, flip_claim=flip)
    post = SCENARIO_TABLE[scenario].post_selection
    (postselect,) = [check for check in report.checks if check.anchor == f"{scenario}:postselect"]
    assert postselect.description == f"post-selection probability P({report.post_selection.describe()}) = {post.text}"
    checks = [check for check in report.checks if check.anchor.startswith(f"{scenario}:certainty:")]
    assert len(checks) == len(report.certified_claims) == 3
    for check, (claim, cert) in zip(checks, report.certified_claims):
        detail = "" if cert.ok else f" [{cert.failed_clause}: {cert.detail}]"
        assert check.description == f"certified SER {claim.describe()}{detail}"
        assert check.anchor == f"{scenario}:certainty:{claim.observable.label}"
    assert [cert.ok for _, cert in report.certified_claims] == [k != flip for k in range(3)]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_certified_claims_keep_one_slot_per_branch_and_target(scenario):
    spec = SCENARIO_TABLE[scenario]
    if spec.needs_params:  # +1 on every measured spin, the post-selection's predicted values
        slots = [((+1.0, +1.0, +1.0), spec.post_selection.predicted)]
    else:  # branch b measures and predicts its signs, branches in --flip-claim order
        slots = [(eps, eps) for eps in itertools.product((+1.0, -1.0), repeat=3)]
    expected = [
        (spec.targets[k](), values[k], ((spec.measured[k](), given[k]),)) for given, values in slots for k in range(3)
    ]
    report = run_scenario(scenario, _params(scenario))
    got = [(claim.observable, claim.predicted_value, claim.conditioning.pairs) for claim, _ in report.certified_claims]
    assert got == expected and all(cert.ok for _, cert in report.certified_claims)
    assert len({id(claim) for claim, _ in report.certified_claims}) == (3 if spec.needs_params else 6)


def _parts() -> int:
    """The scenario parts held in the shared memo."""
    return sum(isinstance(value, inference._FixedPart) for value in spin_module._SHARED.values())


def test_flip_runs_keep_memory_bounded():
    # a flipped claim is the only claim a run builds; none may outlive its report
    n_claims = {name: len(run_scenario(name, _params(name)).certified_claims) for name in SCENARIOS}

    def flips(n):
        for k in range(n):
            name = SCENARIOS[k % len(SCENARIOS)]
            assert not run_scenario(name, _params(name), flip_claim=(k // len(SCENARIOS)) % n_claims[name]).passed()

    flips(200)  # every flip index once
    assert _parts() == len(SCENARIOS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flips(500)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _parts() == len(SCENARIOS)
    assert growth < 16 * 1024  # 32 B per flip; keeping each flipped claim alive read about 100 kB


def test_threads_racing_on_first_runs_share_one_part(monkeypatch):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(k):
        barrier.wait(timeout=10)
        results[k] = [run_scenario(name, _params(name)) for name in SCENARIOS]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert _parts() == len(SCENARIOS)
    for other in results[1:]:
        for report, first in zip(other, results[0]):
            assert all(a is b for (a, _), (b, _) in zip(report.certified_claims, first.certified_claims))
            assert report.checks == first.checks
            # every call builds a report of its own, with lists of its own
            assert report.checks is not first.checks and report.certified_claims is not first.certified_claims
    assert all(report.passed() for report in results[0])


# --- metamorphic: local unitaries --------------------------------------------------------


def _oracle_miss(amplitudes, claim) -> float:
    """P(target != predicted | conditioning) from joint eigenbases, or None when the conditioning has
    probability ~0 or the target does not commute with it."""
    given = [obs.matrix for obs, _ in claim.conditioning.pairs]
    values = [value for _, value in claim.conditioning.pairs]
    target = claim.observable.matrix
    if any(np.abs(g @ target - target @ g).max() > 1e-9 for g in given):
        return None
    p_given = joint_probability(amplitudes, given, values) if given else 1.0
    if p_given < 1e-9:
        return None
    others = [v for v in distinct_eigenvalues(target) if abs(v - claim.predicted_value) > 1e-6]
    return sum(joint_probability(amplitudes, [*given, target], [*values, v]) for v in others) / p_given


def _conjugated(claim, u):
    def conj(obs):
        return Observable(u @ obs.matrix @ u.conj().T, label=obs.label)

    given = OutcomeAssignment([(conj(obs), value) for obs, value in claim.conditioning.pairs], dim=claim.conditioning.dim)
    return SerClaim(conj(claim.observable), claim.predicted_value, given, claim.inferring_region, claim.target_region)


def _hand_built_claims():
    sz1, sz2, sz3 = (spin(Axis.Z, p, 3) for p in (1, 2, 3))
    return [
        SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment([(sz1, +1.0)]), {1, 2}, {2}),  # region-overlap
        SerClaim(spin(Axis.X, 2, 3), -1.0, OutcomeAssignment([(sz1, +1.0), (sz3, +1.0)]), {1}, {2}),  # not local
        SerClaim(spin(Axis.X, 1, 3), +1.0, OutcomeAssignment([(sz1, +1.0)]), {1}, {2}),  # incompatible
        SerClaim(sz3, +1.0, OutcomeAssignment([(sz1, +1.0), (sz2, -1.0)]), {1, 2}, {3}),  # unpreparable on GHZ
    ]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_unitaries_keep_every_verdict(scenario, seed):
    # U1 x U2 x U3 maps each particle's operators to that particle, so regions, locality, commutation
    # and every conditional probability stay the same
    rng = np.random.default_rng(seed)
    u = reduce(np.kron, [random_unitary(rng, 2) for _ in range(3)])
    state = _state(scenario)
    moved = StateVector(u @ state.amplitudes)
    n = len(run_scenario(scenario, _params(scenario)).certified_claims)
    claims = [claim for claim, _ in run_scenario(scenario, _params(scenario)).certified_claims]
    claims += [run_scenario(scenario, _params(scenario), flip_claim=k).certified_claims[k][0] for k in (0, n - 1)]
    claims += _hand_built_claims()
    clauses = set()
    for claim in claims:
        before, after = certify_ser(state, claim), certify_ser(moved, _conjugated(claim, u))
        assert (after.ok, after.failed_clause) == (before.ok, before.failed_clause), claim.describe()
        clauses.add(before.failed_clause)
        miss = _oracle_miss(state.amplitudes, claim)
        if miss is not None:
            assert abs(_oracle_miss(moved.amplitudes, _conjugated(claim, u)) - miss) <= 1e-12
            if before.failed_clause in (None, "not-certain"):
                assert (miss <= 1e-12) == before.ok
    assert None in clauses and "not-certain" in clauses


def _permuted(perm):
    """The relabelling that moves particle ``perm[k] + 1`` to particle ``k + 1``: on states, operators and regions."""
    n = len(perm)
    new_place = {old + 1: new + 1 for new, old in enumerate(perm)}

    def state(amplitudes):
        return StateVector(amplitudes.reshape((2,) * n).transpose(perm).reshape(-1))

    def obs(o):
        axes = list(perm) + [n + p for p in perm]
        return Observable(o.matrix.reshape((2,) * 2 * n).transpose(axes).reshape(2**n, 2**n), label=o.label)

    def claim(c):
        given = OutcomeAssignment([(obs(g), value) for g, value in c.conditioning.pairs], dim=c.conditioning.dim)
        regions = [{new_place[p] for p in region} for region in (c.inferring_region, c.target_region)]
        return SerClaim(obs(c.observable), c.predicted_value, given, *regions)

    return state, obs, claim


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_particle_permutations_keep_every_verdict(scenario, perm):
    # relabelling the particles moves each operator, state and region alike, so no verdict can change
    permute_state, permute_obs, permute_claim = _permuted(perm)
    state = _state(scenario)
    moved = permute_state(state.amplitudes)
    claims = [claim for claim, _ in run_scenario(scenario, _params(scenario)).certified_claims]
    targets = list({claim.observable.label: claim.observable for claim in claims}.values())
    assert has_common_eigenstate([permute_obs(o) for o in targets]) == has_common_eigenstate(targets)
    claims.append(run_scenario(scenario, _params(scenario), flip_claim=0).certified_claims[0][0])
    clauses = set()
    for claim in claims:
        before, after = certify_ser(state, claim), certify_ser(moved, permute_claim(claim))
        assert (after.ok, after.failed_clause) == (before.ok, before.failed_clause), claim.describe()
        clauses.add(before.failed_clause)
        miss = _oracle_miss(state.amplitudes, claim)
        if miss is not None:
            assert abs(_oracle_miss(moved.amplitudes, permute_claim(claim)) - miss) <= 1e-12
    assert None in clauses and "not-certain" in clauses


# --- Monte Carlo companions ------------------------------------------------------------


def test_sample_scenario_bell_ghz_hard_constraint():
    report = sample_scenario("bell-ghz", seed=7, trials=20_000)
    assert report.passed()
    product_check = next(c for c in report.checks if "product-constraint" in c.anchor)
    assert product_check.computed == 0
    assert report.sampling.unobserved_admissible == []
    assert report.sampling.algorithm == "pcg64dxsm"


def test_sample_scenario_epr_ghz_covers_all_branches():
    report = sample_scenario("epr-ghz", seed=11, trials=20_000)
    assert report.passed()
    assert report.sampling.unobserved_admissible == []
    # all 8 sigma_y branches carry probability 1/8
    for entry in report.sampling.entries:
        assert entry.expected == pytest.approx(0.125, abs=1e-12)


def test_sample_scenario_epr_psi_z_scores():
    report = sample_scenario("epr-psi", DEFAULT, seed=13, trials=20_000)
    assert report.passed()
    zs = [e.z for e in report.sampling.entries if e.z is not None]
    assert len(zs) == 4
    assert all(abs(z) < 4 for z in zs)


def test_hardy_null_outcome_scan_small():
    hits = hardy_null_outcome_scan(seed=5, n_states=5, trials=20_000)
    assert hits == [0, 0, 0, 0, 0]
    assert hardy_null_outcome_scan(seed=5, n_states=1, trials=1000) == [0]  # the smallest scan


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"n_states": True}, TypeError),
        ({"n_states": 2.0}, TypeError),
        ({"seed": True}, TypeError),
        ({"seed": 1.5}, TypeError),
        ({"n_states": 0}, ValueError),
        ({"n_states": -1}, ValueError),
        ({"seed": -1}, ValueError),
    ],
    ids=[
        "n_states-bool", "n_states-float", "seed-bool", "seed-float", "n_states-zero", "n_states-negative",
        "seed-negative",
    ],
)
def test_hardy_null_outcome_scan_applies_the_integer_rule(kwargs, error):
    match = next(iter(kwargs)) if error is ValueError else None  # serlab's own message names the argument
    with pytest.raises(error, match=match):
        hardy_null_outcome_scan(**{"trials": 10} | kwargs)
