"""Tests for SER certification and the four scenarios of the scenario table."""

import math

import numpy as np
import pytest

from serlab import inference
from serlab.inference import (
    SCENARIO_TABLE,
    SCENARIOS,
    SerClaim,
    certify_ser,
    hardy_null_outcome_scan,
    run_scenario,
    sample_scenario,
)
from serlab.hilbert import Observable
from serlab.measurement import OutcomeAssignment, collapse
from serlab.spin import Axis, embed, hardy_projector, mermin_A, pauli, spin
from serlab.states import PsiParams, ghz_mermin_state, hardy_state, psi_state

from oracles import random_psi_params

DEFAULT = PsiParams(0.5, 0.5)


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


# --- mutation sensitivity ------------------------------------------------------------


@pytest.mark.parametrize("scenario,n_claims", [("epr-psi", 3), ("bell-hardy", 3)])
def test_flipping_any_psi_claim_fails(scenario, n_claims):
    for k in range(n_claims):
        report = run_scenario(scenario, DEFAULT, flip_claim=k)
        assert not report.passed()
        flipped_cert = report.certified_claims[k][1]
        assert not flipped_cert
        assert flipped_cert.failed_clause == "not-certain"


@pytest.mark.parametrize("scenario", ["epr-ghz", "bell-ghz"])
def test_flipping_ghz_claims_fails(scenario):
    for k in (0, 7, 23):
        report = run_scenario(scenario, flip_claim=k)
        assert not report.passed()
        assert not report.certified_claims[k][1]


def test_flip_claim_out_of_range():
    with pytest.raises(ValueError):
        run_scenario("epr-psi", DEFAULT, flip_claim=3)


@pytest.mark.parametrize("flip_claim", [True, 1.0])
def test_flip_claim_must_be_an_int(flip_claim):
    with pytest.raises(TypeError):
        run_scenario("epr-psi", DEFAULT, flip_claim=flip_claim)


def test_every_emitted_claim_recertifies():
    reports = [run_scenario(name, DEFAULT) for name in SCENARIOS]
    states = [psi_state(DEFAULT), ghz_mermin_state(), psi_state(DEFAULT), ghz_mermin_state()]
    for report, state in zip(reports, states):
        for claim, cert in report.certified_claims:
            assert bool(cert)
            assert bool(certify_ser(state, claim))


# --- Monte Carlo companions ------------------------------------------------------------


def test_sample_scenario_bell_ghz_hard_constraint():
    report = sample_scenario("bell-ghz", seed=7, trials=20_000)
    assert report.passed()
    product_check = next(c for c in report.checks if "product-constraint" in c.anchor)
    assert product_check.computed == 0
    assert report.sampling.unobserved_admissible == []
    assert report.sampling.algorithm == "philox4x64"


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
    ],
    ids=["n_states-bool", "n_states-float", "seed-bool", "seed-float", "n_states-zero", "n_states-negative"],
)
def test_hardy_null_outcome_scan_applies_the_integer_rule(kwargs, error):
    with pytest.raises(error):
        hardy_null_outcome_scan(**{"trials": 10} | kwargs)
