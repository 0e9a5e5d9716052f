"""Tests of the benchmark's reference and checks (no serlab needed).

    python3 -m pytest serbench/test_reference.py

The reference is tested against closed forms; the checks are tested on
hand-made outputs, right and deliberately wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, Op, draw_amplitudes, flipped_anchor  # noqa: E402

TUPLES = list(itertools.product((-1.0, 1.0), repeat=3))


def amplitudes(seed):
    return draw_amplitudes(np.random.default_rng(seed))


def test_eigenbases_are_pauli_eigenvectors():
    for axis, basis in reference.EIGENBASES.items():
        for column, value in zip(basis.T, reference.VALUES):
            assert np.allclose(reference.PAULI[axis] @ column, value * column, atol=1e-15)
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-15)


def test_ghz_sigma_y_outcomes_are_uniform():
    table = reference.born_table(reference.ghz_amplitudes(), ("y", "y", "y"))
    assert set(table) == set(TUPLES)
    assert all(abs(p - 1 / 8) <= 1e-15 for p in table.values())


def test_bell_ghz_x_outcomes_quarter_with_product_minus_one():
    table = reference.plan_table("bell-ghz")
    for outcome, p in table.items():
        assert abs(p - (0.25 if math.prod(outcome) == -1 else 0.0)) <= 1e-15
    assert abs(reference.x_product_minus_probability() - 1.0) <= 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_post_selection_probabilities(seed):
    a, b = amplitudes(seed)
    assert abs(reference.post_selection_probability("epr-psi", a, b) - abs(a) ** 2) <= 1e-15
    assert abs(reference.post_selection_probability("bell-hardy", a, b) - abs(a) ** 2 / 4) <= 1e-15
    for scenario in reference.SCENARIOS:
        assert abs(sum(reference.plan_table(scenario, a, b).values()) - 1.0) <= 1e-14


def test_operator_identities():
    assert reference.hardy_zero_operator_norm() == 0.0
    assert reference.mermin_identity_deviation() == 0.0


def test_multinomial_test_accepts_expected_and_rejects_swapped_counts():
    probs = reference.plan_table("epr-ghz")
    honest = {t: 125 for t in TUPLES}
    assert reference.multinomial_log_tail(honest, probs, 1000) > -1e-9
    skewed = {**honest, TUPLES[0]: 250, TUPLES[1]: 0}
    assert reference.multinomial_log_tail(skewed, probs, 1000) < checks.LOG_ALPHA_PER_OP


def sample_output(op, counts, rc=0):
    """A sample report in the program's JSON layout, with exact expected values."""
    probs = reference.plan_table(op.scenario, op.a, op.b)
    entries, report_checks = [], []
    for t in TUPLES:
        p = probs[t]
        count = counts.get(t, 0)
        z = None
        if 0.0 < p < 1.0 and p > reference.BORN_ZERO:
            z = (count / op.trials - p) / math.sqrt(p * (1 - p) / op.trials)
            report_checks.append({"anchor": f"{op.scenario}:sampling:z:{t}", "computed": z, "pass": abs(z) < 4})
        else:
            report_checks.append({"anchor": f"{op.scenario}:sampling:hard:{t}", "computed": count, "pass": True})
        entries.append({"outcomes": list(t), "expected": p, "count": count, "frequency": count / op.trials, "z": z})
    return json.dumps(
        {
            "scenario": op.scenario,
            "checks": report_checks,
            "sampling": {"trials": op.trials, "seed": op.seed, "frequencies": entries},
        }
    )


def expected_counts(op):
    probs = reference.plan_table(op.scenario, op.a, op.b)
    counts = {t: round(p * op.trials) for t, p in probs.items()}
    counts[max(probs, key=probs.get)] += op.trials - sum(counts.values())
    return counts


@pytest.mark.parametrize("scenario", reference.SCENARIOS)
def test_check_sample_accepts_right_and_rejects_wrong_counts(scenario):
    a, b = amplitudes(3)
    op = Op("sample", scenario, a, b, seed=7, trials=100_000)
    counts = expected_counts(op)
    assert checks.check_sample(op, 0, sample_output(op, counts)) == ([], 0)
    # one count moved onto a Born-zero or product-violating tuple, or counts lost
    probs = reference.plan_table(scenario, a, b)
    zero = [t for t in TUPLES if probs[t] <= reference.BORN_ZERO]
    donor = max(probs, key=probs.get)
    if zero:
        moved = {**counts, zero[0]: 1, donor: counts[donor] - 1}
        assert checks.check_sample(op, 0, sample_output(op, moved))[0]
    short = {**counts, donor: counts[donor] - 1}
    assert checks.check_sample(op, 0, sample_output(op, short))[0]
    # a report that passes every check but exits 1
    assert checks.check_sample(op, 1, sample_output(op, counts))[0]


def verify_output(op, *, flip_anchor=None, postselect_error=0.0):
    reports = []
    for scenario in reference.SCENARIOS if op.kind == "verify" else (op.scenario,):
        anchors = [f"{scenario}:certainty:x", f"{scenario}:branch:+1,+1,+1"]
        values = {}
        if scenario in reference.PSI_SCENARIOS:
            values[f"{scenario}:postselect"] = reference.post_selection_probability(scenario, op.a, op.b)
        if scenario == "bell-hardy":
            values["bell-hardy:zero-operator"] = 0.0
        if scenario == "bell-ghz":
            values["bell-ghz:x-product-certainty"] = 1.0
            values["bell-ghz:b-product-identity"] = 0.0
        report_checks = [{"anchor": a, "pass": a != flip_anchor} for a in anchors]
        report_checks += [
            {"anchor": a, "expected": v, "computed": v + postselect_error * a.endswith("postselect"), "pass": True}
            for a, v in values.items()
        ]
        if flip_anchor:
            report_checks.append({"anchor": flip_anchor, "pass": False})
        params = None
        if scenario in reference.PSI_SCENARIOS:
            params = {"a_re": op.a.real, "a_im": op.a.imag, "b_re": op.b.real, "b_im": op.b.imag}
        verdict = {checks.VERDICT[scenario]: flip_anchor is None}
        reports.append({"scenario": scenario, "parameters": params, "checks": report_checks, "verdicts": verdict})
    return json.dumps(reports if op.kind == "verify" else reports[0])


def test_check_verify():
    a, b = amplitudes(5)
    op = Op("verify", "all", a, b)
    assert checks.check_verify(op, 0, verify_output(op)) == []
    assert checks.check_verify(op, 0, verify_output(op, postselect_error=1e-9))
    assert checks.check_verify(op, 1, verify_output(op))


@pytest.mark.parametrize("scenario,index", [("epr-psi", 2), ("epr-ghz", 7), ("bell-hardy", 0), ("bell-ghz", 23)])
def test_check_flip(scenario, index):
    a, b = amplitudes(6)
    op = Op("flip", scenario, a, b, flip=index)
    anchor = flipped_anchor(scenario, index)
    assert checks.check_flip(op, 1, verify_output(op, flip_anchor=anchor)) == []
    assert checks.check_flip(op, 0, verify_output(op, flip_anchor=anchor))
    assert checks.check_flip(op, 1, verify_output(op, flip_anchor=f"{scenario}:certainty:wrong"))


def test_flipped_anchors_follow_claim_order():
    assert flipped_anchor("epr-psi", 0) == "epr-psi:certainty:sigma_x(2)"
    assert flipped_anchor("bell-hardy", 2) == "bell-hardy:certainty:pi(1+2)"
    assert flipped_anchor("epr-ghz", 0) == "epr-ghz:branch:+1,+1,+1"
    assert flipped_anchor("bell-ghz", 23) == "bell-ghz:branch:-1,-1,-1"


def test_workload_ops_depend_only_on_seed_and_position():
    for workload in WORKLOADS.values():
        ops = [workload.op(4, 1, i) for i in range(2 * len(workload.round))]
        assert ops == [workload.op(4, 1, i) for i in range(2 * len(workload.round))]
        assert ops != [workload.op(5, 1, i) for i in range(2 * len(workload.round))]
        assert ops[0].kind != "joint"
        for op in ops:
            if op.kind != "joint":
                assert op.argv()[-2:] == ["--format", "json"]


class _State:
    def __init__(self, amplitudes):
        self.amplitudes = amplitudes


class _Record:
    def __init__(self, trial, outcomes, amplitudes):
        self.trial = trial
        self.outcomes = outcomes
        self.post_state = _State(amplitudes)


def joint_records(op, trials, seed=0):
    """Records drawn from the reference: product-eigenvector post-states."""
    axes, _ = reference.PLANS[op.scenario]
    table = reference.plan_table(op.scenario, op.a, op.b)
    outcomes = list(table)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(outcomes), size=trials, p=np.array([table[t] for t in outcomes]))
    records = []
    for trial, pick in enumerate(picks):
        values = outcomes[pick]
        vecs = [reference.EIGENBASES[axis][:, reference.VALUES.index(v)] for axis, v in zip(axes, values)]
        post = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
        labels = [f"sigma_{axis}({p})" for p, axis in enumerate(axes, 1)]
        records.append(_Record(trial, tuple(zip(labels, values)), post))
    return records


@pytest.mark.parametrize("scenario", reference.SCENARIOS)
def test_check_joint(scenario):
    a, b = amplitudes(8)
    op = Op("joint", scenario, a, b, seed=1, trials=400)
    axes, _ = reference.PLANS[scenario]
    matrices = [reference.embedded(axis, p) for p, axis in enumerate(axes, 1)]
    doubled = joint_records(op, 2 * op.trials)
    records = doubled[: op.trials]
    counts = Counter(tuple(v for _, v in r.outcomes) for r in records)
    assert checks.check_joint(op, records, matrices, counts, doubled) == []
    # a recorded eigenvalue that does not match the post-state
    bad = list(records)
    label, value = bad[0].outcomes[0]
    bad[0] = _Record(0, ((label, -value),) + bad[0].outcomes[1:], bad[0].post_state.amplitudes)
    assert checks.check_joint(op, bad, matrices, counts, doubled)
    # counts at the same seed that disagree, and a 2N call with another prefix
    other = Counter(counts)
    other[next(iter(other))] += 1
    assert checks.check_joint(op, records, matrices, other, doubled)
    assert checks.check_joint(op, records, matrices, counts, joint_records(op, 2 * op.trials, seed=1))
