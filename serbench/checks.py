"""Per-op output checks, run outside the timed interval.

Each check returns a list of problems (empty when the output is right).  The
expected values come from the independent reference in ``reference.py`` or
from properties the method must have, never from stored program output.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

import reference
from reference import BORN_ZERO, PLANS, PSI_SCENARIOS, SCENARIOS
from workloads import Op, flipped_anchor

VALUE_TOL = 1e-12
EIGEN_TOL = 1e-10
Z_LIMIT = 4.0  # the program's own per-tuple calibration limit
# Chance per op that an honest sample fails the multinomial test: 1e-12.
# Over 10^6 ops that is a family-wise false-alarm rate of 1e-6.
LOG_ALPHA_PER_OP = math.log(1e-12)

VERDICT = {
    "epr-psi": "incompleteness",
    "epr-ghz": "incompleteness",
    "bell-hardy": "contradiction",
    "bell-ghz": "contradiction",
}


def _near(computed, expected, what: str, problems: list) -> None:
    if not isinstance(computed, (int, float)) or not abs(computed - expected) <= VALUE_TOL:
        problems.append(f"{what}: computed {computed!r}, reference {expected!r}")


def _exit_code_matches(rc: int, checks: list, problems: list) -> None:
    all_pass = all(c["pass"] is True for c in checks)
    if (rc == 0) != all_pass:
        problems.append(f"exit code {rc} but every check passing is {all_pass}")


def _parameters_match(report: dict, op: Op, problems: list) -> None:
    if report["scenario"] not in PSI_SCENARIOS:
        return
    expected = {"a_re": op.a.real, "a_im": op.a.imag, "b_re": op.b.real, "b_im": op.b.imag}
    if report["parameters"] != expected:
        problems.append(f"{report['scenario']}: parameters {report['parameters']} != input {expected}")


def _analytic_values(report: dict, op: Op, problems: list) -> None:
    """Post-selection values and operator identities against the reference."""
    anchors = {c["anchor"]: c for c in report["checks"]}
    scenario = report["scenario"]
    expected = {}
    if scenario in PSI_SCENARIOS:
        expected[f"{scenario}:postselect"] = reference.post_selection_probability(scenario, op.a, op.b)
    if scenario == "bell-hardy":
        expected["bell-hardy:zero-operator"] = reference.hardy_zero_operator_norm()
    if scenario == "bell-ghz":
        expected["bell-ghz:x-product-certainty"] = reference.x_product_minus_probability()
        expected["bell-ghz:b-product-identity"] = reference.mermin_identity_deviation()
    for anchor, value in expected.items():
        if anchor not in anchors:
            problems.append(f"missing check {anchor}")
            continue
        _near(anchors[anchor]["computed"], value, anchor, problems)
        if anchor.endswith(":postselect"):
            _near(anchors[anchor]["expected"], value, f"{anchor} expected", problems)


def check_verify(op: Op, rc: int, stdout: str) -> list[str]:
    """verify --scenario all: every check passes, values match, both verdicts true."""
    problems: list[str] = []
    reports = json.loads(stdout)
    if not isinstance(reports, list) or [r["scenario"] for r in reports] != list(SCENARIOS):
        return [f"expected one report per scenario {SCENARIOS}"]
    checks = [c for r in reports for c in r["checks"]]
    _exit_code_matches(rc, checks, problems)
    failing = [c["anchor"] for c in checks if c["pass"] is not True]
    if failing or rc != 0:
        problems.append(f"exit code {rc}, failing checks {failing}")
    for report in reports:
        _parameters_match(report, op, problems)
        _analytic_values(report, op, problems)
        verdict = report["verdicts"][VERDICT[report["scenario"]]]
        if verdict is not True:
            problems.append(f"{report['scenario']}: {VERDICT[report['scenario']]} verdict is {verdict!r}")
    return problems


def check_flip(op: Op, rc: int, stdout: str) -> list[str]:
    """verify --flip-claim N: exit 1, only the flipped claim's anchor fails, verdict false."""
    problems: list[str] = []
    report = json.loads(stdout)
    if not isinstance(report, dict) or report["scenario"] != op.scenario:
        return [f"expected a single {op.scenario} report"]
    _exit_code_matches(rc, report["checks"], problems)
    if rc != 1:
        problems.append(f"flip-claim exited {rc}, not 1")
    failing = [c["anchor"] for c in report["checks"] if c["pass"] is not True]
    expected = flipped_anchor(op.scenario, op.flip)
    if failing != [expected]:
        problems.append(f"failing checks {failing}, expected exactly [{expected!r}]")
    verdict = report["verdicts"][VERDICT[op.scenario]]
    if verdict is not False:
        problems.append(f"flipped {op.scenario}: verdict is {verdict!r}, not false")
    _parameters_match(report, op, problems)
    _analytic_values(report, op, problems)
    return problems


def _sign_tuple(values) -> tuple[float, ...] | None:
    out = []
    for v in values:
        if abs(abs(v) - 1.0) > 1e-8:
            return None
        out.append(math.copysign(1.0, v))
    return tuple(out)


def check_counts(counts: dict, probs: dict, trials: int, scenario: str) -> list[str]:
    """Checks every sampled count table must pass, however it was produced."""
    problems: list[str] = []
    if set(counts) - set(probs):
        problems.append(f"outcomes {sorted(set(counts) - set(probs))} outside the measured spectra")
    if sum(counts.values()) != trials:
        problems.append(f"counts sum to {sum(counts.values())}, not {trials}")
    _, product = PLANS[scenario]
    for outcome, p in probs.items():
        count = counts.get(outcome, 0)
        if p <= BORN_ZERO and count:
            problems.append(f"Born-zero outcome {outcome} counted {count} times")
        if product is not None and math.prod(outcome) != product and count:
            problems.append(f"outcome {outcome} violates the product {product:+g} {count} times")
    log_tail = reference.multinomial_log_tail(counts, probs, trials)
    if log_tail < LOG_ALPHA_PER_OP - math.log(2 * len(probs)):
        problems.append(f"counts fail the multinomial test (log tail bound {log_tail:.1f})")
    return problems


def check_sample(op: Op, rc: int, stdout: str) -> tuple[list[str], int]:
    """sample: counts, Born-zero and product cells, expected values, multinomial test.

    Returns the problems and the number of the program's 4-sigma flags that
    the benchmark's own test judged honest excursions.
    """
    problems: list[str] = []
    report = json.loads(stdout)
    if not isinstance(report, dict) or report["scenario"] != op.scenario:
        return [f"expected a single {op.scenario} report"], 0
    sampling = report["sampling"]
    if sampling["trials"] != op.trials or sampling["seed"] != op.seed:
        problems.append(f"sampling header {sampling['trials']}, {sampling['seed']} != input")
    probs = reference.plan_table(op.scenario, op.a, op.b)
    counts: dict = {}
    for entry in sampling["frequencies"]:
        outcome = _sign_tuple(entry["outcomes"])
        if outcome is None or outcome in counts:
            problems.append(f"bad or repeated outcome tuple {entry['outcomes']}")
            continue
        counts[outcome] = entry["count"]
        _near(entry["expected"], probs.get(outcome, math.nan), f"expected P{outcome}", problems)
    if set(counts) != set(probs):
        problems.append(f"report lists outcomes {sorted(counts)}, not all {len(probs)} tuples")
    problems += check_counts(counts, probs, op.trials, op.scenario)
    _exit_code_matches(rc, report["checks"], problems)
    excursions = 0
    for check in report["checks"]:
        if ":sampling:z:" in check["anchor"]:
            flagged = not abs(check["computed"]) < Z_LIMIT
            if check["pass"] is flagged:
                problems.append(f"{check['anchor']}: pass={check['pass']} with z={check['computed']}")
            excursions += flagged
        elif check["pass"] is not True:
            problems.append(f"failing check {check['anchor']}: {check['description']}")
    return problems, excursions


def check_joint(op: Op, records, matrices, counts_at_seed: dict, doubled) -> list[str]:
    """sample_joint: eigenvector post-states, agreement with sample_counts, prefix stability.

    ``matrices`` are the benchmark's own observables, ``counts_at_seed`` is
    the program's sample_counts at the same seed and trial count, and
    ``doubled`` is its sample_joint at twice the trial count.
    """
    problems: list[str] = []
    n = op.trials
    if len(records) != n or [r.trial for r in records] != list(range(n)):
        return [f"got {len(records)} records, not trials 0..{n - 1}"]
    values = np.array([[v for _, v in r.outcomes] for r in records], dtype=float)
    posts = np.array([r.post_state.amplitudes for r in records])
    if values.shape != (n, len(matrices)):
        return [f"records carry {values.shape[1]} outcomes, not {len(matrices)}"]
    if not np.all(np.abs(np.linalg.norm(posts, axis=1) - 1.0) <= EIGEN_TOL):
        problems.append("a post-state is not normalized")
    for d, mat in enumerate(matrices):
        residual = np.abs(posts @ mat.T - values[:, d : d + 1] * posts).max()
        if not residual <= EIGEN_TOL:
            problems.append(f"post-states off the recorded eigenvalue of observable {d} by {residual:.2e}")
    aggregated = Counter(map(tuple, values.tolist()))
    if aggregated != Counter(counts_at_seed):
        problems.append("records do not aggregate to sample_counts at the same seed")
    prefix = doubled[:n]
    if (
        len(prefix) != n
        or [(p.trial, p.outcomes) for p in prefix] != [(r.trial, r.outcomes) for r in records]
        or not np.array_equal(np.array([p.post_state.amplitudes for p in prefix]), posts)
    ):
        problems.append(f"the first {n} records of a {2 * n}-trial call differ from the {n}-trial call")
    signed: Counter = Counter()
    for outcome, count in aggregated.items():
        key = _sign_tuple(outcome)
        if key is None:
            problems.append(f"outcome {outcome} outside the spectra (-1, +1)")
            return problems
        signed[key] += count
    problems += check_counts(dict(signed), reference.plan_table(op.scenario, op.a, op.b), n, op.scenario)
    return problems
