"""One benchmark worker: a fresh interpreter that runs a share of a workload's ops.

Started by run.py with a JSON config as its only argument.  It imports
serlab.cli first and notes when it is ready (the end of set-up), runs one
warm-up op, then a single-client closed loop of whole rounds until its time
budget is spent, checking every op's output between ops, outside the timed
interval.  The last line it prints is its result as JSON.
"""

import json
import sys
import time

CONFIG = json.loads(sys.argv[1])
sys.path.insert(0, CONFIG["src"])

import serlab.cli  # noqa: E402  (set-up ends when this import is done)

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import serlab.hilbert  # noqa: E402
import serlab.measurement  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = serlab.cli.main(argv)
    return rc, out.getvalue()


def joint_inputs(op: Op):
    """Fresh serlab objects built from the benchmark's own state and matrices."""
    axes, _ = reference.PLANS[op.scenario]
    matrices = [reference.embedded(axis, p) for p, axis in enumerate(axes, start=1)]
    state = serlab.hilbert.StateVector(reference.scenario_state(op.scenario, op.a, op.b))
    observables = [
        serlab.hilbert.Observable(m, label=f"sigma_{axis}({p})") for p, (axis, m) in enumerate(zip(axes, matrices), 1)
    ]
    return matrices, state, observables


def check(op: Op, result):
    """Problems with one op's output, and the program's honest 4-sigma flags in it."""
    if op.kind == "joint":
        records, matrices, state, observables = result
        counts = serlab.measurement.sample_counts(state, observables, op.seed, op.trials)
        doubled = serlab.measurement.sample_joint(state, observables, op.seed, 2 * op.trials)
        return checks.check_joint(op, records, matrices, counts, doubled), 0
    rc, stdout = result
    if op.kind == "sample":
        return checks.check_sample(op, rc, stdout)
    if op.kind == "flip":
        return checks.check_flip(op, rc, stdout), 0
    return checks.check_verify(op, rc, stdout), 0


def main():
    workload = WORKLOADS[CONFIG["workload"]]
    seed, worker = CONFIG["seed"], CONFIG["worker"]
    src = os.path.realpath(CONFIG["src"])
    if not os.path.realpath(serlab.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"serlab was imported from {serlab.cli.__file__}, not from {src}")

    tracer = None
    if CONFIG["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def execute(op: Op, index: int):
        """Run one op; returns (seconds, result, error)."""
        prepared = joint_inputs(op) if op.kind == "joint" else op.argv()
        root = tracer.root(index) if tracer else contextlib.nullcontext()
        error = None
        result = None
        with root:
            t0 = time.perf_counter()
            try:
                if op.kind == "joint":
                    result = serlab.measurement.sample_joint(prepared[1], prepared[2], op.seed, op.trials)
                else:
                    result = run_cli(prepared)
            except SystemExit as exc:
                result = (exc.code, "")
            except Exception:  # a program fault: the op failed
                error = traceback.format_exc()
            t1 = time.perf_counter()
        if op.kind == "joint" and error is None:
            result = (result, *prepared)
        elif error is None and result[0] == 2:
            error = f"exit code 2 for {op.argv()}"
        return t1 - t0, result, error

    # Warm-up: the first op of the worker's plan, timed apart and compared
    # byte for byte with its timed repeat below.
    first = workload.op(seed, worker, 0)
    warm_s, warm_result, warm_error = execute(first, -1)

    latencies, kinds, problems = [], [], []
    attempted = failed = incorrect = excursions = stdout_bytes = 0
    timed = 0.0
    index = 0
    loop_start = time.monotonic()
    round_len = len(workload.round)
    while True:
        for _ in range(round_len):
            op = workload.op(seed, worker, index)
            seconds, result, error = execute(op, index)
            attempted += 1
            if error is not None:
                failed += 1
                problems.append(f"op {index} {op.kind} {op.scenario} failed: {error.strip().splitlines()[-1]}")
            else:
                timed += seconds
                latencies.append(seconds * 1e3)
                kinds.append(op.kind)
                if op.kind != "joint":
                    stdout_bytes += len(result[1])
                try:
                    found, flagged = check(op, result)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    found, flagged = [f"unreadable output: {exc!r}"], 0
                excursions += flagged
                if index == 0 and (warm_error is not None or warm_result != result):
                    found.append("warm-up and repeat of the same op differ (exit code or stdout bytes)")
                if found:
                    incorrect += 1
                    problems.append(f"op {index} {op.kind} {op.scenario}: {'; '.join(found)}")
            index += 1
        enough = timed >= CONFIG["budget_s"] and attempted >= CONFIG["min_ops"]
        if enough or time.monotonic() - loop_start >= CONFIG["cap_s"]:
            break

    out = {
        "ready": READY,
        "warmup_ms": warm_s * 1e3,
        "warmup_kind": first.kind,
        "latencies_ms": latencies,
        "kinds": kinds,
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "excursions": excursions,
        "problems": problems[:20],
        "timed_s": timed,
        "stdout_bytes": stdout_bytes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["trace"] = tracer.totals()
        if CONFIG.get("trace_path"):
            tracer.write(CONFIG["trace_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
