"""serlab benchmark: one workload, several fresh worker interpreters, one JSON result.

    python3 serbench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

Runs the workload's ops as a single-client closed loop of in-process
``serlab.cli.main(argv)`` (and ``serlab.measurement.sample_joint``) calls,
spread over fresh worker interpreters started one after another, never two at
a time.  Every op's output is checked outside the timed interval.  The last
line printed is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Raw per-worker results (and span files of a traced
run) go to ``serbench/out/``.  See serbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The whole run must end well within 180 s, however slow the program gets.
RUN_DEADLINE_S = 165.0
LOOP_SHARE_S = 130.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_workers(workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = time.monotonic()
    results = []
    min_ops = math.ceil(workload.min_ops() / workload.workers)
    round_len = len(workload.round)
    min_ops = round_len * math.ceil(min_ops / round_len)
    for worker in range(workload.workers):
        remaining = workload.workers - worker
        elapsed = time.monotonic() - start
        config = {
            "src": str(SRC),
            "workload": workload.name,
            "seed": seed,
            "worker": worker,
            "trace": trace,
            "budget_s": seconds / workload.workers,
            "min_ops": min_ops,
            "cap_s": max(0.5, (LOOP_SHARE_S - elapsed) / remaining),
        }
        if trace:
            config["trace_path"] = str(OUT / f"trace-{workload.name}-w{worker}.npz")
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, RUN_DEADLINE_S - (spawned - start)),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {worker} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result.pop("ready") - spawned
        results.append(result)
    return results


def end_to_end(workload, results: list[dict]) -> dict:
    latencies = sorted(x for r in results for x in r["latencies_ms"])
    return {
        "latency_tail_ms": {"value": percentile(latencies, workload.tail_pct), "unit": "ms"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in results), "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
    }


def per_layer(results: list[dict]) -> dict:
    names: dict[str, list[int]] = {}
    totals = {"spans": 0, "spectral_misses": 0, "spectral_miss_ns": 0, "sample_counts_trials": 0}
    totals |= {"sample_joint_records": 0, "sample_counts_peak_bytes": 0}
    for r in results:
        t = r["trace"]
        for name, (calls, incl, self_ns) in t["names"].items():
            acc = names.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_ns
        for key in totals:
            if key == "sample_counts_peak_bytes":
                totals[key] = max(totals[key], t[key])
            else:
                totals[key] += t[key]
    ops = sum(len(r["latencies_ms"]) for r in results)
    timed = sum(r["timed_s"] for r in results)

    def calls(*keys):
        return sum(names.get(k, [0, 0, 0])[0] for k in keys) / ops

    def ms(index, *keys):
        return sum(names.get(k, [0, 0, 0])[index] for k in keys) / ops / 1e6

    def layer_self(prefix):
        return sum(v[2] for k, v in names.items() if k.startswith(prefix + ".")) / ops / 1e6

    incl, self_ = 1, 2
    runners = [f"inference.run_{s}" for s in ("epr_psi", "epr_ghz", "bell_hardy", "bell_ghz")]
    sc_ns = names.get("measurement.sample_counts", [0, 0, 0])[1]
    sj_ns = names.get("measurement.sample_joint", [0, 0, 0])[1]
    op_ms = ms(incl, "op")
    harness_ms = ms(self_, "op")
    values = {
        "cli.main.self_ms": (ms(self_, "cli.main"), "ms"),
        "cli.emit_ms": (ms(incl, "cli.report_payload", "cli.dumps"), "ms"),
        "cli.stdout_bytes": (sum(r["stdout_bytes"] for r in results) / ops, "count"),
        "cli.self_ms": (layer_self("cli"), "ms"),
        "inference.runner.self_ms": (ms(self_, *runners), "ms"),
        "inference.certify_ser.calls": (calls("inference.certify_ser"), "count"),
        "inference.certify_ser.ms": (ms(incl, "inference.certify_ser"), "ms"),
        "inference.sample_scenario.self_ms": (ms(self_, "inference.sample_scenario"), "ms"),
        "inference.self_ms": (layer_self("inference"), "ms"),
        "measurement.sample_counts.ms": (ms(incl, "measurement.sample_counts"), "ms"),
        "measurement.sample_counts.ns_per_trial": (sc_ns / max(1, totals["sample_counts_trials"]), "ns"),
        "measurement.sample_counts.peak_traced_mb": (totals["sample_counts_peak_bytes"] / 2**20, "MB"),
        "measurement.sample_joint.ms": (ms(incl, "measurement.sample_joint"), "ms"),
        "measurement.sample_joint.us_per_record": (sj_ns / 1e3 / max(1, totals["sample_joint_records"]), "us"),
        "measurement.outcome_probability.calls": (calls("measurement.outcome_probability"), "count"),
        "measurement.outcome_probability.ms": (ms(incl, "measurement.outcome_probability"), "ms"),
        "measurement.commutes.calls": (calls("measurement.commutes"), "count"),
        "measurement.commutes.ms": (ms(incl, "measurement.commutes"), "ms"),
        "measurement.OutcomeAssignment.inits": (calls("measurement.OutcomeAssignment.__init__"), "count"),
        "measurement.self_ms": (layer_self("measurement"), "ms"),
        "hilbert.Observable.inits": (calls("hilbert.Observable.__init__"), "count"),
        "hilbert.spectral.calls": (calls("hilbert.Observable.spectral"), "count"),
        "hilbert.spectral.misses": (totals["spectral_misses"] / ops, "count"),
        "hilbert.spectral.miss_ms": (totals["spectral_miss_ns"] / ops / 1e6, "ms"),
        "hilbert.has_common_eigenstate.ms": (ms(incl, "hilbert.has_common_eigenstate"), "ms"),
        "hilbert.acts_only_on.ms": (ms(incl, "hilbert.acts_only_on"), "ms"),
        "hilbert.self_ms": (layer_self("hilbert"), "ms"),
        "spin.self_ms": (layer_self("spin"), "ms"),
        "states.self_ms": (layer_self("states"), "ms"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.harness_ms": (harness_ms, "ms"),
        "trace.accounted_share": ((op_ms - harness_ms) / op_ms, "ratio"),
        "trace.spans_per_op": (totals["spans"] / ops, "count"),
        "trace.ops_per_s": (ops / timed, "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed loop length of the whole run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "serlab" / "cli.py").is_file():
        print(f"error: no serlab sources at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    results = run_workers(workload, args.seed, args.seconds, bool(args.trace))
    for r in results:
        for problem in r["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    latencies = [x for r in results for x in r["latencies_ms"]]
    if not latencies:
        print("error: no op completed; nothing to measure", file=sys.stderr)
        return 1
    metrics = per_layer(results) if args.trace else end_to_end(workload, results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    incorrect = sum(r["incorrect"] for r in results)
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    # Median op time and throughput are kept for reference only: on a shared
    # 2-core machine they follow its fast and slow phases too closely to gate
    # anything (README, "Dropped").
    timed = sum(r["timed_s"] for r in results)
    raw |= {"latency_p50_ms": statistics.median(latencies), "ops_per_s": len(latencies) / timed}
    raw |= {"tail_pct": workload.tail_pct, "workers": results, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops attempted {attempted}, failed {failed}, incorrect {incorrect}")
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
