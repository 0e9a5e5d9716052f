"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

    python3 serbench/spread.py --workload verify-grid --seeds 1 10 --seconds 20

Runs run.py once per seed, one run at a time, and prints for each metric the
median of the runs and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from BENCHMARK.json.  The runs' last lines are saved in
serbench/out/spread-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values} attempted={result['attempted']} failed={result['failed']}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}-{args.seeds[0]}.json").write_text(json.dumps(runs))

    print(f"{'metric':18} {'median':>10} {'IQR/median':>11} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        print(f"{name:18} {median:10.4g} {(q3 - q1) / median:11.4f} {bounds.get(name, float('nan')):6.2f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; correct in all runs: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
