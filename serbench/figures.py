"""Reference figures for the README: the Philox draw floor and one-shot CLI timings.

    python3 serbench/figures.py [--big-trials 10000000]

* Draw floor: numpy's Philox called directly with the sampler's shape,
  ``Generator(Philox(key=seed)).random((trials, k))`` for k = 3 observables,
  in ns per trial (median of repeats), with the bytes drawn per trial
  computed as 8*k (one float64 per observable).
* One-shot timings: wall time and peak RSS (``ru_maxrss`` of the child) of
  fresh ``python3 -m serlab.cli`` processes for ``verify --scenario all`` and
  ``sample --scenario all --trials <big-trials>``.  The second needs over
  1 GB of memory at 10^7 trials.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def draw_floor(trials: int, k: int = 3, repeats: int = 7) -> float:
    import numpy as np

    times = []
    for seed in range(repeats):
        gen = np.random.Generator(np.random.Philox(key=seed))
        t0 = time.perf_counter()
        gen.random((trials, k))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / trials * 1e9


def one_shot(argv: list[str]) -> tuple[float, float, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "serlab.cli", *argv], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--big-trials", type=int, default=10_000_000)
    args = parser.parse_args()
    # One-shot runs first: a forked child's ru_maxrss counts the parent's
    # pages until exec, so the parent must still be small.
    for argv in (
        ["verify", "--scenario", "all"],
        ["sample", "--scenario", "all", "--trials", str(args.big_trials)],
    ):
        wall, rss, rc = one_shot(argv)
        print(f"serlab {' '.join(argv)}: {wall:.3f} s wall, {rss:.1f} MB peak RSS, exit {rc}")
    k = 3
    for trials in (1_000_000, 10_000_000):
        print(f"philox draw floor, {trials} trials x {k}: {draw_floor(trials, k):.2f} ns/trial, {8 * k} B/trial drawn")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
