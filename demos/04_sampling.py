"""Seeded Monte Carlo measurement: calibration, reproducibility, trial independence.

The sampler draws joint Born-rule outcomes of commuting observables from one
PCG64DXSM stream: trial t always reads the uniform at offset t, so runs are
reproducible, prefixes are stable when the trial count grows, and trials
could be generated in any order (the generator's advance(t) jumps to trial t).

Run:  python3 demos/04_sampling.py
"""

import numpy as np

from serlab import Axis, PsiParams, psi_state, sample_joint, sample_scenario, spin


def main():
    params = PsiParams(0.5, 0.5)
    state = psi_state(params)
    observables = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]

    print("ten individual trials (seed 42):")
    for record in sample_joint(state, observables, seed=42, trials=10):
        outcomes = ", ".join(f"{label}={value:+.0f}" for label, value in record.outcomes)
        print(f"  trial {record.trial}: {outcomes}")
    print()

    print("reproducibility: the same seed gives the same trials;")
    first = sample_joint(state, observables, seed=42, trials=10)
    longer = sample_joint(state, observables, seed=42, trials=1000)
    same = all(a.outcomes == b.outcomes for a, b in zip(first, longer))
    print(f"  first 10 of a 1000-trial run identical to the 10-trial run: {same}")
    print()

    print("calibration against Born probabilities (epr-psi measurement set, 100000 trials):")
    report = sample_scenario("epr-psi", params, seed=7, trials=100_000)
    for entry in report.sampling.entries:
        tup = ",".join(f"{v:+.0f}" for v in entry.outcomes)
        z = "   n/a" if entry.z is None else f"{entry.z:+6.2f}"
        print(
            f"  ({tup}): expected {entry.expected:.4f}, observed {entry.frequency:.4f}, z = {z}"
        )
    worst = max(abs(e.z) for e in report.sampling.entries if e.z is not None)
    print(f"  worst |z| = {worst:.2f} (the calibration gate is |z| < 4)")
    print()

    print("impossible outcomes stay impossible in finite samples:")
    zero_entries = [e for e in report.sampling.entries if e.expected == 0.0]
    total = int(np.sum([e.count for e in zero_entries]))
    print(f"  {len(zero_entries)} zero-probability outcome tuples, total counts: {total}")


if __name__ == "__main__":
    main()
