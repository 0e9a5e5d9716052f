"""Contradictions without inequalities: inferred values that can never be measured.

Two exact (probability 0/1) clashes between jointly certified values and the
outcomes a direct joint measurement can produce:

* psi family: the certified triple sigma_z(1) = -1, sigma_z(2) = -1,
  pi(1+2) = 1 corresponds to a projector product that is the zero operator,
  so the triple occurs with probability zero in every state;
* GHZ-Mermin: the certified B_j values always multiply to -1, while
  B_1 B_2 B_3 is the identity, so directly measured B values always multiply
  to +1.

Run:  python3 demos/03_contradictions.py
"""

import numpy as np

from serlab import (
    Axis,
    PsiParams,
    ghz_mermin_state,
    hardy_null_outcome_scan,
    run_scenario,
    sample_counts,
    spin,
)


def main():
    report = run_scenario("bell-hardy", PsiParams(0.5, 0.5))
    print("--- psi-family contradiction ---")
    print(f"post-selection probability |a|^2/4 = {report.post_selection_probability:.6g}")
    zero = next(c for c in report.checks if c.anchor == "bell-hardy:zero-operator")
    print(f"max |projector product| = {zero.computed:.3e}  (zero operator)")
    print(f"contradiction verdict: {report.contradiction_verdict}")
    print()

    print("Monte Carlo scan: joint sigma_z(1), sigma_z(2), pi(1+2) measurements")
    print("on 5 random three-qubit states, 20000 trials each; counting the")
    print("'impossible' outcome (-1, -1, 1):")
    hits = hardy_null_outcome_scan(seed=1, n_states=5, trials=20_000)
    print(f"  occurrences per state: {hits}")
    print()

    report = run_scenario("bell-ghz")
    print("--- GHZ-Mermin contradiction ---")
    identity = next(c for c in report.checks if c.anchor == "bell-ghz:b-product-identity")
    certainty = next(c for c in report.checks if c.anchor == "bell-ghz:x-product-certainty")
    print(f"max |B_1 B_2 B_3 - identity| = {identity.computed:.3e}")
    print(f"P(sigma_x product = -1) = {certainty.computed}")
    print(f"contradiction verdict: {report.contradiction_verdict}")
    print()

    mu = ghz_mermin_state()
    counts = sample_counts(mu, [spin(Axis.X, p, 3) for p in (1, 2, 3)], seed=2, trials=20_000)
    print("sampled sigma_x outcome products on the GHZ-Mermin state:")
    for outcome, count in sorted(counts.items()):
        product = int(round(float(np.prod(outcome))))
        eps = ",".join(f"{v:+.0f}" for v in outcome)
        print(f"  ({eps}): {count:6d} trials, product {product:+d}")
    print("every branch has product -1, so the inferred B values multiply to -1;")
    print("yet B_1 B_2 B_3 = identity forces directly measured B products to +1.")


if __name__ == "__main__":
    main()
