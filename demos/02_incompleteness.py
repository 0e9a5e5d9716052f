"""Joint certain values for observables with no common eigenstate.

A measurement on one particle group can make an observable of a *disjoint*
group certain, without touching it.  When several such inferences land on the
same individual system, the system carries jointly certified values for
observables that no quantum state can have sharp simultaneously - the target
observables share no common eigenstate.  This script runs both scenario
reports and prints the certified claims next to the eigenstructure facts.

Run:  python3 demos/02_incompleteness.py
"""

from serlab import PsiParams, run_scenario


def show(report):
    print(f"--- scenario {report.scenario} ---")
    if report.post_selection_probability is not None:
        print(
            f"post-selection {report.post_selection.describe()}: "
            f"probability {report.post_selection_probability:.6g}"
        )
    shown = set()
    for claim, cert in report.certified_claims:
        line = claim.describe()
        if line in shown:
            continue
        shown.add(line)
        regions = f"{sorted(claim.inferring_region)} -> {sorted(claim.target_region)}"
        print(f"  [{'ok' if cert.ok else cert.failed_clause}] {line}   (regions {regions})")
    for check in report.checks:
        if "common-eigenstate" in check.anchor or "caveat" in check.anchor:
            print(f"  [{'ok' if check.passed else 'FAIL'}] {check.description}")
    print(f"incompleteness verdict: {report.incompleteness_verdict}")
    print()


def main():
    # First argument: one non-local projector target plus two local spin targets,
    # available on the post-selected (+1,+1,+1) sigma_z branch.
    show(run_scenario("epr-psi", PsiParams(0.5, 0.5)))

    # Second argument: every sigma_y outcome branch works, not just one
    # post-selected branch; the targets are the three two-particle products A_j.
    show(run_scenario("epr-ghz"))

    print("In both cases every claim certifies while the claim targets share no")
    print("common eigenstate, which is exactly what a complete assignment of")
    print("simultaneous sharp values would require.")


if __name__ == "__main__":
    main()
