"""Property tests of the CLI contract (hypothesis), all run in one process.

The named operators and each scenario's state-free part are built once per
process, so a passing call, a flipped call and a passing call again, in one
interpreter, also show that nothing carries over from one call to the next.
"""

import contextlib
import io
import json
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from serlab.cli import main
from serlab.hilbert import SCALAR_TOL
from serlab.inference import SCENARIOS

PSI_SCENARIOS = ("epr-psi", "bell-hardy")
PSI_TARGETS = {
    "epr-psi": ("sigma_x(2)", "sigma_x(1)", "pi(1+2)"),
    "bell-hardy": ("sigma_z(2)", "sigma_z(1)", "pi(1+2)"),
}
GHZ_BRANCHES = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]
NON_FINITE = ["nan", "NaN", "inf", "+inf", "-inf", "Infinity", "-Infinity"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def amplitude_flags(draw):
    """``--a-re=... --b-im=...`` for a random admissible (a, b): 3|a|^2 + |b|^2 = 1, ab != 0.

    |a|^2 ranges over everything ``PsiParams`` accepts: above the
    zero-probability tolerance, which the sigma_z post-selection must clear.
    """
    mod_a_sq = draw(st.floats(SCALAR_TOL, 1.0 / 3.0, exclude_min=True, exclude_max=True))
    phase_a, phase_b = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    a = math.sqrt(mod_a_sq) * complex(math.cos(phase_a), math.sin(phase_a))
    assume(abs(a) ** 2 > SCALAR_TOL)  # the rounding of sqrt and the phase may land on the bound
    b = math.sqrt(1.0 - 3.0 * mod_a_sq) * complex(math.cos(phase_b), math.sin(phase_b))
    parts = {"a-re": a.real, "a-im": a.imag, "b-re": b.real, "b-im": b.imag}
    return [f"--{flag}={value!r}" for flag, value in parts.items()]


def flipped_anchor(scenario, index):
    if scenario in PSI_SCENARIOS:
        return f"{scenario}:certainty:{PSI_TARGETS[scenario][index]}"
    return f"{scenario}:branch:" + ",".join(f"{e:+d}" for e in GHZ_BRANCHES[index // 3])


@settings(max_examples=40)
@given(amplitude_flags())
def test_admissible_amplitudes_give_true_verdicts(amps):
    code, out, err = run(["verify", "--scenario", "all", *amps, "--format", "json"])
    assert (code, err) == (0, "")
    for report in json.loads(out):
        assert all(check["pass"] for check in report["checks"])
        assert [v for v in report["verdicts"].values() if v is not None] == [True]


@settings(max_examples=60)
@given(
    st.sampled_from(SCENARIOS).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(0, 2 if s in PSI_SCENARIOS else 23))
    ),
    amplitude_flags(),
)
def test_any_flipped_claim_exits_1_between_passing_calls(flip, amps):
    scenario, index = flip
    passing = ["verify", "--scenario", scenario, *amps, "--format", "json"]
    first = run(passing)
    assert first[0] == 0

    code, out, err = run(passing + ["--flip-claim", str(index)])
    assert code == 1
    report = json.loads(out)
    assert [c["anchor"] for c in report["checks"] if not c["pass"]] == [flipped_anchor(scenario, index)]
    assert False in report["verdicts"].values()
    assert err.startswith("FAIL: ") and err.count("\n") == 1

    assert run(passing) == first


@settings(max_examples=60)
@given(
    st.sampled_from(["verify", "sample"]),
    st.sampled_from(["all", *PSI_SCENARIOS]),
    st.sampled_from(["--a-re", "--a-im", "--b-re", "--b-im"]),
    st.sampled_from(NON_FINITE),
    st.booleans(),
)
def test_non_finite_amplitude_exits_2(command, scenario, flag, value, attached):
    option = [f"{flag}={value}"] if attached else [flag, value]
    code, out, err = run([command, "--scenario", scenario, *option, "--format", "json"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
