"""Property tests of the CLI contract (hypothesis), all run in one process.

The named operators and each scenario's state-free part are built once per
process, so a passing call, a flipped call and a passing call again, in one
interpreter, also show that nothing carries over from one call to the next.
The JSON emitter is held to the reference emitter in ``oracles``, byte for byte.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from serlab.cli import dumps, main
from serlab.hilbert import SCALAR_TOL
from serlab.inference import SCENARIOS

from oracles import reference_dumps

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


# --- the JSON emitter ---------------------------------------------------------------

# every code point class the escaper treats apart: ASCII, control characters, non-ASCII, lone surrogates
TEXT = st.text(st.one_of(st.characters(), st.characters(max_codepoint=0x1F), st.characters(categories=["Cs"])))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),  # -0, subnormals, max
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(), st.none())  # the emitter writes str(key)
UNSERIALIZABLE = st.sampled_from([math.nan, math.inf, -math.inf, np.bool_(True), np.int64(3), {1}])


def _nested(leaves):
    def extend(children):
        lists = st.lists(children, max_size=4)
        return st.one_of(lists, lists.map(tuple), st.dictionaries(KEYS, children, max_size=4))

    return st.recursive(leaves, extend, max_leaves=12)


@st.composite
def _buried(draw):
    """An unserializable value at a drawn depth, with serializable siblings before and after it at each level."""
    value = draw(UNSERIALIZABLE)
    for _ in range(draw(st.integers(0, 4))):
        before, after = draw(st.lists(SCALARS, max_size=2)), draw(st.lists(SCALARS, max_size=2))
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        items = [*before, value, *after]
        if kind == "dict":
            value = {f"k{i}": item for i, item in enumerate(items)}
        else:
            value = items if kind == "list" else tuple(items)
    return value


def _outcome(emit, value):
    try:
        return emit(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100)
@given(_nested(SCALARS))
def test_dumps_matches_the_reference_byte_for_byte(value):
    assert dumps(value) == reference_dumps(value)


@settings(max_examples=100)
@given(_buried())
def test_dumps_refuses_what_the_reference_refuses_with_its_message(value):
    refused = _outcome(reference_dumps, value)
    assert isinstance(refused, tuple) and refused[0] in (TypeError, ValueError)
    assert _outcome(dumps, value) == refused


def test_dumps_writes_empty_containers_and_edge_scalars_like_the_reference():
    for value in ([], (), {}, [[], {}, ()], {"": {}}, -0.0, 5e-324, 2**100, "\x00\u00e9\ud800", True, None):
        assert dumps(value) == reference_dumps(value)
