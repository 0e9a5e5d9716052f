"""Property tests of the CLI contract (hypothesis), all run in one process.

The named operators and each scenario's state-free part are built once per
process, so a passing call, a flipped call and a passing call again, in one
interpreter, also show that nothing carries over from one call to the next.
``dumps`` reads back every report value it writes and refuses NaN, inf and other types,
and writes the same bytes and refusals as the hand-written reference in ``oracles``.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from serlab import cli
from serlab.cli import RunConfig, dumps, main
from serlab.hilbert import SCALAR_TOL
from serlab.inference import SCENARIOS

from oracles import PSI_TARGETS, argparse_reading, flipped_anchor, flipped_claim_text, reference_json

PSI_SCENARIOS = tuple(PSI_TARGETS)
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
    # the line names the claim that failed, at its flipped value, and the clause that failed it
    assert f" {flipped_claim_text(scenario, index)}" in err and " [not-certain: miss probability is " in err

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


# --- the option table against argparse -------------------------------------------

# every flag (--trials is foreign to verify), prefixes unique or ambiguous for one command or both, and unknown flags
PARSE_FLAGS = [*cli._OPTIONS, "--scen", "--a", "--f", "--s", "--he", "--tolerance", "-h", "--"]
PARSE_SPECIALS = ["nan", "-inf", "1e300", "-8e-05", "1_0", "0x10", "", " 5 ", "-1", "+1", "9" * 5000, "-h", "--seed"]
CHOICES = {"--scenario": cli._SCENARIO_CHOICES, "--format": cli._FORMATS}
# "=" and " " join a flag of the command's own to a value of its type; "odd" ones take any flag and a special value
PARSE_JOINTS = ["=", " ", "=", " ", "=", " ", "odd=", "odd ", "odd alone"]


def _command_line(command, items):
    """``command``, then each flag alone, as ``--flag=value`` or as ``--flag value``."""
    own = [flag for flag, spec in cli._OPTIONS.items() if command in spec[2].split()] or PARSE_FLAGS
    argv = [command]
    for joint, pick, number in items:
        flag = PARSE_FLAGS[pick % len(PARSE_FLAGS)] if "odd" in joint else own[pick % len(own)]
        kind = cli._OPTIONS.get(flag, (None, None))[1]
        value = PARSE_SPECIALS[pick % len(PARSE_SPECIALS)]
        if "odd" not in joint and kind is not None:
            choices = CHOICES.get(flag)
            value = choices[pick % len(choices)] if choices else repr(number) if kind is float else str(pick - 3)
        argv += [flag] if "alone" in joint else [f"{flag}={value}"] if "=" in joint else [flag, value]
    return argv


COMMAND_LINES = st.builds(
    _command_line,
    st.sampled_from(["verify", "sample", "verify", "sample", "bogus", "-h"]),
    st.lists(st.tuples(st.sampled_from(PARSE_JOINTS), st.integers(0, 99), st.floats()), max_size=4),
)


def _config(given):
    try:
        return repr(RunConfig(**given))  # repr, so that a NaN field equals a NaN field
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=150)
@given(COMMAND_LINES)
@example(["verify", "--scen", "epr-psi"])
@example(["verify", "--scenario", "epr-psi", "--b-im", "-8e-05"])  # a dash-led float is its flag's value
@example(["verify", "--scenario", "epr-ghz", "--flip-claim", "-1"])
@example(["sample", "--seed", "-1"])
@example(["sample", "--format", "json", "--trials", "5", "--format", "text"])  # the last of a repeated flag wins
@example(["verify", "--scenario", "-inf"])  # for argparse a flag without a value
def test_every_line_argparse_read_is_read_alike_and_any_other_is_help_or_one_error_line(argv):
    reading = argparse_reading(argv)
    if reading is not None:
        command, given = cli._parse(argv)
        assert command == reading[0] and _config(given) == _config(reading[1])
        return
    code, out, err = run(argv)
    if code == 0:
        assert out.startswith("usage: serlab ") and err == "", f"{argv!r} ran, which argparse refused"
    else:
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


# --- JSON ----------------------------------------------------------------------------

# one character of each kind the encoder writes apart: plain ASCII, the escaped quote and backslash, control
# characters, non-ASCII in and past the BMP (a surrogate pair); a lone surrogate is an @example below, since two
# drawn in turn would read back as the one code point they encode in UTF-16
TEXT = st.text(st.sampled_from('a/"\\\x00\x1f\x7f\xe9\u2028\U0001f600'), max_size=4)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),  # a float subclass, as numpy results are
    st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),  # -0, subnormals, max
)
REPORT_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-(2**200), 2**200), FLOATS, TEXT)
REFUSED_LEAVES = st.sampled_from([math.nan, math.inf, -math.inf, {1}, b"x"])
KEYS = st.one_of(TEXT, st.integers(), st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False))
UNSERIALIZABLE = st.one_of(REFUSED_LEAVES, st.sampled_from([np.bool_(True), np.int64(3), {(1,): 2}, {math.nan: 1}]))


def _nested(leaves, keys=TEXT):
    def extend(children):
        lists = st.lists(children, max_size=4)
        return st.one_of(lists, lists.map(tuple), st.dictionaries(keys, children, max_size=4))

    return st.recursive(leaves, extend, max_leaves=8)


def _as_read(value):
    """``value`` as ``json.loads`` should give it back: tuples as lists, keys in order, each float by its bits."""
    if isinstance(value, dict):
        return ("dict", [(key, _as_read(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return ("list", [_as_read(item) for item in value])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)  # a bool is not the int 1


def _refusal(value):
    """The exception type of the first leaf the encoder refuses, in the order it writes them, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return ValueError
    if isinstance(value, (set, bytes)):
        return TypeError
    children = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
    return next(filter(None, map(_refusal, children)), None)


@settings(max_examples=40)
@given(_nested(st.one_of(REPORT_LEAVES, REFUSED_LEAVES)))  # about one leaf in six is refused
@example([[], {}, (), {"": {}}, -0.0, 5e-324, 1.7976931348623157e308, 2**100, "\ud800", True, None])
@example({"a": [1.0, ({"b": math.inf},)], "c": b"x"})
@example(({"a": None}, [{1}, math.nan]))
def test_dumps_reads_back_every_report_value_and_refuses_the_rest(value):
    refused = _refusal(value)
    if refused is None:
        assert _as_read(json.loads(dumps(value))) == _as_read(value)
    else:
        with pytest.raises(refused):
            dumps(value)


@st.composite
def _buried(draw):
    """An unserializable value at a drawn depth, with serializable siblings before and after it at each level."""
    value = draw(UNSERIALIZABLE)
    for _ in range(draw(st.integers(0, 4))):
        before, after = draw(st.lists(REPORT_LEAVES, max_size=2)), draw(st.lists(REPORT_LEAVES, max_size=2))
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
@given(_nested(REPORT_LEAVES, KEYS))
def test_dumps_matches_the_reference_byte_for_byte(value):
    assert dumps(value) == reference_json(value)


@settings(max_examples=100)
@given(_buried())
def test_dumps_refuses_what_the_reference_refuses_with_its_message(value):
    refused = _outcome(reference_json, value)
    assert isinstance(refused, tuple) and refused[0] in (TypeError, ValueError)
    got = _outcome(dumps, value)
    # the C encoder of older Pythons words a float refusal without the value that ends the reference's message
    shorter = (ValueError, refused[1].rpartition(": ")[0])
    assert got == refused or (refused[0] is ValueError and got == shorter)


def test_dumps_writes_empty_containers_and_edge_scalars_like_the_reference():
    edge = ([], (), {}, [[], {}, ()], {"": {}}, -0.0, 5e-324, 1.7976931348623157e308, 2**100, 1.0, np.float64(0.1))
    for value in (*edge, "\x00\x7f\u00e9\u2028\ud800\U0001f600", True, None, {1: 0, None: 1, False: 2, 0.5: 3}):
        assert dumps(value) == reference_json(value)
