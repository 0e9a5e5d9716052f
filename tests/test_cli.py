"""Tests for the command-line interface: exit codes, report formats, determinism."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from serlab import cli, measurement
from serlab.cli import RunConfig, dumps, main, run_command
from serlab.inference import SCENARIO_TABLE, SCENARIOS, run_scenario
from serlab.states import PsiParams

CHECK_FIELDS = {"description", "anchor", "expected", "computed", "pass"}
TOP_FIELDS = {"scenario", "parameters", "seed", "checks", "sampling", "verdicts"}
spin_module = importlib.import_module("serlab.spin")  # the package exports a function named spin
_OFF_CONSTRAINT = "error: 3|a|^2+|b|^2 must equal 1 (off by 1.680e+00)"
_MODULUS_ABOVE_ONE = "error: |a| and |b| must not exceed 1, as 3|a|^2+|b|^2 = 1"
GHZ_SCENARIOS = [name for name in SCENARIOS if not SCENARIO_TABLE[name].needs_params]
PSI_SCENARIOS = [name for name in SCENARIOS if SCENARIO_TABLE[name].needs_params]


def _run(command, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(command, RunConfig(**kwargs))
    return code, out.getvalue()


def run_verify(**kwargs):
    return _run("verify", **kwargs)


def run_sample(**kwargs):
    return _run("sample", **kwargs)


def test_verify_epr_psi_text():
    code, text = run_verify(scenario="epr-psi")
    assert code == 0
    assert "probability 0.25" in text
    assert "result: all checks passed" in text


def test_verify_bell_ghz_json_verdict():
    code, text = run_verify(scenario="bell-ghz", format="json")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdicts"]["contradiction"] is True
    assert payload["verdicts"]["incompleteness"] is None
    assert set(payload.keys()) == TOP_FIELDS
    for check in payload["checks"]:
        assert set(check.keys()) == CHECK_FIELDS


def test_verify_all_scenarios():
    code, text = run_verify(scenario="all", format="json")
    assert code == 0
    payload = json.loads(text)
    assert [r["scenario"] for r in payload] == ["epr-psi", "epr-ghz", "bell-hardy", "bell-ghz"]
    assert all(c["pass"] for r in payload for c in r["checks"])


def test_verify_invalid_params_exit_2(capsys):
    assert main(["verify", "--scenario", "all", "--a-re", "0.9"]) == 2
    assert capsys.readouterr() == ("", _OFF_CONSTRAINT + "\n")


def test_ghz_scenarios_ignore_params():
    # epr-ghz does not use (a, b), so invalid values are not rejected
    assert main(["verify", "--scenario", "epr-ghz", "--a-re", "0.9"]) == 0


def test_verify_flip_claim_exit_1(capsys):
    for scenario, n_claims in [("epr-psi", 3), ("bell-hardy", 3)]:
        for k in range(n_claims):
            assert main(["verify", "--scenario", scenario, "--flip-claim", str(k)]) == 1
            assert "FAIL:" in capsys.readouterr().err


def test_flip_claim_requires_single_scenario(capsys):
    assert main(["verify", "--flip-claim", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --flip-claim requires a single --scenario\n")


def test_sample_epr_psi_json():
    code, text = run_sample(scenario="epr-psi", trials=20_000, seed=3, format="json")
    assert code == 0
    payload = json.loads(text)
    assert payload["sampling"]["trials"] == 20_000
    assert payload["sampling"]["algorithm"] == "pcg64dxsm"
    freq = {tuple(e["outcomes"]): e for e in payload["sampling"]["frequencies"]}
    entry = freq[(1.0, 1.0, 1.0)]
    assert entry["expected"] == 0.25
    assert abs(entry["z"]) < 4
    assert all(abs(z) < 4 for z in payload["sampling"]["z_scores"])


def test_sample_bell_hardy_calibration():
    code, text = run_sample(scenario="bell-hardy", trials=20_000, seed=5, format="json")
    assert code == 0
    payload = json.loads(text)
    freq = {tuple(e["outcomes"]): e for e in payload["sampling"]["frequencies"]}
    entry = freq[(1.0, 1.0, 1.0)]
    assert entry["expected"] == pytest.approx(0.0625, abs=1e-12)


def test_sample_bell_ghz_zero_violations():
    code, text = run_sample(scenario="bell-ghz", trials=20_000, seed=7, format="json")
    assert code == 0
    payload = json.loads(text)
    product = next(c for c in payload["checks"] if "product-constraint" in c["anchor"])
    assert product["computed"] == 0


def test_verify_json_deterministic():
    a = run_verify(scenario="bell-hardy", format="json", seed=9)
    b = run_verify(scenario="bell-hardy", format="json", seed=9)
    assert a == b


def test_sample_json_deterministic():
    a = run_sample(scenario="epr-ghz", format="json", seed=9, trials=5_000)
    b = run_sample(scenario="epr-ghz", format="json", seed=9, trials=5_000)
    assert a == b
    c = run_sample(scenario="epr-ghz", format="json", seed=10, trials=5_000)
    assert a != c


def test_json_floats_roundtrip():
    blob = dumps({"x": 0.1, "y": 1.0, "z": [0.0625, True, None, "s"]})
    parsed = json.loads(blob)
    assert parsed["x"] == 0.1
    assert parsed["z"][0] == 0.0625


@pytest.mark.parametrize(
    "value, text",
    [
        ({}, "{}"),
        ([], "[]"),
        ((), "[]"),
        ([[1, [2, []]], [None]], "[[1,[2,[]]],[null]]"),
        ([True, False, 0, 1], "[true,false,0,1]"),
        ({"a": {"b": [True]}, 3: "x\"y"}, '{"a":{"b":[true]},"3":"x\\"y"}'),
        (-0.0, "-0"),
        (1e-05, "1.0000000000000001e-05"),
        (0.1, "0.10000000000000001"),
        (1e22, "1e+22"),
    ],
)
def test_dumps_edge_values(value, text):
    assert dumps(value) == text


@pytest.mark.parametrize(
    "value, error",
    [
        (math.nan, ValueError),
        ([1.0, -math.inf], ValueError),
        ({"x": [math.inf]}, ValueError),
        (object(), TypeError),
        ({1, 2}, TypeError),
        ([1, b"x"], TypeError),
    ],
)
def test_dumps_rejects_non_finite_and_unsupported_values(value, error):
    with pytest.raises(error, match="cannot serialize"):
        dumps(value)


def test_unknown_scenario_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "bogus"])
    assert exc.value.code == 2


def test_trials_must_be_positive(capsys):
    assert main(["sample", "--scenario", "bell-ghz", "--trials", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --trials must be positive\n")


@pytest.mark.parametrize("argv", ["verify --trials 10", "verify --seed 3"])
def test_options_a_subcommand_lacks_are_usage_errors(argv, capsys):
    # verify never samples, so it takes no sampling options
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: unrecognized arguments: {argv.split(maxsplit=1)[1]}\n")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "1", "1.5"])
@pytest.mark.parametrize("command", ["verify", "sample"])
def test_tolerance_outside_unit_interval_exits_2(command, tolerance, capsys):
    # certainty has one fixed bound, so --tolerance is no option at all: any value is a usage error
    extra = ["--flip-claim", "0"] if command == "verify" else ["--trials", "10"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", "epr-psi", f"--tolerance={tolerance}", *extra])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: unrecognized arguments: --tolerance={tolerance}\n")


# argv -> the one stderr line of its exit 2; an argv that breaks several rules is named by the first
CLI_REJECTIONS = [
    ("sample --scenario epr-psi --a-re 0.9", _OFF_CONSTRAINT),
    ("verify --scenario bell-hardy --a-re 0 --b-re 1", "error: both amplitudes must be nonzero (a*b != 0)"),
    ("verify --scenario epr-psi --flip-claim 3", "error: flip index 3 out of range; scenario emits 3 claims"),
    ("verify --scenario epr-ghz --flip-claim -1", "error: flip index -1 out of range; scenario emits 24 claims"),
    ("verify --scenario all --flip-claim 0 --a-re 0.9", "error: --flip-claim requires a single --scenario"),
    ("sample --scenario bell-hardy --a-re 0.9 --trials 0", _OFF_CONSTRAINT),
    ("verify --scenario epr-psi --flip-claim 7 --a-re 0.9", _OFF_CONSTRAINT),
    # squaring 1e300, or taking abs() of 1.7e308+1.7e308j, raises OverflowError
    *(
        (f"{command} --scenario epr-psi {amplitudes}{trials}", _MODULUS_ABOVE_ONE)
        for command, trials in (("verify", ""), ("sample", " --trials 10"))
        for amplitudes in (
            "--a-re 1e300", "--a-im 1e300", "--b-re 1e300", "--b-im 1e300", "--a-re 1.7e308 --a-im 1.7e308"
        )
    ),
]


@pytest.mark.parametrize("argv, line", CLI_REJECTIONS, ids=[argv for argv, _ in CLI_REJECTIONS])
def test_cli_rejection(argv, line, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"scenario": "nope"}, "--scenario must be one of epr-psi, epr-ghz, bell-hardy, bell-ghz, all; got 'nope'"),
        ({"scenario": "bell-hardy", "b_im": math.inf}, "amplitudes must be finite"),
        ({"scenario": "epr-psi", "a_re": 0.9}, _OFF_CONSTRAINT.removeprefix("error: ")),
        ({"scenario": "bell-hardy", "a_re": 0.0, "b_re": 1.0}, "both amplitudes must be nonzero (a*b != 0)"),
        ({"format": "xml"}, "--format must be text or json, got 'xml'"),
        ({"flip_claim": 0}, "--flip-claim requires a single --scenario"),
    ],
)
def test_run_config_rejects_what_main_rejects(kwargs, message):
    with pytest.raises(ValueError) as exc:
        RunConfig(**kwargs)
    assert str(exc.value) == message


def test_sample_rejects_trials_below_one(capsys):
    assert run_command("sample", RunConfig(scenario="epr-psi", trials=0)) == 2
    assert capsys.readouterr() == ("", "error: --trials must be positive\n")


def test_verify_ignores_trials():
    # verify never samples, so a trial count it cannot use is no error
    assert run_verify(scenario="epr-psi", trials=0, format="json") == run_verify(scenario="epr-psi", format="json")
    assert run_verify(scenario="epr-psi", trials=0)[0] == 0


def test_verify_reports_seed_zero_whatever_seed_is_set():
    # verify draws nothing, so its JSON carries seed 0; sample carries the seed it drew with
    code, text = run_verify(scenario="epr-ghz", seed=7, format="json")
    assert code == 0 and json.loads(text)["seed"] == 0
    payload = json.loads(run_sample(scenario="epr-ghz", seed=7, trials=100, format="json")[1])
    assert payload["seed"] == payload["sampling"]["seed"] == 7


def test_run_command_rejects_unknown_command(capsys):
    assert run_command("bogus", RunConfig()) == 2
    assert capsys.readouterr() == ("", "error: unknown command 'bogus'; expected verify or sample\n")


@pytest.mark.parametrize("flag", ["--a-re", "--a-im", "--b-re", "--b-im"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_amplitudes_exit_2(flag, value, capsys):
    for scenario in ("epr-psi", "bell-hardy"):
        assert main(["verify", "--scenario", scenario, f"{flag}={value}", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: amplitudes must be finite\n"


def test_sample_rejects_flip_claim(capsys):
    assert run_command("sample", RunConfig(scenario="epr-psi", flip_claim=0, trials=100)) == 2
    line = "error: --flip-claim applies to verify only; sample has no claims to flip\n"
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "kwargs", [{"trials": 2.5}, {"trials": True}, {"seed": 1.5}, {"seed": False}, {"flip_claim": True}]
)
def test_run_config_integer_fields_reject_bool_and_float(kwargs):
    with pytest.raises(TypeError):
        RunConfig(scenario="epr-psi", **kwargs)


def test_run_config_integer_fields_become_ints():
    config = RunConfig(scenario="epr-psi", trials=np.int64(5), seed=np.uint8(3), flip_claim=np.int32(1))
    assert [type(v) for v in (config.trials, config.seed, config.flip_claim)] == [int, int, int]


def test_negative_exponent_value_as_separate_argument(capsys):
    b_im = -8e-05
    b_re = repr((0.52 - b_im**2) ** 0.5)  # 3 * 0.4^2 + |b|^2 = 1
    base = ["verify", "--scenario", "all", "--a-re", "0.4", "--b-re", b_re, "--format", "json"]
    assert main(base + ["--b-im=-8e-05"]) == 0
    joined = capsys.readouterr().out
    assert main(base + ["--b-im", "-8e-05"]) == 0
    assert capsys.readouterr().out == joined
    assert json.loads(joined)[0]["parameters"]["b_im"] == b_im


def _amplitude_flags(a_re):
    return [f"--a-re={a_re!r}", f"--b-re={math.sqrt(1.0 - 3.0 * a_re**2)!r}"]


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_a_at_or_below_zero_probability_tolerance_exits_2(command, capsys):
    # |a|^2 = 4.9e-13 and 1e-12: sigma_z(1)=+1, of probability 2|a|^2, would count as impossible
    trials = ["--trials", "1000"] if command == "sample" else []
    for a_re in (7e-7, 1e-6):
        assert main([command, "--scenario", "all", *_amplitude_flags(a_re), *trials]) == 2
        assert capsys.readouterr() == ("", "error: |a|^2 must exceed the zero-probability tolerance 1e-12\n")
    # one step above the bound every check passes
    above = math.nextafter(1e-6, 1.0)
    assert main([command, "--scenario", "all", *_amplitude_flags(above), *trials]) == 0
    assert capsys.readouterr().err == ""


def test_second_verify_builds_no_projector_and_no_parser(monkeypatch, capsys):
    monkeypatch.setattr(spin_module, "_SHARED", {})  # fresh named operators and scenario parts
    cli.build_parser.cache_clear()
    projector_builds = 0
    build = measurement._projector_product

    def counting(*args):
        nonlocal projector_builds
        projector_builds += 1
        return build(*args)

    monkeypatch.setattr(measurement, "_projector_product", counting)
    argv = ["verify", "--scenario", "all", "--format", "json"]
    assert main(argv) == 0
    first = projector_builds
    assert first > 0 and cli.build_parser.cache_info().misses == 1
    assert main(argv) == 0
    assert projector_builds == first and cli.build_parser.cache_info().misses == 1


def test_import_leaves_argparse_unloaded_until_the_first_main():
    code = (
        "import sys, serlab.cli; print('argparse' in sys.modules); "
        "code = serlab.cli.main(['verify', '--scenario', 'epr-ghz', '--format', 'json']); "
        "print('argparse' in sys.modules, code)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "True 0"
    assert json.loads("\n".join(lines[1:-1]))["scenario"] == "epr-ghz"


@pytest.mark.parametrize(
    "argv",
    [["verify", "--scenario", "all"], ["sample", "--scenario", "all", "--trials", "1000"]],
    ids=["verify", "sample"],
)
def test_warm_runs_build_no_assignment_and_no_projector(argv, monkeypatch, capsys):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    builds = Counter()
    init, product = measurement.OutcomeAssignment.__init__, measurement._projector_product

    def counting_init(self, *args, **kwargs):
        builds["assignment"] += 1
        init(self, *args, **kwargs)

    def counting_product(*args):
        builds["projector"] += 1
        return product(*args)

    monkeypatch.setattr(measurement.OutcomeAssignment, "__init__", counting_init)
    monkeypatch.setattr(measurement, "_projector_product", counting_product)
    assert main([*argv, "--format", "json"]) == 0  # the warm-up: one run of every scenario
    assert builds["assignment"] > 0 and builds["projector"] > 0
    builds.clear()
    for fmt in ("json", "text"):
        assert main([*argv, "--format", fmt]) == 0
    assert builds == Counter()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_closed_stdout_exits_141_without_a_traceback(fmt):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    try:
        argv = [sys.executable, "-m", "serlab.cli", "verify", "--scenario", "all", "--format", fmt]
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _counting_payloads(monkeypatch) -> list:
    """Record the scenario of each report that ``cli.report_payload`` is called on from here on."""
    built = []
    payload = cli.report_payload

    def counting(report):
        built.append(report.scenario)
        return payload(report)

    monkeypatch.setattr(cli, "report_payload", counting)
    return built


def test_warm_verify_json_prints_the_kept_ghz_text(monkeypatch):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    built = _counting_payloads(monkeypatch)
    cold = run_verify(scenario="all", format="json")
    assert cold[0] == 0 and sorted(built) == sorted(SCENARIOS)
    # the joined texts are the bytes dumps gives for the list of payloads
    params = PsiParams(0.5, 0.5)
    reports = [run_scenario(name, params if name in PSI_SCENARIOS else None) for name in SCENARIOS]
    assert cold[1] == dumps([cli.report_payload(report) for report in reports]) + "\n"

    built.clear()
    assert run_verify(scenario="all", format="json") == cold
    assert built == PSI_SCENARIOS  # the GHZ texts are kept from the cold run
    built.clear()
    code, text = run_verify(scenario="bell-ghz", format="json")
    assert (code, built) == (0, []) and json.loads(text) == json.loads(cold[1])[SCENARIOS.index("bell-ghz")]

    monkeypatch.setattr(spin_module, "_SHARED", {})  # emptying the memo rebuilds the kept texts
    built.clear()
    assert run_verify(scenario="all", format="json") == cold and sorted(built) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", GHZ_SCENARIOS)
def test_a_flipped_ghz_json_run_between_unflipped_runs_prints_its_own_report(scenario, monkeypatch):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    unflipped = run_verify(scenario=scenario, format="json")
    assert unflipped[0] == 0 and all(check["pass"] for check in json.loads(unflipped[1])["checks"])
    for k in (0, 13, 23):
        code, text = run_verify(scenario=scenario, format="json", flip_claim=k)
        failing = [check["anchor"] for check in json.loads(text)["checks"] if not check["pass"]]
        assert code == 1 and len(failing) == 1 and f"{scenario}:branch:" in failing[0]
        assert text == dumps(cli.report_payload(run_scenario(scenario, flip_claim=k))) + "\n"
        assert run_verify(scenario=scenario, format="json") == unflipped


@pytest.mark.parametrize("scenario", GHZ_SCENARIOS)
def test_the_kept_ghz_report_is_unchanged_by_later_runs(scenario, monkeypatch):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    (kept,) = cli._run_reports("verify", RunConfig(scenario=scenario))
    for fmt in ("text", "json"):  # warm runs that print the kept report, with flipped runs between them
        for flip in (None, 3, None, 17):
            assert run_verify(scenario=scenario, format=fmt, flip_claim=flip)[0] == (flip is not None)
        assert run_verify(scenario="all", format=fmt)[0] == 0
    (again,) = cli._run_reports("verify", RunConfig(scenario=scenario))
    fresh = run_scenario(scenario)
    assert again is kept and fresh is not kept
    assert kept.checks == fresh.checks and kept.certified_claims == fresh.certified_claims


def test_text_reports_are_rendered_from_the_reports(monkeypatch):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    built = _counting_payloads(monkeypatch)
    cold = run_verify(scenario="all")
    assert cold[0] == 0 and built == []
    for scenario in GHZ_SCENARIOS:  # warm the kept JSON texts, and run a flipped report between
        run_verify(scenario=scenario, format="json")
        assert run_verify(scenario=scenario, flip_claim=2)[0] == 1
    built.clear()
    assert run_verify(scenario="all") == cold and built == []
    for scenario in GHZ_SCENARIOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._render_text(run_scenario(scenario))
        assert run_verify(scenario=scenario) == (0, out.getvalue())


def test_verify_all_builds_the_psi_parameters_once(monkeypatch):
    builds = []

    def counting(a, b):
        builds.append((a, b))
        return PsiParams(a, b)

    monkeypatch.setattr(cli, "PsiParams", counting)
    assert run_verify(scenario="all", format="json")[0] == 0
    assert builds == [(0.5 + 0j, 0.5 + 0j)]
    builds.clear()
    assert run_verify(scenario="epr-ghz")[0] == 0 and builds == []
