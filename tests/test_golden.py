"""Golden outputs, recorded in README.md: the sha256 of two JSON reports, one text report,
each demo's stdout and a corpus of CLI runs.  These tests read each digest from README's
tables, the one place it is written.  The three reports and the demo outputs are committed
under ``tests/golden/`` as well, with one sha256 per corpus run, so a change to them names
what changed: each JSON value, each text line, or each corpus run.

Any refactor must leave these bytes unchanged; a change to them is a change
of behaviour and has to be made, and recorded in README.md, on purpose.
"""

import contextlib
import difflib
import hashlib
import importlib
import io
import json
import math
import pathlib
import re
import runpy

import pytest

from serlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = ROOT / "tests" / "golden"
# README's digest rows, "| <label> | `<sha256>` |", each keyed by the first code span of its label
README_ROWS = re.findall(r"^\| (.+) \| `([0-9a-f]{64})` \|$", ROOT.joinpath("README.md").read_text(), re.MULTILINE)
PINNED = {label.split("`")[1]: digest for label, digest in README_ROWS}
GOLDEN = {  # test id -> a command whose stdout is pinned, in README as `serlab <command>`
    "verify": "verify --scenario all --format json",
    "sample": "sample --scenario all --seed 0 --trials 100000 --format json",
    "verify-text": "verify --scenario all",
}


def value_changes(expected, got, path="") -> list[str]:
    """Each JSON path at which two parsed values differ, as ``path: expected → got``.

    Numbers compare as the doubles they denote, so ``1`` and ``1.0`` are one value and ``0`` and ``-0.0`` are two.
    """
    if isinstance(expected, dict) and isinstance(got, dict) and list(expected) == list(got):
        return [change for key in expected for change in value_changes(expected[key], got[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        pairs = enumerate(zip(expected, got))
        return [change for i, (e, g) in pairs for change in value_changes(e, g, f"{path}[{i}]")]
    if _is_number(expected) and _is_number(got):
        same = expected == got and math.copysign(1.0, expected) == math.copysign(1.0, got)
    else:
        same = type(expected) is type(got) and expected == got
    return [] if same else [f"{path or '(top level)'}: {json.dumps(expected)} → {json.dumps(got)}"]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def assert_matches_golden(path: pathlib.Path, digest: str, got: str) -> None:
    """``got`` must be the bytes of the golden file, whose sha256 is ``digest``; a mismatch names what changed.

    A JSON file's failure lists each changed parsed value, a text file's a unified diff of its lines.
    """
    golden = path.read_text(encoding="utf-8")
    assert hashlib.sha256(golden.encode()).hexdigest() == digest, f"{path.name} does not hold the pinned bytes"
    if got == golden:
        return
    if path.suffix == ".json":
        changes = value_changes(json.loads(golden), json.loads(got)) or ["no parsed value changed"]
    else:
        lines = difflib.unified_diff(golden.splitlines(), got.splitlines(), path.name, "got", lineterm="")
        changes = list(lines) or ["no line changed; only the final newline differs"]
    pytest.fail("\n".join([f"the bytes of {path.name} changed:", *changes]))


@pytest.mark.parametrize("command", GOLDEN.values(), ids=list(GOLDEN))
def test_golden_output(command, monkeypatch):
    digest = PINNED[f"serlab {command}"]
    suffix = "json" if command.endswith("--format json") else "txt"
    report = REPORTS / f"{command.split()[0]}.{suffix}"  # the report's bytes, committed
    # a cold run builds every shared part and the GHZ reports; the warm run after it reads them
    monkeypatch.setattr(importlib.import_module("serlab.spin"), "_SHARED", {})
    for _ in ("cold", "warm"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
        assert (code, err.getvalue()) == (0, "")
        assert_matches_golden(report, digest, out.getvalue())


DEMOS = ROOT / "demos"
DEMO_NAMES = sorted(path.stem for path in DEMOS.glob("*.py"))  # each pinned in README as `python3 demos/<demo>.py`


@pytest.mark.parametrize("demo", DEMO_NAMES)
def test_demo_output(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert_matches_golden(REPORTS / f"{demo}.txt", PINNED[f"python3 demos/{demo}.py"], out.getvalue())


def _corpus() -> list[list[str]]:
    """Fixed CLI argument lists: every scenario and format, every flip index and its edges, rejected inputs, help."""
    scenarios = ["epr-psi", "epr-ghz", "bell-hardy", "bell-ghz", "all"]
    claims = {"epr-psi": 3, "epr-ghz": 24, "bell-hardy": 3, "bell-ghz": 24}
    corpus = []
    for scenario in scenarios:
        for fmt in ("text", "json"):
            corpus.append(["verify", "--scenario", scenario, "--format", fmt])
            for trials in ("1", "1000"):
                for seed in ("0", "383"):
                    corpus.append(["sample", "--scenario", scenario, "--format", fmt, "--trials", trials, "--seed", seed])
    for scenario, n in claims.items():
        for flip in range(-1, n + 2):
            corpus.append(["verify", "--scenario", scenario, "--flip-claim", str(flip)])
    for command in ("verify", "sample"):
        corpus += [
            [command, "--scenario", "epr-psi", "--a-re", "1e300"],
            [command, "--trials", "0"],
            [command, "--scenario", "nope"],
            [command, "--scenario", "all", "--a-re", "0.4", "--b-im", "-8e-05"],
        ]
    corpus += [["-h"], ["verify", "-h"], ["sample", "--help"], ["verify", "--scenario"]]  # help, and a value missing
    corpus.append(["verify", "--scen", "epr-psi", "--format", "json"])  # a unique prefix stands for its flag
    return corpus


CORPUS_RUNS = REPORTS / "corpus.sha256"  # one "<sha256 of the run> <argv>" line per run, in corpus order


def test_cli_corpus():
    digest, runs = hashlib.sha256(), {}
    for argv in _corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code != 2 or err.getvalue().count("\n") == 1, f"serlab {' '.join(argv)}: a refusal takes one line"
        run = repr((argv, code, out.getvalue(), err.getvalue())).encode()
        digest.update(run)
        runs[" ".join(argv)] = hashlib.sha256(run).hexdigest()
    pinned = {args: sha for sha, args in (line.split(" ", 1) for line in CORPUS_RUNS.read_text().splitlines())}
    assert list(pinned) == list(runs), f"{CORPUS_RUNS.name} lists other runs than the corpus"
    changed = [f"serlab {args}: {pinned[args]} → {sha}" for args, sha in runs.items() if sha != pinned[args]]
    assert not changed, "\n".join([f"{len(changed)} of {len(runs)} corpus runs changed:", *changed])
    assert digest.hexdigest() == PINNED["tests/test_golden.py::test_cli_corpus"]


def test_readme_tables_record_the_pinned_digests():
    # one row per pinned output, and no row these tests do not read
    expected = [
        *(f"serlab {command}" for command in GOLDEN.values()),
        *(f"python3 demos/{demo}.py" for demo in DEMO_NAMES),
        "tests/test_golden.py::test_cli_corpus",
    ]
    assert sorted(label.split("`")[1] for label, _ in README_ROWS) == sorted(expected)
    assert len({digest for _, digest in README_ROWS}) == len(README_ROWS)
