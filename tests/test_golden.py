"""Golden outputs, recorded in README.md: the sha256 of two JSON reports, one text report,
each demo's stdout and a corpus of CLI runs.  The three reports and the demo outputs are
committed under ``tests/golden/`` as well, with one sha256 per corpus run, so a change to
them names what changed: each JSON value, each text line, or each corpus run.

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
GOLDEN = {
    "c285be5d15dd1bd81b341fd00758a231a2a92b84f0f1fea1cf383f5c6a867c13": (
        "verify --scenario all --format json"
    ),
    "9d7970ef2dda5bddbe53290c56ace3f04b0223f9a242b98ac9d133670ecc0014": (
        "sample --scenario all --seed 0 --trials 100000 --format json"
    ),
    "2d6e3a88f1e2a5b35d5b62d35a39fab35c9e158321d7823d082eb8da288e2903": "verify --scenario all",
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


@pytest.mark.parametrize("digest, command", GOLDEN.items(), ids=["verify", "sample", "verify-text"])
def test_golden_output(digest, command, monkeypatch):
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
DEMO_DIGESTS = {
    "01_certainty_chain": "ff7b3dee13d403286347b39bf5487788ddac7d0bb45db5345942621e6aa6f8d8",
    "02_incompleteness": "08723d48348e6e6b53c878347cf456190acf54eaa3f36c26c4523137200f972a",
    "03_contradictions": "c090df7a971b76ee643de1c2d016124a916a6fdabdf40c1d3e804950e89c96c1",
    "04_sampling": "f445b6014194861bb51e8efceea07153ef0d15947581940d15d0a7069811b02c",
}


@pytest.mark.parametrize("demo, digest", DEMO_DIGESTS.items(), ids=list(DEMO_DIGESTS))
def test_demo_output(demo, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    assert_matches_golden(REPORTS / f"{demo}.txt", digest, out.getvalue())


def _corpus() -> list[list[str]]:
    """Fixed CLI argument lists: every scenario and format, every flip index and its edges, rejected inputs."""
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
    return corpus


CORPUS_DIGEST = "1aae17e164563dcd01516cd144be8fb6d9ecd56ec6218eb8de9f0e064af42750"
CORPUS_RUNS = REPORTS / "corpus.sha256"  # one "<sha256 of the run> <argv>" line per run, in corpus order


def test_cli_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    digest, runs = hashlib.sha256(), {}
    for argv in _corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        run = repr((argv, code, out.getvalue(), err.getvalue())).encode()
        digest.update(run)
        runs[" ".join(argv)] = hashlib.sha256(run).hexdigest()
    pinned = {args: sha for sha, args in (line.split(" ", 1) for line in CORPUS_RUNS.read_text().splitlines())}
    assert list(pinned) == list(runs), f"{CORPUS_RUNS.name} lists other runs than the corpus"
    changed = [f"serlab {args}: {pinned[args]} → {sha}" for args, sha in runs.items() if sha != pinned[args]]
    assert not changed, "\n".join([f"{len(changed)} of {len(runs)} corpus runs changed:", *changed])
    assert digest.hexdigest() == CORPUS_DIGEST


def test_readme_tables_record_the_pinned_digests():
    rows = re.findall(r"^\| (.+) \| `([0-9a-f]{64})` \|$", ROOT.joinpath("README.md").read_text(), re.MULTILINE)
    pinned = {
        **{digest: f"`serlab {command}`" for digest, command in GOLDEN.items()},
        **{digest: f"`python3 demos/{demo}.py`" for demo, digest in DEMO_DIGESTS.items()},
        CORPUS_DIGEST: "test_cli_corpus",
    }
    assert sorted(digest for _, digest in rows) == sorted(pinned)
    for label, digest in rows:
        assert pinned[digest] in label
