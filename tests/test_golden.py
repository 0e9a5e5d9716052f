"""Golden outputs: the sha256 of two JSON reports and one text report, recorded in README.md.

Any refactor must leave these bytes unchanged; a change to them is a change
of behaviour and has to be made, and recorded in README.md, on purpose.
"""

import contextlib
import hashlib
import io

import pytest

from serlab.cli import main

GOLDEN = {
    "ad8b85ed6cbf654cba93d5dc229d8277ae98754d5e1ef17e0196e595e4edbf7b": (
        "verify --scenario all --format json"
    ),
    "6b62697d3a7896727f4b5a98c2698b12b49b1342f4ce123135986d7b2b7445d5": (
        "sample --scenario all --seed 0 --trials 100000 --format json"
    ),
    "2d6e3a88f1e2a5b35d5b62d35a39fab35c9e158321d7823d082eb8da288e2903": "verify --scenario all",
}


@pytest.mark.parametrize("digest, command", GOLDEN.items(), ids=["verify", "sample", "verify-text"])
def test_golden_output(digest, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
