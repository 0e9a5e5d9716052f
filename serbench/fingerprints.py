"""Print the two golden sha256 fingerprints of serlab's JSON output.

    python3 serbench/fingerprints.py

Each is the sha256 of the exact stdout bytes of a fresh ``python3 -m
serlab.cli`` process run on the checkout's sources.  They are printed for
reference (README.md records today's values); nothing is gated on them.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_TRIALS = 100_000
COMMANDS = (
    ["verify", "--scenario", "all", "--format", "json"],
    ["sample", "--scenario", "all", "--seed", "0", "--trials", str(SAMPLE_TRIALS), "--format", "json"],
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "serlab.cli", *argv], capture_output=True, env=env, cwd=ROOT, timeout=300
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  serlab {' '.join(argv)}  (exit {proc.returncode}, {len(proc.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
