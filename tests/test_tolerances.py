"""Every tolerance in serlab is a named constant, listed with its value in README's Tolerances table."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "serlab"
TOLERANCE_NAME = re.compile(r"\w*_TOL|NEGLIGIBLE_PROBABILITY|Z_SCORE_LIMIT")
SMALL = 1e-6


def _readme_table() -> dict[str, float]:
    """``{"module.NAME": value}`` from the rows of README's Tolerances table."""
    section = ROOT.joinpath("README.md").read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0]]
    constant, value = header.index("constant"), header.index("value")
    return {
        re.search(r"`([\w.]+)`", row[constant]).group(1): float(re.search(r"`([^`]+)`", row[value]).group(1))
        for row in rows[2:]
    }


def test_readme_lists_every_tolerance_and_no_bare_one_exists():
    constants: dict[str, float] = {}
    bare: list[str] = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if TOLERANCE_NAME.fullmatch(name):
                    constants[f"{path.stem}.{name}"] = ast.literal_eval(stmt.value)
                    named.add(id(stmt.value))
        bare += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < node.value < SMALL
            and id(node) not in named
        ]
    assert _readme_table() == constants
    assert bare == [], "a float below 1e-6 outside a named tolerance constant"
