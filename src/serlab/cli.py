"""Command-line front end: analytic verification (`verify`) and Monte Carlo sampling (`sample`).

One option table, ``_OPTIONS``, reads every command line and writes the help text; ``RunConfig`` judges the values.
Exit codes: 0 when every check passes or help is printed, 1 when a check fails (the first failing check is named
on stderr), 2 for a usage or parameter error (one ``error:`` line on stderr), 141 when stdout is closed before the
report is written.

JSON reports are byte-identical for identical configuration (including seed):
field order is fixed and floats are written at their shortest round-trip repr.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass

from .hilbert import _index
from .inference import SCENARIO_TABLE, SCENARIOS, ScenarioReport, _outcome_text, run_scenario, sample_scenario
from .spin import _shared
from .states import PsiParams

__all__ = ["RunConfig", "run_command", "main"]

_SCENARIO_CHOICES = (*SCENARIOS, "all")
_FORMATS = ("text", "json")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; construction applies the CLI's rules, raising ``ValueError`` at the first broken.

    A bool or float ``trials``, ``seed`` or ``flip_claim`` raises ``TypeError``; a numpy integer becomes an int.
    The rules of one command are applied when it runs: ``sample`` needs ``trials >= 1``, which ``verify`` never reads.
    ``psi_params`` is built once, by construction when a psi scenario is selected, and serves the whole run.
    """

    scenario: str = "all"
    a_re: float = 0.5
    a_im: float = 0.0
    b_re: float = 0.5
    b_im: float = 0.0
    trials: int = 100_000
    seed: int = 0
    format: str = "text"
    flip_claim: int | None = None

    def __post_init__(self):
        if self.scenario not in _SCENARIO_CHOICES:
            raise ValueError(f"--scenario must be one of {', '.join(_SCENARIO_CHOICES)}; got {self.scenario!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"--format must be text or json, got {self.format!r}")
        if self.flip_claim is not None and self.scenario == "all":
            raise ValueError("--flip-claim requires a single --scenario")
        if any(SCENARIO_TABLE[name].needs_params for name in self.selected()):
            self.psi_params  # built and validated here, once, and kept for the run
        for name in ("trials", "seed", "flip_claim"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _index(getattr(self, name)))

    def selected(self) -> list[str]:
        return list(SCENARIOS) if self.scenario == "all" else [self.scenario]

    @functools.cached_property
    def psi_params(self) -> PsiParams:
        return PsiParams(complex(self.a_re, self.a_im), complex(self.b_re, self.b_im))


# --- JSON ------------------------------------------------------------------


def dumps(value) -> str:
    """``value`` as compact JSON: fields in insertion order, floats at shortest round-trip repr, NaN and inf refused.

    A non-finite float raises ``ValueError`` and a value of any other type than the report's (dict, list, tuple,
    str, int, float, bool, None) raises ``TypeError``, both from the stdlib encoder.
    """
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


# --- report payloads --------------------------------------------------------


def _check_payload(check) -> dict:
    return {
        "description": check.description,
        "anchor": check.anchor,
        "expected": check.expected,
        "computed": check.computed,
        "pass": check.passed,
    }


def report_payload(report: ScenarioReport) -> dict:
    """The JSON fields of one report; ``seed`` is the sampling seed, or 0 for a report that samples nothing."""
    params = report.parameters
    sampling = None
    if report.sampling is not None:
        stats = report.sampling
        sampling = {
            "trials": stats.trials,
            "seed": stats.seed,
            "algorithm": stats.algorithm,
            "observables": list(stats.observable_labels),
            "frequencies": [
                {
                    "outcomes": list(entry.outcomes),
                    "expected": entry.expected,
                    "count": entry.count,
                    "frequency": entry.frequency,
                    "z": entry.z,
                }
                for entry in stats.entries
            ],
            "z_scores": [entry.z for entry in stats.entries if entry.z is not None],
            "unobserved_admissible": [list(t) for t in stats.unobserved_admissible],
        }
    return {
        "scenario": report.scenario,
        "parameters": None
        if params is None
        else {
            "a_re": params.a.real,
            "a_im": params.a.imag,
            "b_re": params.b.real,
            "b_im": params.b.imag,
        },
        "seed": 0 if report.sampling is None else report.sampling.seed,
        "checks": [_check_payload(c) for c in report.checks],
        "sampling": sampling,
        "verdicts": {
            "incompleteness": report.incompleteness_verdict,
            "contradiction": report.contradiction_verdict,
        },
    }


def _render_text(report: ScenarioReport) -> None:
    print(f"scenario: {report.scenario}")
    if report.parameters is not None:
        p = report.parameters
        print(f"parameters: a = {p.a:g}, b = {p.b:g}")
    if report.post_selection_probability is not None:
        print(
            f"post-selection {report.post_selection.describe()}: "
            f"probability {report.post_selection_probability:.12g}"
        )
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        expected = _value_text(check.expected)
        computed = _value_text(check.computed)
        print(f"[{status}] {check.description} (expected {expected}, computed {computed})")
    if report.sampling is not None:
        stats = report.sampling
        print(
            f"sampling: {stats.trials} trials, seed {stats.seed}, {stats.algorithm}, "
            f"observables {', '.join(stats.observable_labels)}"
        )
        for entry in stats.entries:
            z_text = "n/a" if entry.z is None else f"{entry.z:+.3f}"
            print(
                f"  {_outcome_text(entry.outcomes)}: expected {entry.expected:.6g}, observed {entry.frequency:.6g} "
                f"({entry.count} counts), z = {z_text}"
            )
        if stats.unobserved_admissible:
            missing = ", ".join(map(_outcome_text, stats.unobserved_admissible))
            print(f"  note: admissible but unobserved outcomes: {missing}")
    verdicts = {"incompleteness": report.incompleteness_verdict, "contradiction": report.contradiction_verdict}
    shown = " ".join(f"{kind}={_value_text(verdict)}" for kind, verdict in verdicts.items() if verdict is not None)
    if shown:
        print(f"verdicts: {shown}")
    print(f"result: {'all checks passed' if report.passed() else 'CHECK FAILURE'}")


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


# --- commands ----------------------------------------------------------------


def _run_reports(command: str, config: RunConfig) -> list[ScenarioReport]:
    if command not in ("verify", "sample"):
        raise ValueError(f"unknown command {command!r}; expected verify or sample")
    if command == "sample" and config.trials < 1:
        raise ValueError("--trials must be positive")
    if command == "sample" and config.flip_claim is not None:
        raise ValueError("--flip-claim applies to verify only; sample has no claims to flip")
    reports = []
    for name in config.selected():
        params = config.psi_params if SCENARIO_TABLE[name].needs_params else None
        if command == "sample":
            reports.append(sample_scenario(name, params, seed=config.seed, trials=config.trials))
        elif _keeps_report(name, config.flip_claim):
            reports.append(_shared(run_scenario, name))
        else:
            reports.append(run_scenario(name, params, flip_claim=config.flip_claim))
    return reports


def _keeps_report(scenario: str, flip_claim: int | None) -> bool:
    """Whether a ``verify`` report and its JSON are kept for the process: a fixed state (no post-selection), no flip."""
    return not SCENARIO_TABLE[scenario].needs_params and flip_claim is None


def _report_json(scenario: str) -> str:
    """The JSON text of a kept report; built through ``spin._shared``, so once per process."""
    return dumps(report_payload(_shared(run_scenario, scenario)))


def run_command(command: str, config: RunConfig) -> int:
    """Run ``verify`` (the analytic checks) or ``sample`` (Monte Carlo calibration) and report on stdout.

    Returns the exit code: 0 when every check passes, 1 when one fails (named
    on stderr), 2 for an unknown command or a parameter error.  The report of
    an unflipped GHZ ``verify`` and its JSON text are kept for the process and
    reused as they are (see ``_keeps_report``): nothing here mutates a report.
    """
    try:
        reports = _run_reports(command, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.format == "json":
        kept = [command == "verify" and _keeps_report(r.scenario, config.flip_claim) for r in reports]
        texts = [_shared(_report_json, r.scenario) if k else dumps(report_payload(r)) for r, k in zip(reports, kept)]
        print(texts[0] if len(texts) == 1 else "[" + ",".join(texts) + "]")  # the bytes dumps(list) gives
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            _render_text(report)
    for report in reports:
        failure = report.first_failure()
        if failure is not None:
            print(f"FAIL: {failure.description}", file=sys.stderr)
            return 1
    return 0


_COMMANDS = {"verify": "run a scenario's analytic checks", "sample": "run a scenario's seeded Monte Carlo sampling"}
_OPTIONS = {  # every flag, for _parse and _help: RunConfig field, type, commands, help text ("{}": its default)
    "--scenario": ("scenario", str, "verify sample", f"one of {', '.join(_SCENARIO_CHOICES)} (default: {{}})"),
    "--a-re": ("a_re", float, "verify sample", "Re(a) for the psi family (default {:g})"),
    "--a-im": ("a_im", float, "verify sample", "Im(a) (default {:g})"),
    "--b-re": ("b_re", float, "verify sample", "Re(b) (default {:g})"),
    "--b-im": ("b_im", float, "verify sample", "Im(b) (default {:g})"),
    "--format": ("format", str, "verify sample", "report format, text or json (default: {})"),
    "--flip-claim": ("flip_claim", int, "verify", "self-test: move inferred value FLIP_CLAIM to another eigenvalue"),
    "--trials": ("trials", int, "sample", "Monte Carlo trials (default {})"),
    "--seed": ("seed", int, "sample", "sampling seed (default {})"),
}
_HELP = {"-h": (None, None), "--help": (None, None)}  # in _FLAGS a flag maps to (RunConfig field, type); help has none
_FLAGS = {name: {flag: spec[:2] for flag, spec in _OPTIONS.items() if name in spec[2].split()} | _HELP
          for name in _COMMANDS}


def _help(command: str | None = None) -> str:
    """The help text of ``serlab``, or of one of its commands, written from ``_COMMANDS`` and ``_OPTIONS``."""
    lines = [f"usage: serlab {command or '{verify,sample}'} [options]", ""]
    lines.append("Verify certain-value inference arguments on three-qubit entangled states.")
    for name in [command] if command else _COMMANDS:
        lines += ["", f"serlab {name}: {_COMMANDS[name]}"]
        for flag, (field, _, commands, text) in _OPTIONS.items():
            if name in commands.split():
                lines.append(f"  {flag + ' ' + field.upper():<23} {text.format(getattr(RunConfig, field))}")
        lines.append(f"  {'-h, --help':<23} show this help and exit")
    return "\n".join(lines)


def _full_flag(prefix: str, flags: dict, command: str) -> str:
    """The one flag of ``flags`` that ``prefix`` begins (``--scen`` for ``--scenario``), or ``ValueError``."""
    matches = [flag for flag in flags if flag.startswith(prefix)] if prefix.startswith("--") and prefix != "--" else []
    if len(matches) != 1:
        reason = f"is ambiguous: it could be {' or '.join(matches)}" if matches else f"is not an option of {command}"
        raise ValueError(f"{prefix} {reason}")
    return matches[0]


def _parse(argv: list[str]) -> tuple[str, dict] | str:
    """The command of a command line and the ``RunConfig`` fields it gives, or the help text it asks for.

    A flag is given as ``--flag=value`` or ``--flag value``, the value taken as it is, even when led by ``-``
    (``--b-im -8e-05``); a unique prefix stands for its flag, and the last of a repeated flag wins.  A line that
    cannot be read raises ``ValueError`` with the one line to show; whether a value is allowed is ``RunConfig``'s
    to say.  An exact flag costs one dict lookup: the prefix search runs only after a miss.
    """
    if not argv:
        raise ValueError("no command given; expected verify or sample")
    command, tokens, given = argv[0], iter(argv[1:]), {}
    flags = _FLAGS.get(command)
    if flags is None:
        if command.startswith("-") and (command in _HELP or _full_flag(command, _HELP, "serlab")):
            return _help()
        raise ValueError(f"unknown command {command!r}; expected verify or sample")
    for token in tokens:
        flag, attached, value = token.partition("=")
        field, kind = flags.get(flag) or flags[flag := _full_flag(flag, flags, command)]
        if field is None:
            return _help(command)
        if not attached and (value := next(tokens, None)) is None:
            raise ValueError(f"{flag} needs a value")
        try:
            given[field] = kind(value)
        except ValueError:
            raise ValueError(f"{flag} takes {'an int' if kind is int else 'a float'}; got {value!r}") from None
    return command, given


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        config = None if isinstance(parsed, str) else RunConfig(**parsed[1])  # a field no flag gave keeps its default
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if config is None:
            print(parsed)  # the help text
            code = 0
        else:
            code = run_command(parsed[0], config)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at the null device so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
