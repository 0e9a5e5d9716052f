"""Command-line front end: analytic verification (`verify`) and Monte Carlo sampling (`sample`).

Exit codes: 0 when every check passes, 1 when a check fails (the first failing
check is named on stderr), 2 for usage or parameter errors, 141 when stdout is
closed before the report is written.

JSON reports are byte-identical for identical configuration (including seed):
numbers are serialized with 17 significant digits and field order is fixed.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _quote  # the C escaper json.dumps(str) calls

from .hilbert import _index
from .inference import SCENARIO_TABLE, SCENARIOS, ScenarioReport, _outcome_text, run_scenario, sample_scenario
from .spin import _shared
from .states import PsiParams

__all__ = ["RunConfig", "run_command", "main"]

_FLOAT_OPTIONS = {"--a-re", "--a-im", "--b-re", "--b-im"}
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


# --- deterministic JSON ----------------------------------------------------


def dumps(value) -> str:
    """``value`` as JSON: fields in insertion order, floats to 17 significant digits, non-finite floats refused."""
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(value, out: list[str]) -> None:
    """Append the JSON pieces of ``value`` to ``out``; ``dumps`` joins them once."""
    if value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        out.append(format(float(value), ".17g"))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        sep = "{"  # what goes before the next member: the opening brace, then commas
        for key, item in value.items():
            out.append(f"{sep}{_quote(str(key))}:")
            _emit(item, out)
            sep = ","
        out.append("{}" if sep == "{" else "}")
    elif isinstance(value, (list, tuple)):
        sep = "["
        for item in value:
            out.append(sep)
            _emit(item, out)
            sep = ","
        out.append("[]" if sep == "[" else "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


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


def _add_common_options(parser, d: RunConfig) -> None:
    parser.add_argument(
        "--scenario",
        choices=_SCENARIO_CHOICES,
        default=d.scenario,
        help=f"which scenario to run (default: {d.scenario})",
    )
    parser.add_argument("--a-re", type=float, default=d.a_re, help=f"Re(a) for the psi family (default {d.a_re:g})")
    parser.add_argument("--a-im", type=float, default=d.a_im, help=f"Im(a) (default {d.a_im:g})")
    parser.add_argument("--b-re", type=float, default=d.b_re, help=f"Re(b) (default {d.b_re:g})")
    parser.add_argument("--b-im", type=float, default=d.b_im, help=f"Im(b) (default {d.b_im:g})")
    parser.add_argument("--format", choices=_FORMATS, default=d.format, help="report format")


@functools.cache
def build_parser():
    """The CLI parser, built on the first call (not at import) and reused for the life of the process."""
    import argparse  # here, so that importing the module does not load argparse

    parser = argparse.ArgumentParser(
        prog="serlab",
        description="Verify certain-value inference arguments on three-qubit entangled states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    d = RunConfig()  # the one source of every default

    verify = sub.add_parser("verify", help="run the analytic checks of a scenario")
    _add_common_options(verify, d)
    verify.add_argument(
        "--flip-claim",
        type=int,
        default=None,
        metavar="N",
        help="negate the Nth inferred value before certification (fault-injection self-test)",
    )

    sample = sub.add_parser("sample", help="run the scenario's seeded Monte Carlo measurements")
    _add_common_options(sample, d)
    sample.add_argument("--trials", type=int, default=d.trials, help=f"Monte Carlo trials (default {d.trials})")
    sample.add_argument("--seed", type=int, default=d.seed, help=f"sampling seed (default {d.seed})")
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--b-im -8e-05`` as ``--b-im=-8e-05``.

    argparse takes a dash-led token for an option name unless it looks like a
    plain decimal, so a negative value in exponent notation (or ``-inf``)
    would not reach its option.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and token.startswith("-") and _is_float(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        # an option the subcommand lacks (--flip-claim for sample; --trials, --seed for verify) keeps its default
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = run_command(args.command, config)
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
