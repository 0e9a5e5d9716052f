"""Independent oracles for cross-checking probabilities and spectra.

These deliberately avoid the library's projector-product route: joint
probabilities are computed by expanding the state in an explicit joint
eigenbasis (built by recursive eigenspace refinement) and summing squared
amplitudes.  The seeded draws of random test inputs live here too, a
hand-written reference for the CLI's compact JSON text, an argparse reading
of the CLI's command lines, and the anchor and text of each claim check,
flipped or not, written out from the paper's claim order.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import io
import math

import numpy as np

from serlab.cli import _OPTIONS
from serlab.states import PsiParams

CLUSTER_TOL = 1e-8


def _clusters(values: np.ndarray, tol: float = CLUSTER_TOL):
    """Slices of ascending ``values`` grouped by adjacent gaps > tol."""
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > tol:
            yield float(np.mean(values[start:stop])), slice(start, stop)
            start = stop


def joint_eigenspaces(matrices: list[np.ndarray]) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """Joint eigenspaces of commuting Hermitian matrices.

    Returns (value tuple, isometry whose columns span the joint eigenspace)
    for every combination of eigenvalues with a nonzero joint eigenspace.
    """
    dim = matrices[0].shape[0]
    blocks: list[tuple[tuple[float, ...], np.ndarray]] = [((), np.eye(dim, dtype=complex))]
    for mat in matrices:
        refined = []
        for values, iso in blocks:
            sub = iso.conj().T @ mat @ iso
            sub = (sub + sub.conj().T) / 2
            evs, vecs = np.linalg.eigh(sub)
            for value, block in _clusters(evs):
                refined.append((values + (value,), iso @ vecs[:, block]))
        blocks = refined
    return blocks


def joint_probability(amplitudes: np.ndarray, matrices: list[np.ndarray], values) -> float:
    """Born probability of a joint outcome via joint-eigenbasis expansion."""
    total = 0.0
    for block_values, iso in joint_eigenspaces(matrices):
        if all(abs(bv - v) <= CLUSTER_TOL for bv, v in zip(block_values, values)):
            coeffs = iso.conj().T @ amplitudes
            total += float(np.real(np.vdot(coeffs, coeffs)))
    return total


def marginal_z_probability(amplitudes: np.ndarray, particle: int, sign: int) -> float:
    """P(sigma_z(particle) = sign) by direct amplitude bookkeeping.

    Sums |amplitude|^2 over basis indices whose bit for ``particle`` matches
    ``sign`` (+1 -> bit 0), using only bit arithmetic on the raw index.
    """
    n = int(np.log2(len(amplitudes)))
    want_bit = 0 if sign > 0 else 1
    shift = n - particle
    total = 0.0
    for index, amp in enumerate(amplitudes):
        if (index >> shift) & 1 == want_bit:
            total += abs(amp) ** 2
    return total


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (mat + mat.conj().T) / 2


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def random_psi_params(rng: np.random.Generator) -> PsiParams:
    """Draw admissible (a, b) with random phases, away from the a*b = 0 boundary.

    |a|^2 is uniform in (0.01, 0.32); |b|^2 = 1 - 3|a|^2 then stays in
    (0.04, 0.97); both phases are uniform in [0, 2*pi).
    """
    mod_a_sq = rng.uniform(0.01, 0.32)
    mod_b_sq = 1.0 - 3.0 * mod_a_sq
    phase_a, phase_b = rng.uniform(0.0, 2.0 * np.pi, size=2)
    a = np.sqrt(mod_a_sq) * np.exp(1j * phase_a)
    b = np.sqrt(mod_b_sq) * np.exp(1j * phase_b)
    return PsiParams(a, b)


def distinct_eigenvalues(matrix: np.ndarray) -> list[float]:
    """Ascending distinct eigenvalues of a Hermitian matrix, clustered like the oracle's eigenspaces."""
    return [value for value, _ in _clusters(np.linalg.eigvalsh(matrix))]


def joint_sample_outcomes(
    amplitudes: np.ndarray, matrices: list[np.ndarray], seed: int, trials: int, negligible: float = 1e-15
) -> list[tuple[int, ...]]:
    """Per-trial reference sampler: each trial's outcome indices (into ascending eigenvalues).

    The rows are the joint outcomes of probability above ``negligible``, with
    probabilities from the joint-eigenbasis expansion, in lexicographic order
    of their index tuples.  Trial ``t`` takes the uniform at offset ``t`` of
    one PCG64DXSM stream seeded with ``seed`` and picks the row after the last
    cumulative threshold at or below it, so a uniform past the last threshold
    takes the last row.
    """
    spectra = [distinct_eigenvalues(m) for m in matrices]
    rows = []
    for values, iso in joint_eigenspaces(matrices):
        coeffs = iso.conj().T @ amplitudes
        p = float(np.real(np.vdot(coeffs, coeffs)))
        if p > negligible:
            index = tuple(
                next(i for i, s in enumerate(spectrum) if abs(s - v) <= CLUSTER_TOL)
                for spectrum, v in zip(spectra, values)
            )
            rows.append((index, p))
    rows.sort()
    cum = np.cumsum([p for _, p in rows])
    thresholds = list(cum[:-1] / cum[-1])
    uniforms = np.random.Generator(np.random.PCG64DXSM(seed)).random(trials).tolist()
    return [rows[bisect.bisect_right(thresholds, u)][0] for u in uniforms]



_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _reference_string(text: str) -> str:
    """ASCII-only JSON string: short escapes, printable ASCII as is, the rest as UTF-16 ``\\uXXXX`` units."""
    parts = []
    for char in text:
        code = ord(char)
        if char in _SHORT_ESCAPES:
            parts.append(_SHORT_ESCAPES[char])
        elif 0x20 <= code < 0x7F:
            parts.append(char)
        elif code > 0xFFFF:
            code -= 0x10000
            parts.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
        else:
            parts.append(f"\\u{code:04x}")
    return '"' + "".join(parts) + '"'


def _reference_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)  # shortest round-trip text, also for a float subclass such as np.float64


def _reference_key(key) -> str:
    if isinstance(key, str):
        return _reference_string(key)
    if key is None or key is True or key is False:
        return f'"{reference_json(key)}"'
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    if isinstance(key, float):
        return f'"{_reference_float(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def reference_json(value) -> str:
    """JSON text with no spaces that refuses NaN and infinities, as nested joins.

    Type precedence, key conversion and refusal messages follow the stdlib
    encoder; the first refused leaf, in the order the text is written, raises.
    """
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, str):
        return _reference_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _reference_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(reference_json, value)) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_reference_key(key)}:{reference_json(item)}" for key, item in value.items()) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# --- command lines, as argparse read them -------------------------------------


@functools.cache
def _argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="serlab")
    commands = parser.add_subparsers(dest="command", required=True)
    for flag, (field, kind, names, _) in _OPTIONS.items():
        for name in names.split():
            command = commands.choices.get(name) or commands.add_parser(name)
            command.add_argument(flag, dest=field, type=kind, default=argparse.SUPPRESS)
    return parser


def argparse_reading(argv: list[str]) -> tuple[str, dict] | None:
    """The command and given ``RunConfig`` fields that argparse reads from ``argv``, or None where it exits.

    The reference for ``cli._parse``: an argparse parser of ``cli._OPTIONS``, fed the line as the CLI fed it while
    argparse read its command lines.  A dash-led float after a float flag is attached to it first (``--b-im -8e-05``
    as ``--b-im=-8e-05``), since argparse takes a dash-led token other than a plain decimal for an option.  The flags
    have no choices, since which values are allowed is ``RunConfig``'s to say.  Help and every line argparse refuses
    give None, and what argparse writes then is dropped.
    """
    floats = {flag for flag, (_, kind, *_) in _OPTIONS.items() if kind is float}
    attached: list[str] = []
    for token in argv:
        if attached and attached[-1] in floats and token.startswith("-") and _is_float(token):
            attached[-1] += f"={token}"
        else:
            attached.append(token)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            given = vars(_argparse_parser().parse_args(attached))
        except SystemExit:
            return None
    return given.pop("command"), given


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# --- flipped claims, in --flip-claim order --------------------------------------

PSI_TARGETS = {  # the post-selected scenarios' targets and their flipped values
    "epr-psi": (("sigma_x(2)", "+1"), ("sigma_x(1)", "+1"), ("pi(1+2)", "+0")),
    "bell-hardy": (("sigma_z(2)", "+1"), ("sigma_z(1)", "+1"), ("pi(1+2)", "+0")),
}
PSI_UNFLIPPED = {  # the post-selected scenarios' claims before a flip: target=value, and the spin measured at +1
    "epr-psi": (("sigma_x(2)=-1", "sigma_z(1)"), ("sigma_x(1)=-1", "sigma_z(2)"), ("pi(1+2)=+1", "sigma_z(3)")),
    "bell-hardy": (("sigma_z(2)=-1", "sigma_x(1)"), ("sigma_z(1)=-1", "sigma_x(2)"), ("pi(1+2)=+1", "sigma_z(3)")),
}
GHZ_BRANCHES = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]
GHZ_TARGETS = {"epr-ghz": "A", "bell-ghz": "B"}  # claim 3b+k predicts the branch's k-th sign for <letter>_{k+1}


def flipped_anchor(scenario: str, index: int) -> str:
    """The anchor of the check that holds claim ``index``: its target, or its sign branch."""
    if scenario in PSI_TARGETS:
        return f"{scenario}:certainty:{PSI_TARGETS[scenario][index][0]}"
    return f"{scenario}:branch:" + ",".join(f"{e:+d}" for e in GHZ_BRANCHES[index // 3])


def flipped_claim_text(scenario: str, index: int) -> str:
    """Claim ``index`` after the flip, as ``label=value``: its target at the other eigenvalue."""
    if scenario in PSI_TARGETS:
        return "=".join(PSI_TARGETS[scenario][index])
    return f"{GHZ_TARGETS[scenario]}_{index % 3 + 1}={-GHZ_BRANCHES[index // 3][index % 3]:+d}"


def claim_check_text(scenario: str, slot: int, flip: int | None) -> str:
    """The description, before any failure detail, of claim check ``slot`` when claim ``flip`` is flipped."""
    if scenario in PSI_TARGETS:
        claim, given = PSI_UNFLIPPED[scenario][slot]
        return f"certified SER {flipped_claim_text(scenario, slot) if slot == flip else claim} given {given}=+1"
    branch = GHZ_BRANCHES[slot]
    values = ", ".join(
        flipped_claim_text(scenario, 3 * slot + k) if 3 * slot + k == flip else f"{GHZ_TARGETS[scenario]}_{k + 1}={e:+d}"
        for k, e in enumerate(branch)
    )
    return f"branch ({','.join(f'{e:+d}' for e in branch)}): SERs {values} all certified"
