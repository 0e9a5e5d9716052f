"""Independent oracles for cross-checking probabilities and spectra.

These deliberately avoid the library's projector-product route: joint
probabilities are computed by expanding the state in an explicit joint
eigenbasis (built by recursive eigenspace refinement) and summing squared
amplitudes.  The seeded draws of random test inputs live here too, and a
reference JSON emitter for the CLI's byte-deterministic output.
"""

from __future__ import annotations

import bisect
import json
import math

import numpy as np

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
    of their index tuples.  Trial ``t`` takes the Philox uniform at stream
    offset ``t`` and picks the row after the last cumulative threshold at or
    below it, so a uniform past the last threshold takes the last row.
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
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(trials).tolist()
    return [rows[bisect.bisect_right(thresholds, u)][0] for u in uniforms]


def reference_dumps(value) -> str:
    """The CLI's JSON emitter as nested joins: same type precedence, 17-digit floats and error messages."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(key))}:{reference_dumps(item)}" for key, item in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(reference_dumps, value)) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
