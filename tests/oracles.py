"""Independent oracles for cross-checking probabilities and spectra.

These deliberately avoid the library's projector-product route: joint
probabilities are computed by expanding the state in an explicit joint
eigenbasis (built by recursive eigenspace refinement) and summing squared
amplitudes.
"""

from __future__ import annotations

import bisect

import numpy as np

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


def distinct_eigenvalues(matrix: np.ndarray) -> list[float]:
    """Ascending distinct eigenvalues of a Hermitian matrix, clustered like the oracle's eigenspaces."""
    return [value for value, _ in _clusters(np.linalg.eigvalsh(matrix))]


def sequential_sample_outcomes(
    amplitudes: np.ndarray, matrices: list[np.ndarray], seed: int, trials: int, stray_tol: float = 1e-15
) -> list[tuple[int, ...]]:
    """Per-trial reference sampler: each trial's outcome indices (into ascending eigenvalues).

    Trial ``t`` takes the Philox uniforms at stream offsets ``t*k .. t*k + k - 1``
    and maps them one at a time through the Lüders-conditional cumulative
    probabilities of the outcome prefix drawn so far, P(prefix, c) / P(prefix),
    with joint probabilities from the joint-eigenbasis expansion; the
    conditionals of each prefix met are memoised.  A uniform that lands on a
    branch of probability <= ``stray_tol`` (roundoff past the last nonzero
    branch) takes the most probable branch.
    """
    spectra = [distinct_eigenvalues(m) for m in matrices]
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((trials, len(matrices))).tolist()
    memo: dict[tuple[int, ...], tuple[list[float], list[float], int]] = {}

    def branches(prefix):
        if prefix not in memo:
            depth = len(prefix)
            values = [spectra[d][i] for d, i in enumerate(prefix)]
            joint = [
                joint_probability(amplitudes, matrices[: depth + 1], values + [value]) for value in spectra[depth]
            ]
            probs = [p / sum(joint) for p in joint]
            memo[prefix] = (list(np.cumsum(probs)[:-1]), probs, int(np.argmax(probs)))
        return memo[prefix]

    outcomes = []
    for row in uniforms:
        prefix: tuple[int, ...] = ()
        for u in row:
            cum, probs, most_probable = branches(prefix)
            c = bisect.bisect_right(cum, u)
            if probs[c] <= stray_tol:
                c = most_probable
            prefix += (c,)
        outcomes.append(prefix)
    return outcomes
