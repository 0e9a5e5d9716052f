"""Dense complex linear algebra for small multi-qubit Hilbert spaces.

Everything works on explicit numpy arrays (dimension <= 16), which keeps the
semantics transparent: states are amplitude vectors over the sigma_z product
basis, observables are Hermitian matrices, and eigenprojectors are formed
explicitly so probability and eigenspace arguments can be checked directly.

Basis convention: particle 1 is the most significant bit of the basis index;
bit value 0 means spin up along z (written ``+``), bit value 1 means spin down
(``-``).  For three particles, ``|+-+>`` therefore sits at index 0b010 = 2.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

import numpy as np

# One tolerance per class of quantity; the README's Tolerances table lists every use.
EXACT_ENTRY_TOL = 1e-12  # an operator entry that must be exact
OPERATOR_TOL = 1e-10  # an entry of a derived operator (commutator, locality residual)
EIGENVALUE_TOL = 1e-8  # an eigenvalue, or a product of eigenvalues
SCALAR_TOL = 1e-12  # a probability, norm or amplitude against 0, 1 or an expected value

_MAX_DIM = 16
_UNIT_NORM_TOL = 1e-8

__all__ = [
    "EXACT_ENTRY_TOL",
    "OPERATOR_TOL",
    "EIGENVALUE_TOL",
    "SCALAR_TOL",
    "StateVector",
    "Observable",
    "SpectralDecomposition",
    "tensor",
    "common_eigenstate_dim",
    "has_common_eigenstate",
    "acts_only_on",
    "basis_index",
    "basis_state",
]


def _check_dim(dim: int, what: str) -> None:
    if dim < 2 or dim & (dim - 1) or dim > _MAX_DIM:
        raise ValueError(f"{what} dimension must be a power of two in [2, {_MAX_DIM}], got {dim}")


def basis_index(pattern: str) -> int:
    """Index of the product-basis ket written as a +/- pattern, e.g. ``"+-+" -> 2``."""
    if not pattern or any(c not in "+-" for c in pattern):
        raise ValueError(f"pattern must be a nonempty string over '+'/'-', got {pattern!r}")
    return int("".join("0" if c == "+" else "1" for c in pattern), 2)


def _index(value) -> int:
    """``operator.index(value)``, except that a bool, which would pass as 0 or 1, raises ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError(f"an index must be an int, not bool ({value!r})")
    return operator.index(value)


class StateVector:
    """Normalized complex amplitude vector over the sigma_z product basis."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes, *, normalize: bool = False):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        _check_dim(amps.size, "state")
        with np.errstate(over="ignore"):  # a norm past the float range reads inf and is refused below
            norm = float(np.linalg.norm(amps))
        if not np.isfinite(norm):  # a non-finite amplitude gives a non-finite norm too
            raise ValueError("amplitudes and their norm must be finite")
        if norm < SCALAR_TOL:
            raise ValueError("state vector must be nonzero")
        if normalize:
            amps = amps / norm
        elif abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"amplitudes have norm {norm}; pass normalize=True to rescale")
        amps.setflags(write=False)
        self._amps = amps

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise ValueError("states live in different spaces")
        return complex(np.vdot(self._amps, other._amps))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def _ket(amplitudes: dict) -> np.ndarray:
    """The amplitude array of ``{pattern: amplitude}`` over same-length +/- patterns, zero elsewhere."""
    indices = [basis_index(pattern) for pattern in amplitudes]
    dim = 2 ** len(next(iter(amplitudes)))
    _check_dim(dim, "state")  # before the allocation
    amps = np.zeros(dim, dtype=complex)
    amps[indices] = list(amplitudes.values())
    return amps


def basis_state(pattern: str) -> StateVector:
    """The product-basis ket for a +/- pattern."""
    return StateVector(_ket({pattern: 1.0}))


class SpectralDecomposition(NamedTuple):
    """Distinct eigenvalues (ascending) with their orthogonal eigenprojectors.

    Numerically split degenerate eigenvalues are merged with clustering
    tolerance ``EIGENVALUE_TOL``; each projector is the sum of the
    outer products of the eigenvectors in its cluster.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def index_of(self, value: float) -> int:
        """Index of the eigenvalue nearest ``value``; ``ValueError`` if it is not within ``EIGENVALUE_TOL``.

        A NaN ``value`` is within no tolerance of any eigenvalue, so it raises.
        """
        distances = [abs(ev - value) for ev in self.eigenvalues]
        k = min(range(len(distances)), key=distances.__getitem__)
        if not distances[k] <= EIGENVALUE_TOL:
            raise ValueError(f"value {value} is not in the spectrum {self.eigenvalues}")
        return k


def _spectral_decomposition(matrix: np.ndarray) -> SpectralDecomposition:
    evals, vecs = np.linalg.eigh(matrix)
    values: list[float] = []
    projectors: list[np.ndarray] = []
    start = 0
    for stop in range(1, len(evals) + 1):
        if stop == len(evals) or evals[stop] - evals[stop - 1] > EIGENVALUE_TOL:
            block = vecs[:, start:stop]
            proj = block @ block.conj().T
            proj = (proj + proj.conj().T) / 2
            proj.setflags(write=False)
            values.append(float(np.mean(evals[start:stop])))
            projectors.append(proj)
            start = stop
    return SpectralDecomposition(tuple(values), tuple(projectors))


class Observable:
    """Immutable Hermitian operator with a lazily cached spectral decomposition.

    Neither the matrix nor ``label`` can change after construction, so one
    instance can be shared.
    """

    __slots__ = ("_matrix", "_label", "_spectral", "__weakref__")

    def __init__(self, entries, label: str | None = None):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator entries must form a square matrix, got shape {mat.shape}")
        _check_dim(mat.shape[0], "operator")
        if not np.isfinite(mat).all():
            raise ValueError("operator entries must be finite")
        deviation = float(np.max(np.abs(mat - mat.conj().T)))
        if deviation > EXACT_ENTRY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
        mat = mat / 2 + mat.conj().T / 2  # halving first cannot overflow; in range it is exact
        mat.setflags(write=False)
        self._matrix = mat
        self._label = label
        self._spectral = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def label(self) -> str | None:
        return self._label

    @property
    def name(self) -> str:
        """How reports and errors name this observable: its label, or ``O[<dim>x<dim>]`` without one."""
        return self._label or f"O[{self.dim}x{self.dim}]"

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_particles(self) -> int:
        return self.dim.bit_length() - 1

    def spectral(self) -> SpectralDecomposition:
        if self._spectral is None:
            self._spectral = _spectral_decomposition(self._matrix)
        return self._spectral

    def projector(self, value: float) -> np.ndarray:
        """The read-only eigenprojector of ``value``; ``ValueError`` for a value (NaN included) off the spectrum."""
        spectral = self.spectral()
        try:
            return spectral.projectors[spectral.index_of(value)]
        except ValueError:
            raise ValueError(f"{value} is not in the spectrum of {self.name}") from None

    def eigenvalues(self) -> tuple[float, ...]:
        """Distinct eigenvalues, ascending."""
        return self.spectral().eigenvalues

    def __repr__(self) -> str:
        name = self.label or "Observable"
        return f"{name}[{self.dim}x{self.dim}]"


def tensor(a, b):
    """Kronecker product of two states or two observables.

    The first factor is the most significant one: for states, particle order
    is preserved left to right; for operators, ``tensor(sigma_z, identity)``
    has diagonal (+1, +1, -1, -1).
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), normalize=True)
    if isinstance(a, Observable) and isinstance(b, Observable):
        label = f"{a.label}*{b.label}" if a.label and b.label else None
        return Observable(np.kron(a.matrix, b.matrix), label=label)
    raise TypeError("tensor expects two StateVectors or two Observables")


def common_eigenstate_dim(ops, values) -> int:
    """Dimension of the intersection of eigenspaces ``eigenspace(op_i, value_i)``.

    Each requested value is snapped to the nearest point of its operator's
    spectrum; a value farther than ``EIGENVALUE_TOL`` from every
    eigenvalue, or NaN, yields dimension 0.  The intersection dimension is
    computed as the nullspace dimension of
    ``sum_i (op_i - v_i)^dagger (op_i - v_i)``.
    """
    ops = list(ops)
    values = list(values)
    if not ops:
        raise ValueError("need at least one observable")
    if len(ops) != len(values):
        raise ValueError(f"got {len(ops)} observables but {len(values)} values")
    dim = ops[0].dim
    if any(op.dim != dim for op in ops):
        raise ValueError("all observables must act on the same space")

    snapped: list[float] = []
    for op, value in zip(ops, values):
        spectral = op.spectral()
        try:
            k = spectral.index_of(value)
        except ValueError:
            return 0
        snapped.append(spectral.eigenvalues[k])

    gram = np.zeros((dim, dim), dtype=complex)
    identity = np.eye(dim)
    for op, value in zip(ops, snapped):
        shifted = op.matrix - value * identity
        gram += shifted.conj().T @ shifted
    eigs = np.linalg.eigvalsh(gram)
    return int(np.count_nonzero(eigs < EIGENVALUE_TOL))


def has_common_eigenstate(ops) -> bool:
    """Whether any tuple of eigenvalues (one per operator) has a common eigenstate.

    Exhaustive loop over the Cartesian product of the operators' spectra.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one observable")

    spectra = [op.eigenvalues() for op in ops]
    return any(common_eigenstate_dim(ops, combo) >= 1 for combo in itertools.product(*spectra))


def acts_only_on(op: Observable, particles, n_particles: int) -> bool:
    """Whether ``op`` equals (operator on ``particles``) tensor identity on the rest.

    The reduced operator on the region is recovered by a normalized partial
    trace over the complement and compared entrywise against ``op`` within
    ``OPERATOR_TOL``.
    """
    n_particles = _index(n_particles)
    region = tuple(sorted({_index(p) for p in particles}))
    if op.dim != 2**n_particles:
        raise ValueError(f"operator dimension {op.dim} does not match {n_particles} particles")
    if any(p < 1 or p > n_particles for p in region):
        raise ValueError(f"particle indices {list(region)} out of range 1..{n_particles}")
    rest = [p for p in range(1, n_particles + 1) if p not in region]
    if not rest:
        return True

    perm = [p - 1 for p in region] + [p - 1 for p in rest]
    tens = op.matrix.reshape([2] * (2 * n_particles))
    tens = np.transpose(tens, perm + [n_particles + ax for ax in perm])
    d_region, d_rest = 2 ** len(region), 2 ** len(rest)
    blocks = tens.reshape(d_region, d_rest, d_region, d_rest)
    reduced = np.einsum("ajbj->ab", blocks) / d_rest
    rebuilt = np.kron(reduced, np.eye(d_rest))
    return float(np.max(np.abs(rebuilt - blocks.reshape(op.dim, op.dim)))) <= OPERATOR_TOL
