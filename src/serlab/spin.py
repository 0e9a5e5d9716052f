"""Spin observables: Pauli components, embeddings, and the named three-qubit operators."""

from __future__ import annotations

from enum import Enum
from functools import reduce

import numpy as np

from .hilbert import Observable, _index

__all__ = [
    "Axis",
    "pauli",
    "embed",
    "spin",
    "hardy_projector",
    "mermin_A",
    "mermin_B",
    "spin_product",
]


class Axis(Enum):
    """Measurement axis of a spin-1/2 component."""

    X = "x"
    Y = "y"
    Z = "z"


# Phase convention: sigma_y|+> = i|->, sigma_y|-> = -i|+>.  All certainty and
# probability statements in this package are invariant under the conjugate
# convention (checked by a dedicated test).
_SIGMA = {
    Axis.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    Axis.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    Axis.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: Axis) -> Observable:
    """Single-particle Pauli operator along ``axis`` (dimension 2)."""
    return Observable(_SIGMA[axis], label=f"sigma_{axis.value}")


def embed(op: Observable, particle: int, n_particles: int) -> Observable:
    """Lift a single-particle operator to the joint space of ``n_particles``.

    Identity on every other slot, respecting the most-significant-first
    particle ordering.
    """
    if op.dim != 2:
        raise ValueError("embed expects a single-particle (2x2) operator")
    particle, n_particles = _index(particle), _index(n_particles)
    if not 1 <= n_particles <= 4:
        raise ValueError(f"particle count must be in 1..4, got {n_particles}")
    if not 1 <= particle <= n_particles:
        raise ValueError(f"particle index {particle} out of range 1..{n_particles}")
    factors = [np.eye(2, dtype=complex)] * n_particles
    factors[particle - 1] = op.matrix
    label = f"{op.label or 'op'}({particle})"
    return Observable(reduce(np.kron, factors), label=label)


# The named operators below are shared: each factory returns one instance per
# argument tuple, built on its first call.  Integer arguments are normalised
# with operator.index first, so a numpy integer finds the int's instance and
# a bool or float, which hash like an int but would write "True" or "1.0"
# into the label, raises TypeError.  Arguments that make a build raise are
# never stored, so they raise on every call.  setdefault hands threads that
# race on a first call the same instance.  inference keeps each scenario's
# state-free part and the GHZ-Mermin state here, and the CLI the unflipped
# GHZ reports and their JSON text, so emptying this one dict rebuilds them all.
_SHARED: dict[tuple, object] = {}


def _shared(build, *args):
    key = (build, *args)
    value = _SHARED.get(key)
    if value is None:
        value = _SHARED.setdefault(key, build(*args))
    return value


def _embedded_pauli(axis: Axis, particle: int, n_particles: int) -> Observable:
    return embed(pauli(axis), particle, n_particles)


def spin(axis: Axis, particle: int, n_particles: int) -> Observable:
    """Pauli component of one particle embedded in the joint space."""
    return _shared(_embedded_pauli, axis, _index(particle), _index(n_particles))


def hardy_projector(n_particles: int = 2) -> Observable:
    """Projector onto the complement of ``|-->`` for particles 1 and 2.

    A non-local, non-factorizable observable on the first two particles; with
    ``n_particles=3`` the same observable acts inside the three-particle space
    (identity on particle 3).  Spectrum: eigenvalue 0 with multiplicity 1,
    eigenvalue 1 with multiplicity 3 (times 2 when embedded).
    """
    n_particles = _index(n_particles)
    if n_particles not in (2, 3):
        raise ValueError(f"supported particle counts are 2 and 3, got {n_particles}")
    return _shared(_hardy_projector, n_particles)


def _hardy_projector(n_particles: int) -> Observable:
    diagonal = np.ones(2**n_particles, dtype=complex)
    diagonal[3 << (n_particles - 2) :] = 0.0  # particles 1 and 2 both down: the two top index bits set
    return Observable(np.diag(diagonal), label="pi(1+2)")


_MERMIN_FACTORS = {
    "A": {1: (None, Axis.X, Axis.Y), 2: (Axis.Y, None, Axis.X), 3: (Axis.X, Axis.Y, None)},
    "B": {1: (None, Axis.Y, Axis.Y), 2: (Axis.Y, None, Axis.Y), 3: (Axis.Y, Axis.Y, None)},
}


def _pauli_product(factors, label: str) -> Observable:
    """The product of one Pauli factor per particle, given by its axis; ``None`` is the identity."""
    mats = [np.eye(2, dtype=complex) if axis is None else _SIGMA[axis] for axis in factors]
    return Observable(reduce(np.kron, mats), label=label)


def _mermin(name: str, j: int) -> Observable:
    j = _index(j)
    if j not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {j}")
    return _shared(_pauli_product, _MERMIN_FACTORS[name][j], f"{name}_{j}")


def mermin_A(j: int) -> Observable:
    """Two-particle spin product skipping particle j.

    A_1 = sigma_x(2) sigma_y(3), A_2 = sigma_y(1) sigma_x(3),
    A_3 = sigma_x(1) sigma_y(2); each has spectrum {-1, +1} with
    multiplicity 4 on the three-particle space.
    """
    return _mermin("A", j)


def mermin_B(j: int) -> Observable:
    """Two-particle sigma_y product skipping particle j.

    B_1 = sigma_y(2) sigma_y(3), B_2 = sigma_y(1) sigma_y(3),
    B_3 = sigma_y(1) sigma_y(2); the three pairwise commute and their
    product is the identity.
    """
    return _mermin("B", j)


def spin_product(axis: Axis, n_particles: int = 3) -> Observable:
    """Product of the same Pauli component on every particle."""
    n_particles = _index(n_particles)
    if not 2 <= n_particles <= 4:
        raise ValueError(f"particle count must be in 2..4, got {n_particles}")
    label = "*".join(spin(axis, k, n_particles).label for k in range(1, n_particles + 1))
    return _shared(_pauli_product, (axis,) * n_particles, label)
