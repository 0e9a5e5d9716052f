"""Projective measurement: Born probabilities, Lüders collapse, seeded sampling.

Joint operations are defined only for pairwise commuting observables, so every
probability here is a genuine joint-measurement probability and never a
silently order-dependent sequential one.

Sampling is counter-based: a run over ``k`` observables keyed by ``seed`` uses
a Philox (philox4x64) stream in which trial ``t`` consumes exactly the
uniforms at offsets ``t*k .. t*k + k - 1``.  Any trial can therefore be
regenerated independently of the others, runs are reproducible for a fixed
(seed, trials, observable order), and extending ``trials`` preserves the
earlier trials unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .hilbert import OPERATOR_TOL, SCALAR_TOL, Observable, StateVector, joint_fact

# an outcome of Born probability at or below this is never drawn, nor listed as admissible when unseen
NEGLIGIBLE_PROBABILITY = 1e-15
RNG_ALGORITHM = "philox4x64"

_CHUNK_TRIALS = 1 << 16

__all__ = [
    "NEGLIGIBLE_PROBABILITY",
    "RNG_ALGORITHM",
    "IncompatibleObservablesError",
    "ZeroProbabilityError",
    "OutcomeAssignment",
    "MeasurementRecord",
    "commutes",
    "outcome_probability",
    "conditional_probability",
    "collapse",
    "sample_joint",
    "sample_counts",
]


class IncompatibleObservablesError(ValueError):
    """An operation that requires commuting observables got a non-commuting pair."""


class ZeroProbabilityError(ValueError):
    """Conditioning or collapsing on an outcome whose probability is (numerically) zero."""


def commutes(a: Observable, b: Observable) -> bool:
    """Whether the commutator ab - ba vanishes entrywise within ``OPERATOR_TOL``.

    The commutator's largest entry is memoised on the pair (a, b).
    """
    if a.dim != b.dim:
        raise ValueError("observables act on different spaces")

    def largest_entry() -> float:
        return float(np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix)))

    return joint_fact((a, b), "commutes", largest_entry) < OPERATOR_TOL


def _label(obs: Observable) -> str:
    return obs.label or f"O[{obs.dim}x{obs.dim}]"


class OutcomeAssignment:
    """Joint outcome (observable, eigenvalue) pairs over mutually commuting observables.

    Each value is matched to its observable's spectral index once, on
    construction.  The joint projector is memoised per observable tuple and
    index tuple (see :func:`hilbert.joint_fact`), never per caller value.
    """

    __slots__ = ("_pairs", "_dim", "_indices")

    def __init__(self, pairs, *, dim: int | None = None):
        pairs = tuple((obs, float(value)) for obs, value in pairs)
        if pairs:
            first = pairs[0][0]
            if dim is not None and dim != first.dim:
                raise ValueError(f"explicit dim {dim} does not match observables of dim {first.dim}")
            dim = first.dim
        elif dim is None:
            raise ValueError("an empty assignment needs an explicit dim")
        self._indices = tuple(_spectral_index(obs, value, dim) for obs, value in pairs)
        _check_commuting([obs for obs, _ in pairs])
        self._pairs = pairs
        self._dim = dim

    @property
    def pairs(self) -> tuple:
        return self._pairs

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return len(self._pairs)

    def joint_projector(self) -> np.ndarray:
        """Product of the eigenprojectors (order irrelevant by commutation), read-only."""
        observables = tuple(obs for obs, _ in self._pairs)
        build = partial(_projector_product, observables, self._indices, self._dim)
        if not observables:  # no observable to hold the memo; the identity is cheap
            return build()
        return joint_fact(observables, ("joint_projector", self._indices), build)

    def extended(self, obs: Observable, value: float) -> "OutcomeAssignment":
        return OutcomeAssignment(self._pairs + ((obs, float(value)),), dim=self._dim)

    def describe(self) -> str:
        if not self._pairs:
            return "(no conditioning)"
        return ", ".join(f"{_label(obs)}={value:+g}" for obs, value in self._pairs)

    def __repr__(self) -> str:
        return f"OutcomeAssignment({self.describe()})"


def outcome_probability(state: StateVector, assignment: OutcomeAssignment) -> float:
    """Born probability of a joint outcome: <state| P_1 P_2 ... |state>, clamped to [0, 1]."""
    if assignment.dim != state.dim:
        raise ValueError("state and assignment live in different spaces")
    projected = assignment.joint_projector() @ state.amplitudes
    p = float(np.real(np.vdot(state.amplitudes, projected)))
    return min(max(p, 0.0), 1.0)


def conditional_probability(state: StateVector, target, given: OutcomeAssignment) -> float:
    """P(target | given) = P(target and given) / P(given).

    Defined only when the target observable commutes with every conditioning
    observable; by commutation this equals the sequential (measure-given,
    then measure-target) probability.
    """
    joint = given.extended(*target)
    p_given = outcome_probability(state, given)
    if p_given <= SCALAR_TOL:
        raise ZeroProbabilityError(
            f"conditional on {given.describe()} undefined: outcome probability {p_given}"
        )
    p_joint = outcome_probability(state, joint)
    return min(p_joint / p_given, 1.0)


def collapse(state: StateVector, observable: Observable, value: float) -> StateVector:
    """Post-measurement state: eigenprojector applied and renormalized."""
    if observable.dim != state.dim:
        raise ValueError("state and observable live in different spaces")
    proj = observable.spectral().projector_for(value)
    amps = proj @ state.amplitudes
    weight = float(np.real(np.vdot(amps, amps)))
    if weight <= SCALAR_TOL:
        raise ZeroProbabilityError(
            f"cannot collapse onto {_label(observable)}={value:+g}: outcome probability {weight}"
        )
    return StateVector(amps / np.sqrt(weight))


@dataclass(frozen=True)
class MeasurementRecord:
    """One sampled trial: (label, eigenvalue) outcomes and the final collapsed state."""

    trial: int
    outcomes: tuple[tuple[str, float], ...]
    post_state: StateVector


def _spectral_index(obs: Observable, value: float, dim: int) -> int:
    """Index of ``value`` in the spectrum of ``obs``, which must act on dimension ``dim``."""
    if obs.dim != dim:
        raise ValueError("all observables in an assignment must share a dimension")
    try:
        return obs.spectral().index_of(value)
    except ValueError:
        raise ValueError(f"{value} is not in the spectrum of {_label(obs)}") from None


def _projector_product(observables, indices, dim: int) -> np.ndarray:
    """Read-only ``1 @ P_1 @ P_2 ...``, with ``P_i`` the eigenprojector ``indices[i]`` of ``observables[i]``."""
    proj = np.eye(dim, dtype=complex)
    for obs, k in zip(observables, indices):
        proj = proj @ obs.spectral().projectors[k]
    proj.setflags(write=False)
    return proj


def _check_commuting(obs: list[Observable]) -> None:
    """Raise IncompatibleObservablesError on the first pair that does not commute."""
    for a, b in itertools.combinations(obs, 2):
        if not commutes(a, b):
            raise IncompatibleObservablesError(f"{_label(a)} and {_label(b)} do not commute")


def _require_commuting(observables) -> list[Observable]:
    obs = list(observables)
    if not obs:
        raise ValueError("need at least one observable")
    dim = obs[0].dim
    if any(o.dim != dim for o in obs):
        raise ValueError("all observables must act on the same space")
    _check_commuting(obs)
    return obs


class _BranchTree:
    """The sequential Lüders measurement tree of a commuting observable list, as tables.

    A node at depth ``d`` is an outcome prefix of length ``d`` that a draw can
    reach; nodes are numbered in lexicographic order of their prefixes.  For
    depth ``d``, ``cums[d][j, i]`` is node ``i``'s cumulative conditional
    probability of branches ``0..j`` (the last branch needs no threshold), and
    ``nexts[d][i * n_d + c]`` is the node a draw of branch ``c`` leads to,
    after the stray-branch remap.  ``leaves`` holds each leaf's outcome
    indices and collapsed amplitudes.
    """

    __slots__ = ("cums", "nexts", "leaves")

    def __init__(self, state: StateVector, obs: list[Observable]):
        nodes = [((), state.amplitudes)]
        self.cums, self.nexts = [], []
        for o in obs:
            projectors = o.spectral().projectors
            n = len(projectors)
            cums, nexts, children = [], [], []
            for prefix, amps in nodes:
                probs = np.array([max(float(np.real(np.vdot(amps, proj @ amps))), 0.0) for proj in projectors])
                cums.append(np.cumsum(probs)[:-1])
                # roundoff can push a uniform past the last nonzero branch
                remap = [c if probs[c] > NEGLIGIBLE_PROBABILITY else int(np.argmax(probs)) for c in range(n)]
                live = sorted(set(remap))
                nexts.extend(len(children) + live.index(c) for c in remap)
                children.extend((prefix + (c,), (projectors[c] @ amps) / np.sqrt(probs[c])) for c in live)
            self.cums.append(np.ascontiguousarray(np.array(cums).reshape(len(nodes), n - 1).T))
            self.nexts.append(np.array(nexts, dtype=np.intp))
            nodes = children
        self.leaves = nodes

    def descend(self, uniforms: np.ndarray) -> np.ndarray:
        """Leaf index of each row of ``uniforms`` (one column per depth)."""
        node = np.zeros(len(uniforms), dtype=np.intp)
        for d, (cum, nxt) in enumerate(zip(self.cums, self.nexts)):
            u = uniforms[:, d]
            branch = node * (len(cum) + 1)
            for col in cum:
                branch += col.take(node) <= u
            node = nxt.take(branch)
        return node


def _sample_leaves(state, observables, seed, trials):
    """Validated observables, their branch tree, and the leaf index of every trial in chunks.

    Sequential Born-rule draws with Lüders collapse in the given order.  The
    uniforms come from one Philox stream in chunks of ``_CHUNK_TRIALS`` rows
    of ``k`` draws, so trial ``t`` still uses offsets ``t*k .. t*k + k - 1``
    while memory stays flat in ``trials``.
    """
    obs = _require_commuting(observables)
    if obs[0].dim != state.dim:
        raise ValueError("state and observables live in different spaces")
    if trials < 1:
        raise ValueError("trials must be positive")
    tree = _BranchTree(state, obs)

    def chunks():
        gen = np.random.Generator(np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF))
        for start in range(0, trials, _CHUNK_TRIALS):
            yield tree.descend(gen.random((min(_CHUNK_TRIALS, trials - start), len(obs))))

    return obs, tree, chunks()


def _outcomes(obs, prefix) -> tuple[float, ...]:
    return tuple(o.eigenvalues()[i] for o, i in zip(obs, prefix))


def sample_joint(state: StateVector, observables, seed: int, trials: int) -> list[MeasurementRecord]:
    """Sample ``trials`` joint measurements of a commuting observable list.

    Fully reproducible for a fixed (seed, trials, order); the records for the
    first N trials do not depend on the total trial count.
    """
    obs, tree, chunks = _sample_leaves(state, observables, seed, trials)
    leaf_ids = np.concatenate(list(chunks)).tolist()
    labels = [_label(o) for o in obs]
    leaves = {}
    for leaf in set(leaf_ids):
        prefix, amps = tree.leaves[leaf]
        leaves[leaf] = (tuple(zip(labels, _outcomes(obs, prefix))), StateVector(amps))
    return [
        MeasurementRecord(trial=t, outcomes=leaves[leaf][0], post_state=leaves[leaf][1])
        for t, leaf in enumerate(leaf_ids)
    ]


def sample_counts(state: StateVector, observables, seed: int, trials: int) -> dict[tuple[float, ...], int]:
    """Aggregated joint-outcome counts; same stream and draws as :func:`sample_joint`."""
    obs, tree, chunks = _sample_leaves(state, observables, seed, trials)
    totals = np.zeros(len(tree.leaves), dtype=np.int64)
    for leaf_ids in chunks:
        totals += np.bincount(leaf_ids, minlength=len(tree.leaves))
    return {
        _outcomes(obs, prefix): int(count) for (prefix, _), count in zip(tree.leaves, totals) if count
    }
