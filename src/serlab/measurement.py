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
import threading
from dataclasses import dataclass

import numpy as np

from .hilbert import OPERATOR_TOL, SCALAR_TOL, Observable, StateVector, _index

# an outcome of Born probability at or below this is never drawn, nor listed as admissible when unseen
NEGLIGIBLE_PROBABILITY = 1e-15
RNG_ALGORITHM = "philox4x64"

# a multiple of 4, so every chunk starts on a Philox counter step (4 uniforms each) for any k
_CHUNK_TRIALS = 1 << 14

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
    """Whether the commutator ab - ba vanishes entrywise within ``OPERATOR_TOL``."""
    if a.dim != b.dim:
        raise ValueError("observables act on different spaces")
    return float(np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix))) < OPERATOR_TOL


class OutcomeAssignment:
    """Joint outcome (observable, eigenvalue) pairs over mutually commuting observables.

    Each value is matched to its observable's eigenprojector once, on
    construction; the joint projector is built from those on first use and
    kept on the instance.
    """

    __slots__ = ("_pairs", "_dim", "_projectors", "_projector")

    def __init__(self, pairs, *, dim: int | None = None):
        pairs = tuple((obs, float(value)) for obs, value in pairs)
        if pairs:
            first = pairs[0][0]
            if dim is not None and dim != first.dim:
                raise ValueError(f"explicit dim {dim} does not match observables of dim {first.dim}")
            dim = first.dim
        elif dim is None:
            raise ValueError("an empty assignment needs an explicit dim")
        self._projectors = tuple(obs.projector(value) for obs, value in pairs)
        _check_commuting(itertools.combinations([obs for obs, _ in pairs], 2))
        self._pairs = pairs
        self._dim = dim
        self._projector = None

    @property
    def pairs(self) -> tuple:
        return self._pairs

    @property
    def dim(self) -> int:
        return self._dim

    def joint_projector(self) -> np.ndarray:
        """Product of the eigenprojectors (order irrelevant by commutation), read-only."""
        if self._projector is None:
            self._projector = _projector_product(self._projectors, self._dim)
        return self._projector

    def describe(self) -> str:
        if not self._pairs:
            return "(no conditioning)"
        return ", ".join(f"{obs.name}={value:+g}" for obs, value in self._pairs)

    def __repr__(self) -> str:
        return f"OutcomeAssignment({self.describe()})"


def outcome_probability(state: StateVector, assignment: OutcomeAssignment) -> float:
    """Born probability of a joint outcome: <state| P_1 P_2 ... |state>, clamped to [0, 1]."""
    if assignment.dim != state.dim:
        raise ValueError("state and assignment live in different spaces")
    return _born(state, assignment.joint_projector())


def _born(state: StateVector, projector: np.ndarray) -> float:
    """<state| projector |state>, clamped to [0, 1]."""
    p = float(np.real(np.vdot(state.amplitudes, projector @ state.amplitudes)))
    return min(max(p, 0.0), 1.0)


def conditional_probability(state: StateVector, target, given: OutcomeAssignment) -> float:
    """P(target | given) = P(target and given) / P(given).

    Defined only when the target observable commutes with every conditioning
    observable; by commutation this equals the sequential (measure-given,
    then measure-target) probability.
    """
    obs, value = target
    if obs.dim != given.dim:
        raise ValueError("conditioning and target live in different spaces")
    projector = obs.projector(float(value))
    _check_commuting((conditioning, obs) for conditioning, _ in given.pairs)
    p_given = outcome_probability(state, given)
    if p_given <= SCALAR_TOL:
        raise ZeroProbabilityError(
            f"conditional on {given.describe()} undefined: outcome probability {p_given}"
        )
    p_joint = _born(state, given.joint_projector() @ projector)
    return min(p_joint / p_given, 1.0)


def collapse(state: StateVector, observable: Observable, value: float) -> StateVector:
    """Post-measurement state: eigenprojector applied and renormalized."""
    if observable.dim != state.dim:
        raise ValueError("state and observable live in different spaces")
    amps = observable.projector(value) @ state.amplitudes
    weight = float(np.real(np.vdot(amps, amps)))
    if weight <= SCALAR_TOL:
        raise ZeroProbabilityError(
            f"cannot collapse onto {observable.name}={value:+g}: outcome probability {weight}"
        )
    return StateVector(amps / np.sqrt(weight))


@dataclass(frozen=True)
class MeasurementRecord:
    """One sampled trial: (label, eigenvalue) outcomes and the final collapsed state."""

    trial: int
    outcomes: tuple[tuple[str, float], ...]
    post_state: StateVector


def _projector_product(projectors, dim: int) -> np.ndarray:
    """Read-only ``1 @ P_1 @ P_2 ...`` over ``projectors`` in order."""
    proj = np.eye(dim, dtype=complex)
    for p in projectors:
        proj = proj @ p
    proj.setflags(write=False)
    return proj


def _check_commuting(pairs) -> None:
    """Raise IncompatibleObservablesError on the first pair of observables that does not commute."""
    for a, b in pairs:
        if not commutes(a, b):
            raise IncompatibleObservablesError(f"{a.name} and {b.name} do not commute")


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
    """Validated observables, their branch tree, a chunk function and the chunk starts.

    Sequential Born-rule draws with Lüders collapse in the given order.
    ``chunk(start)`` is the leaf index of trials ``start`` up to
    ``start + _CHUNK_TRIALS`` (cut at ``trials``), for each ``start`` in the
    returned range.  It draws its ``k`` uniforms per trial from a new Philox
    generator on the run's key, its counter set to ``start*k // 4`` (4
    uniforms per step), so trial ``t`` still uses offsets
    ``t*k .. t*k + k - 1``, chunks can be drawn in any order or on any thread,
    and memory stays flat in ``trials``.
    """
    obs = list(observables)
    if not obs:
        raise ValueError("need at least one observable")
    _check_commuting(itertools.combinations(obs, 2))  # commutes() rejects a pair on different spaces
    if obs[0].dim != state.dim:
        raise ValueError("state and observables live in different spaces")
    seed, trials = _index(seed), _index(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    tree = _BranchTree(state, obs)
    k = len(obs)

    def chunk(start: int) -> np.ndarray:
        bits = np.random.Philox(counter=start * k // 4, key=seed & 0xFFFFFFFFFFFFFFFF)
        return tree.descend(np.random.Generator(bits).random((min(_CHUNK_TRIALS, trials - start), k)))

    return obs, tree, chunk, range(0, trials, _CHUNK_TRIALS)


def _outcomes(obs, prefix) -> tuple[float, ...]:
    return tuple(o.eigenvalues()[i] for o, i in zip(obs, prefix))


def sample_joint(state: StateVector, observables, seed: int, trials: int) -> list[MeasurementRecord]:
    """Sample ``trials`` joint measurements of a commuting observable list.

    Fully reproducible for a fixed (seed, trials, order); the records for the
    first N trials do not depend on the total trial count.
    """
    obs, tree, chunk, starts = _sample_leaves(state, observables, seed, trials)
    leaf_ids = np.concatenate([chunk(start) for start in starts]).tolist()
    labels = [o.name for o in obs]
    leaves = {}
    for leaf in set(leaf_ids):
        prefix, amps = tree.leaves[leaf]
        leaves[leaf] = (tuple(zip(labels, _outcomes(obs, prefix))), StateVector(amps))
    return [
        MeasurementRecord(trial=t, outcomes=leaves[leaf][0], post_state=leaves[leaf][1])
        for t, leaf in enumerate(leaf_ids)
    ]


def sample_counts(state: StateVector, observables, seed: int, trials: int) -> dict[tuple[float, ...], int]:
    """Aggregated joint-outcome counts; same stream and draws as :func:`sample_joint`.

    With more than one chunk, the caller counts the even-numbered chunks and
    one helper thread the odd-numbered ones (numpy releases the GIL while it
    draws and descends); the counts do not depend on the split.
    """
    obs, tree, chunk, starts = _sample_leaves(state, observables, seed, trials)

    def tally(part) -> np.ndarray:
        totals = np.zeros(len(tree.leaves), dtype=np.int64)
        for start in part:
            totals += np.bincount(chunk(start), minlength=len(tree.leaves))
        return totals

    if len(starts) == 1:
        totals = tally(starts)
    else:
        helper_out = []

        def helper() -> None:
            try:
                helper_out.append(tally(starts[1::2]))
            except BaseException as exc:  # re-raised in the caller after join
                helper_out.append(exc)

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            totals = tally(starts[0::2])
        finally:
            thread.join()
        if isinstance(helper_out[0], BaseException):
            raise helper_out[0]
        totals += helper_out[0]
    return {
        _outcomes(obs, prefix): int(count) for (prefix, _), count in zip(tree.leaves, totals) if count
    }
