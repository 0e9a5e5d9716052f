"""Projective measurement: Born probabilities, Lüders collapse, seeded sampling.

Joint operations are defined only for pairwise commuting observables, so every
probability here is a genuine joint-measurement probability and never a
silently order-dependent sequential one.

Sampling draws from the joint Born distribution over outcome tuples, which for
commuting observables is the sequential Lüders one.  A run keyed by ``seed``
reads one PCG64DXSM stream in order, one 64-bit output per uniform: trial
``t`` consumes exactly the uniform at offset ``t``, mapped through the
cumulative probabilities of the nonzero joint outcomes in lexicographic order.
Runs are therefore reproducible for a fixed (seed, trials, observable order),
and extending ``trials`` preserves the earlier trials unchanged.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .hilbert import OPERATOR_TOL, SCALAR_TOL, Observable, StateVector, _index

# an outcome of Born probability at or below this is never drawn, nor listed as admissible when unseen
NEGLIGIBLE_PROBABILITY = 1e-15
RNG_ALGORITHM = "pcg64dxsm"

# uniforms drawn at a time, so memory stays flat in the trial count
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
    """Whether every entry of the commutator ab - ba is at most ``OPERATOR_TOL`` in magnitude."""
    if a.dim != b.dim:
        raise ValueError("observables act on different spaces")
    return float(np.max(np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix))) <= OPERATOR_TOL


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
    weight = _weight(amps)
    if weight <= SCALAR_TOL:
        raise ZeroProbabilityError(
            f"cannot collapse onto {observable.name}={value:+g}: outcome probability {weight}"
        )
    return StateVector(amps / np.sqrt(weight))


class MeasurementRecord(NamedTuple):
    """One sampled trial: (label, eigenvalue) outcomes and the final collapsed state.

    An immutable named tuple ``(trial, outcomes, post_state)``.  The records of
    one joint outcome share that outcome's ``outcomes`` tuple and ``post_state``.
    """

    trial: int
    outcomes: tuple[tuple[str, float], ...]
    post_state: StateVector


def _weight(amplitudes: np.ndarray) -> float:
    """Squared norm of an amplitude vector."""
    return float(np.real(np.vdot(amplitudes, amplitudes)))


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


def _joint_table(state: StateVector, obs: list[Observable]) -> tuple[list, np.ndarray]:
    """The nonzero joint outcomes of a commuting observable list on ``state``, as one table.

    ``state`` passes through each observable's eigenprojectors in order; a
    prefix of probability at or below ``NEGLIGIBLE_PROBABILITY`` is dropped, so
    at most ``dim`` rows are left, in lexicographic order of their outcome
    indices.  Returns the rows, each (outcome indices, ``P psi / sqrt(p)``),
    and the cumulative thresholds: a uniform ``u`` takes the row whose index
    is the number of thresholds ``<= u``.
    """
    rows = [((), state.amplitudes)]
    for o in obs:
        projectors = o.spectral().projectors
        rows = [(prefix + (c,), proj @ amps) for prefix, amps in rows for c, proj in enumerate(projectors)]
        rows = [row for row in rows if _weight(row[1]) > NEGLIGIBLE_PROBABILITY]
    probs = np.array([_weight(amps) for _, amps in rows])
    cum = np.cumsum(probs)
    return [(prefix, amps / np.sqrt(p)) for (prefix, amps), p in zip(rows, probs)], cum[:-1] / cum[-1]


def _sample_table(state, observables, seed, trials):
    """Validated observables, their joint-outcome table and the run's uniforms, chunk by chunk.

    Trial ``t`` takes the uniform at offset ``t`` of one PCG64DXSM stream
    seeded with the seed's low 64 bits, drawn in order in chunks of
    ``_CHUNK_TRIALS``, so memory stays flat in ``trials`` and no uniform
    depends on the chunk size.
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
    rows, thresholds = _joint_table(state, obs)
    stream = np.random.Generator(np.random.PCG64DXSM(seed & 0xFFFFFFFFFFFFFFFF))
    uniforms = (stream.random(min(_CHUNK_TRIALS, trials - start)) for start in range(0, trials, _CHUNK_TRIALS))
    return obs, rows, thresholds, uniforms


def _outcomes(obs, prefix) -> tuple[float, ...]:
    return tuple(o.eigenvalues()[i] for o, i in zip(obs, prefix))


def sample_joint(state: StateVector, observables, seed: int, trials: int) -> list[MeasurementRecord]:
    """Sample ``trials`` joint measurements of a commuting observable list.

    Fully reproducible for a fixed (seed, trials, order); the records for the
    first N trials do not depend on the total trial count.  Each joint outcome's
    outcomes tuple and post-state are built once and shared by every record of
    that outcome; the records are then made in one pass over the trials.
    """
    obs, rows, thresholds, uniforms = _sample_table(state, observables, seed, trials)
    row_ids = np.concatenate([np.searchsorted(thresholds, u, side="right") for u in uniforms]).tolist()
    labels = [o.name for o in obs]
    outcomes = [tuple(zip(labels, _outcomes(obs, prefix))) for prefix, _ in rows]
    posts = [StateVector(amps) for _, amps in rows]
    # tuple.__new__ fills each record in C; calling MeasurementRecord would run its Python-level __new__ per trial
    fields = zip(range(trials), map(outcomes.__getitem__, row_ids), map(posts.__getitem__, row_ids))
    return list(map(tuple.__new__, itertools.repeat(MeasurementRecord), fields))


def sample_counts(state: StateVector, observables, seed: int, trials: int) -> dict[tuple[float, ...], int]:
    """Aggregated joint-outcome counts; same stream and draws as :func:`sample_joint`.

    Counts the uniforms below each threshold, chunk by chunk, and takes
    differences; no per-trial row index is formed.
    """
    obs, rows, thresholds, uniforms = _sample_table(state, observables, seed, trials)
    below = np.zeros(len(thresholds), dtype=np.int64)
    for u in uniforms:
        below += np.array([np.count_nonzero(u < c) for c in thresholds], dtype=np.int64)
    counts = np.diff(below, prepend=0, append=trials)
    return {_outcomes(obs, prefix): int(n) for (prefix, _), n in zip(rows, counts) if n}
