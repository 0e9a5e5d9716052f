"""Independent Born-rule reference for the benchmark's output checks.

Nothing here imports serlab.  The states are written out as plain numpy
amplitude vectors, each single-qubit eigenbasis is written down in closed
form, and outcome probabilities come from basis-change amplitudes
(<e_1 e_2 e_3|psi>, one basis change per particle), never from products of
eigenprojectors as in the program under test.

Conventions shared with serlab's README: particle 1 is the most significant
bit of a basis index, bit 0 is sigma_z = +1, and outcome values are the
eigenvalues -1 and +1.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

SCENARIOS = ("epr-psi", "epr-ghz", "bell-hardy", "bell-ghz")
PSI_SCENARIOS = ("epr-psi", "bell-hardy")

_R = 1.0 / math.sqrt(2.0)

# Columns are the eigenvectors for eigenvalue -1 and +1, in that order.
EIGENBASES = {
    "x": np.array([[_R, _R], [-_R, _R]], dtype=complex),
    "y": np.array([[_R, _R], [-1j * _R, 1j * _R]], dtype=complex),
    "z": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
}
VALUES = (-1.0, 1.0)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Measured axes per particle in each scenario's sampling plan, and the
# product every sampled outcome tuple must have (None: unconstrained).
PLANS = {
    "epr-psi": (("z", "z", "z"), None),
    "epr-ghz": (("y", "y", "y"), None),
    "bell-hardy": (("x", "x", "z"), None),
    "bell-ghz": (("x", "x", "x"), -1.0),
}

BORN_ZERO = 1e-15


def psi_amplitudes(a: complex, b: complex) -> np.ndarray:
    """a(|+++> - |+-+> - |-++>) + b|--->, normalized."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = a
    amps[0b010] = -a
    amps[0b100] = -a
    amps[0b111] = b
    return amps / np.linalg.norm(amps)


def ghz_amplitudes() -> np.ndarray:
    """(|+++> - |--->)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = _R
    amps[0b111] = -_R
    return amps


def scenario_state(scenario: str, a: complex | None = None, b: complex | None = None) -> np.ndarray:
    if scenario in PSI_SCENARIOS:
        return psi_amplitudes(a, b)
    return ghz_amplitudes()


def born_table(amplitudes: np.ndarray, axes) -> dict[tuple[float, ...], float]:
    """Joint outcome probabilities of single-qubit measurements along ``axes``.

    The amplitude of outcome (v_1, v_2, v_3) is <e_1 e_2 e_3|psi>, taken by
    changing basis on each particle in turn.
    """
    psi = np.asarray(amplitudes, dtype=complex).reshape((2,) * len(axes))
    for particle, axis in enumerate(axes):
        basis = EIGENBASES[axis]
        psi = np.moveaxis(np.tensordot(basis.conj().T, psi, axes=([1], [particle])), 0, particle)
    probs = np.abs(psi) ** 2
    return {
        tuple(VALUES[i] for i in index): float(probs[index])
        for index in itertools.product(range(2), repeat=len(axes))
    }


def plan_table(scenario: str, a: complex | None = None, b: complex | None = None) -> dict:
    axes, _ = PLANS[scenario]
    return born_table(scenario_state(scenario, a, b), axes)


def post_selection_probability(scenario: str, a: complex, b: complex) -> float:
    """P(sigma_z = +1 on all three) for epr-psi; P(x1=+1, x2=+1, z3=+1) for bell-hardy."""
    return plan_table(scenario, a, b)[(1.0, 1.0, 1.0)]


@functools.cache
def x_product_minus_probability() -> float:
    """P(sigma_x(1) sigma_x(2) sigma_x(3) = -1) on the GHZ-Mermin state."""
    table = born_table(ghz_amplitudes(), ("x", "x", "x"))
    return sum(p for values, p in table.items() if math.prod(values) < 0)


def embedded(axis: str, particle: int) -> np.ndarray:
    """sigma_axis on ``particle`` (1-based) of three, identity elsewhere."""
    factors = [np.eye(2, dtype=complex)] * 3
    factors[particle - 1] = PAULI[axis]
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


@functools.cache
def hardy_zero_operator_norm() -> float:
    """max |P(z1=-1) P(z2=-1) P(pi=1)|, with pi = 1 - |--><--| on particles 1, 2."""
    eye = np.eye(8)
    down1 = (eye - embedded("z", 1).real) / 2
    down2 = (eye - embedded("z", 2).real) / 2
    pi = eye - np.kron(np.diag([0.0, 0.0, 0.0, 1.0]), np.eye(2))
    return float(np.max(np.abs(down1 @ down2 @ pi)))


@functools.cache
def mermin_identity_deviation() -> float:
    """max |B_1 B_2 B_3 - 1| with B_j the sigma_y product skipping particle j."""
    b = [embedded("y", j) @ embedded("y", k) for j, k in ((2, 3), (1, 3), (1, 2))]
    return float(np.max(np.abs(b[0] @ b[1] @ b[2] - np.eye(8))))


def kl_bernoulli(q: float, p: float) -> float:
    """KL(Bernoulli(q) || Bernoulli(p)) in nats; inf when q > 0 and p == 0."""
    total = 0.0
    for x, y in ((q, p), (1.0 - q, 1.0 - p)):
        if x > 0.0:
            if y <= 0.0:
                return math.inf
            total += x * math.log(x / y)
    return total


def multinomial_log_tail(counts: dict, probs: dict, trials: int) -> float:
    """Smallest Chernoff log-bound on a cell's tail, over the outcome cells.

    For a cell with Born probability p and observed count c out of n trials,
    P(a count at least as far from n*p as c) <= exp(-n KL(c/n || p)).  The
    returned value is min over cells of -n KL(c/n || p), so a union bound
    over the cells and both tails puts the chance that an honest sample
    goes below log(alpha / (2 * cells)) at no more than alpha.
    """
    worst = 0.0
    for outcome, p in probs.items():
        q = counts.get(outcome, 0) / trials
        worst = min(worst, -trials * kl_bernoulli(q, p))
    return worst
