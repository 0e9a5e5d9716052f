"""Tests for the named states, including the central random-parameter property suite."""

import numpy as np
import pytest

from serlab.hilbert import SCALAR_TOL, basis_state, tensor
from serlab.measurement import (
    OutcomeAssignment,
    collapse,
    conditional_probability,
    outcome_probability,
)
from serlab.spin import Axis, hardy_projector, spin, spin_product
from serlab.states import PsiParams, ghz_mermin_state, hardy_state, psi_state, random_psi_params

from oracles import marginal_z_probability


def test_psi_params_validation():
    PsiParams(0.5, 0.5)
    PsiParams(0.1, np.sqrt(0.97))  # 3*0.01 + 0.97 = 1
    with pytest.raises(ValueError, match="must equal 1"):
        PsiParams(0.1, 0.5)
    with pytest.raises(ValueError, match="nonzero"):
        PsiParams(0.0, 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        PsiParams(1 / np.sqrt(3.0), 0.0)
    for bad in (float("nan"), float("inf"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            PsiParams(bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            PsiParams(0.5, bad)


def test_psi_params_reject_a_below_zero_probability_tolerance():
    # the scenarios condition on sigma_z outcomes of probability 2|a|^2, which must stay above it
    at_bound = np.sqrt(SCALAR_TOL)
    for a in (at_bound, 7e-7, 1e-9):
        with pytest.raises(ValueError, match="zero-probability tolerance"):
            PsiParams(a, np.sqrt(1.0 - 3.0 * a**2))
    above = np.nextafter(at_bound, 1.0)
    assert abs(above) ** 2 > SCALAR_TOL
    PsiParams(above, np.sqrt(1.0 - 3.0 * above**2))


def test_psi_state_amplitudes():
    state = psi_state(PsiParams(0.5, 0.5))
    assert state.amplitude("+++") == pytest.approx(0.5)
    assert state.amplitude("+-+") == pytest.approx(-0.5)
    assert state.amplitude("-++") == pytest.approx(-0.5)
    assert state.amplitude("---") == pytest.approx(0.5)
    nonzero = [i for i, a in enumerate(state.amplitudes) if abs(a) > 0]
    assert nonzero == [0, 2, 4, 7]
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def _normalized(amps):
    amps = np.array(amps, dtype=complex)
    return amps / np.linalg.norm(amps)


NAMED_KETS = [
    (lambda: basis_state("+-+"), np.array([0, 0, 1, 0, 0, 0, 0, 0], dtype=complex)),
    (lambda: psi_state(PsiParams(0.5, 0.5)), np.array([0.5, 0, -0.5, 0, -0.5, 0, 0, 0.5], dtype=complex)),
    (
        lambda: psi_state(PsiParams(0.3 + 0.4j, 0.5j)),
        _normalized([0.3 + 0.4j, 0, -0.3 - 0.4j, 0, -0.3 - 0.4j, 0, 0, 0.5j]),
    ),
    (hardy_state, np.array([1, -1, -1, 0], dtype=complex) / np.sqrt(3.0)),
    (ghz_mermin_state, np.array([1, 0, 0, 0, 0, 0, 0, -1], dtype=complex) / np.sqrt(2.0)),
]


@pytest.mark.parametrize("build, expected", NAMED_KETS, ids=["basis", "psi", "psi-complex", "hardy", "ghz"])
def test_named_ket_is_bitwise_its_written_out_amplitudes(build, expected):
    assert np.array_equal(build().amplitudes, expected)


def test_psi_collapse_on_third_particle_gives_hardy_product():
    state = psi_state(PsiParams(0.5, 0.5))
    collapsed = collapse(state, spin(Axis.Z, 3, 3), +1.0)
    expected = tensor(hardy_state(), basis_state("+"))
    assert collapsed.parallel_to(expected)


def test_hardy_state_structure():
    eta = hardy_state()
    assert eta.amplitude("--") == 0.0
    assert abs(np.linalg.norm(eta.amplitudes) - 1.0) < 1e-12
    projected = hardy_projector().matrix @ eta.amplitudes
    assert np.max(np.abs(projected - eta.amplitudes)) < 1e-12


def test_ghz_state_structure():
    mu = ghz_mermin_state()
    assert mu.amplitude("+++") == pytest.approx(1 / np.sqrt(2))
    assert mu.amplitude("---") == pytest.approx(-1 / np.sqrt(2))
    assert np.count_nonzero(mu.amplitudes) == 2


def test_ghz_x_product_expectation():
    mu = ghz_mermin_state()
    xxx = spin_product(Axis.X, 3)
    assert xxx.expectation(mu) == pytest.approx(-1.0, abs=1e-12)


def test_ghz_z_marginal_is_balanced():
    # Oracle: direct bit bookkeeping on the raw amplitudes gives P(z1=+1) = 1/2,
    # so the expectation of sigma_z(1) vanishes.
    mu = ghz_mermin_state()
    p_up = marginal_z_probability(mu.amplitudes, 1, +1)
    assert p_up == pytest.approx(0.5, abs=1e-12)
    assert spin(Axis.Z, 1, 3).expectation(mu) == pytest.approx(2 * p_up - 1.0, abs=1e-12)


def test_psi_property_suite_random_parameters():
    """Certainties and post-selection weights across 100 random (a, b), any phases."""
    rng = np.random.default_rng(2024)
    sz = {p: spin(Axis.Z, p, 3) for p in (1, 2, 3)}
    sx = {p: spin(Axis.X, p, 3) for p in (1, 2)}
    pi3 = hardy_projector(3)
    ket_plus = basis_state("+")
    eta = hardy_state()

    for _ in range(100):
        params = random_psi_params(rng)
        state = psi_state(params)

        certainties = [
            ((sx[2], -1.0), OutcomeAssignment([(sz[1], +1.0)])),
            ((sx[1], -1.0), OutcomeAssignment([(sz[2], +1.0)])),
            ((pi3, 1.0), OutcomeAssignment([(sz[3], +1.0)])),
            ((sz[2], -1.0), OutcomeAssignment([(sx[1], +1.0)])),
            ((sz[1], -1.0), OutcomeAssignment([(sx[2], +1.0)])),
        ]
        for target, given in certainties:
            assert conditional_probability(state, target, given) == pytest.approx(1.0, abs=1e-12)

        p_zzz = outcome_probability(state, OutcomeAssignment([(sz[1], 1.0), (sz[2], 1.0), (sz[3], 1.0)]))
        assert p_zzz == pytest.approx(abs(params.a) ** 2, abs=1e-12)

        p_xxz = outcome_probability(state, OutcomeAssignment([(sx[1], 1.0), (sx[2], 1.0), (sz[3], 1.0)]))
        assert p_xxz == pytest.approx(abs(params.a) ** 2 / 4.0, abs=1e-12)

        collapsed = collapse(state, sz[3], +1.0)
        assert collapsed.parallel_to(tensor(eta, ket_plus))


def test_random_psi_params_respect_constraint():
    rng = np.random.default_rng(99)
    for _ in range(50):
        params = random_psi_params(rng)
        assert 3 * abs(params.a) ** 2 + abs(params.b) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(params.a) > 1e-12 and abs(params.b) > 1e-12
