"""Tests for Pauli components, embeddings, and the named three-qubit operators."""

import importlib
import os
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import serlab
from serlab import hilbert
from serlab.cli import main
from serlab.hilbert import Observable, basis_state
from serlab.measurement import OutcomeAssignment, commutes, conditional_probability, outcome_probability
from serlab.spin import Axis, embed, hardy_projector, mermin_A, mermin_B, pauli, spin, spin_product
from serlab.states import ghz_mermin_state

from oracles import random_hermitian

spin_module = importlib.import_module("serlab.spin")  # the package exports a function named spin


def test_pauli_z_eigenbasis():
    plus = basis_state("+")
    assert np.allclose(pauli(Axis.Z).matrix @ plus.amplitudes, plus.amplitudes)


def test_pauli_involutions():
    for axis in Axis:
        sq = pauli(axis).matrix @ pauli(axis).matrix
        assert np.allclose(sq, np.eye(2))


def test_pauli_commutation_relation():
    x, y, z = (pauli(a).matrix for a in (Axis.X, Axis.Y, Axis.Z))
    assert np.allclose(x @ y - y @ x, 2j * z)


def test_sigma_y_phase_convention():
    # sigma_y|+> = i|->, sigma_y|-> = -i|+>
    y = pauli(Axis.Y).matrix
    assert np.allclose(y @ [1, 0], [0, 1j])
    assert np.allclose(y @ [0, 1], [-1j, 0])


def test_embed_diagonals():
    assert np.allclose(np.diag(embed(pauli(Axis.Z), 1, 2).matrix), [1, 1, -1, -1])
    assert np.allclose(np.diag(embed(pauli(Axis.Z), 2, 2).matrix), [1, -1, 1, -1])


def test_embed_range_errors():
    with pytest.raises(ValueError):
        embed(pauli(Axis.Z), 0, 2)
    with pytest.raises(ValueError):
        embed(pauli(Axis.Z), 3, 2)
    with pytest.raises(ValueError):
        embed(Observable(np.eye(4)), 1, 2)


def test_embedded_disjoint_particles_commute_exactly():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = Observable(random_hermitian(rng, 2))
        b = Observable(random_hermitian(rng, 2))
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            ea, eb = embed(a, i, 3), embed(b, j, 3)
            comm = ea.matrix @ eb.matrix - eb.matrix @ ea.matrix
            assert np.max(np.abs(comm)) == 0.0


def test_hardy_projector_action():
    pi = hardy_projector()
    minus_minus = basis_state("--")
    assert np.allclose(pi.matrix @ minus_minus.amplitudes, 0.0)
    plus_plus = basis_state("++")
    assert np.allclose(pi.matrix @ plus_plus.amplitudes, plus_plus.amplitudes)
    assert np.allclose(pi.matrix @ pi.matrix, pi.matrix)


def test_hardy_projector_compatibility():
    pi = hardy_projector()
    assert commutes(pi, embed(pauli(Axis.Z), 1, 2))
    assert commutes(pi, embed(pauli(Axis.Z), 2, 2))
    assert not commutes(pi, embed(pauli(Axis.X), 1, 2))
    assert not commutes(pi, embed(pauli(Axis.X), 2, 2))


def test_mermin_a_definitions():
    x, y, ident = pauli(Axis.X).matrix, pauli(Axis.Y).matrix, np.eye(2)
    assert np.allclose(mermin_A(1).matrix, np.kron(ident, np.kron(x, y)))
    assert np.allclose(mermin_A(2).matrix, np.kron(y, np.kron(ident, x)))
    assert np.allclose(mermin_A(3).matrix, np.kron(x, np.kron(y, ident)))


def test_mermin_a_properties():
    assert commutes(mermin_A(1), spin(Axis.Y, 1, 3))
    assert np.allclose(mermin_A(3).matrix @ mermin_A(3).matrix, np.eye(8))
    spec = mermin_A(2).spectral()
    assert spec.eigenvalues == (-1.0, 1.0)
    assert all(abs(np.trace(p).real - 4.0) < 1e-9 for p in spec.projectors)
    with pytest.raises(ValueError):
        mermin_A(4)


def test_mermin_b_product_is_identity():
    product = mermin_B(1).matrix @ mermin_B(2).matrix @ mermin_B(3).matrix
    assert np.max(np.abs(product - np.eye(8))) < 1e-12


def test_mermin_b_pairwise_commute():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                assert commutes(mermin_B(i), mermin_B(j))


def test_mermin_b2_phase_action():
    # sigma_y(1) sigma_y(3) |+++> = i^2 |-+-> = -|-+->
    out = mermin_B(2).matrix @ basis_state("+++").amplitudes
    expected = -basis_state("-+-").amplitudes
    assert np.allclose(out, expected)


def test_spin_product_matches_embedded_product():
    xxx = spin_product(Axis.X, 3).matrix
    manual = spin(Axis.X, 1, 3).matrix @ spin(Axis.X, 2, 3).matrix @ spin(Axis.X, 3, 3).matrix
    assert np.allclose(xxx, manual)


def test_all_named_operators_hermitian_and_involutive():
    for op in [mermin_A(1), mermin_A(2), mermin_A(3), mermin_B(1), mermin_B(2), mermin_B(3)]:
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-12
        assert np.allclose(op.matrix @ op.matrix, np.eye(8))


def test_y_phase_convention_independence():
    """The certainty statements hold under the conjugate sigma_y convention too."""
    y_conj = Observable(pauli(Axis.Y).matrix.conj(), label="sigma_y_conj")
    state = ghz_mermin_state()
    x = pauli(Axis.X).matrix
    ident = np.eye(2)

    def embed3(mat, particle):
        mats = [ident] * 3
        mats[particle - 1] = mat
        return Observable(np.kron(np.kron(mats[0], mats[1]), mats[2]))

    a_ops = {
        1: Observable(np.kron(ident, np.kron(x, y_conj.matrix)), label="A_1'"),
        2: Observable(np.kron(y_conj.matrix, np.kron(ident, x)), label="A_2'"),
        3: Observable(np.kron(x, np.kron(y_conj.matrix, ident)), label="A_3'"),
    }
    b_ops = {
        1: Observable(np.kron(ident, np.kron(y_conj.matrix, y_conj.matrix)), label="B_1'"),
        2: Observable(np.kron(y_conj.matrix, np.kron(ident, y_conj.matrix)), label="B_2'"),
        3: Observable(np.kron(y_conj.matrix, np.kron(y_conj.matrix, ident)), label="B_3'"),
    }
    sy = {p: embed3(y_conj.matrix, p) for p in (1, 2, 3)}
    sx = {p: embed3(x, p) for p in (1, 2, 3)}

    for j in (1, 2, 3):
        for eps in (+1.0, -1.0):
            p = conditional_probability(state, (a_ops[j], eps), OutcomeAssignment([(sy[j], eps)]))
            assert abs(p - 1.0) < 1e-12
            p = conditional_probability(state, (b_ops[j], eps), OutcomeAssignment([(sx[j], eps)]))
            assert abs(p - 1.0) < 1e-12

    product = b_ops[1].matrix @ b_ops[2].matrix @ b_ops[3].matrix
    assert np.max(np.abs(product - np.eye(8))) < 1e-12
    xxx = spin_product(Axis.X, 3)
    assert abs(outcome_probability(state, OutcomeAssignment([(xxx, -1.0)])) - 1.0) < 1e-12


# --- shared instances ----------------------------------------------------------------


@pytest.mark.parametrize(
    "factory, args",
    [
        (spin, (Axis.X, 2, 3)),
        (spin, (Axis.Z, 1, 2)),
        (hardy_projector, ()),
        (hardy_projector, (3,)),
        (mermin_A, (1,)),
        (mermin_B, (3,)),
        (spin_product, (Axis.Y, 3)),
    ],
)
def test_named_operator_is_one_shared_instance(factory, args):
    assert factory(*args) is factory(*args)


def test_distinct_arguments_give_distinct_instances():
    assert spin(Axis.X, 1, 3) is not spin(Axis.X, 2, 3)
    assert hardy_projector(2) is not hardy_projector(3)
    assert mermin_A(1) is not mermin_B(1)


@pytest.mark.parametrize(
    "factory, args, error",
    [
        (spin, (Axis.X, 4, 3), ValueError),
        (spin, (Axis.X, 1, 5), ValueError),
        (spin, (Axis.X, 1.0, 3), TypeError),  # equal to a stored key, but not an int
        (spin, ("x", 1, 3), KeyError),
        (hardy_projector, (4,), ValueError),
        (mermin_A, (0,), ValueError),
        (mermin_B, (4,), ValueError),
        (spin_product, (Axis.Z, 5), ValueError),
        # a bool or float index hashes like an int but would be written into the label
        (spin, (Axis.X, True, 3), TypeError),
        (spin, (Axis.X, 1, 3.0), TypeError),
        (hardy_projector, (3.0,), TypeError),
        (hardy_projector, (True,), TypeError),
        (mermin_A, (True,), TypeError),
        (mermin_A, (1.0,), TypeError),
        (mermin_B, (np.float64(2),), TypeError),
        (spin_product, (Axis.X, 3.0), TypeError),
        (embed, (pauli(Axis.X), True, 3), TypeError),
        (embed, (pauli(Axis.X), 1, True), TypeError),
        (embed, (pauli(Axis.X), 2.0, 3), TypeError),
    ],
)
def test_named_operator_factories_raise_on_every_call(factory, args, error):
    spin(Axis.X, 1, 3)
    for _ in range(3):
        with pytest.raises(error):
            factory(*args)


@pytest.mark.parametrize(
    "factory, args, numpy_args",
    [
        (spin, (Axis.Y, 2, 3), (Axis.Y, np.int64(2), np.int32(3))),
        (hardy_projector, (3,), (np.int8(3),)),
        (mermin_A, (2,), (np.int64(2),)),
        (mermin_B, (3,), (np.uint16(3),)),
        (spin_product, (Axis.X, 3), (Axis.X, np.int64(3))),
    ],
)
def test_numpy_integer_arguments_share_the_int_instance(factory, args, numpy_args):
    assert factory(*numpy_args) is factory(*args)
    assert "np" not in factory(*numpy_args).label


def test_named_operators_are_not_built_at_import():
    src = os.path.dirname(os.path.dirname(serlab.__file__))
    code = "import sys, serlab.cli; print(len(sys.modules['serlab.spin']._SHARED))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_named_operators_decompose_once_across_verify_calls(monkeypatch, capsys):
    monkeypatch.setattr(spin_module, "_SHARED", {})  # rebuild the named operators inside this test
    decompositions = Counter()
    original = hilbert._spectral_decomposition

    def counting(matrix):
        decompositions[matrix.tobytes()] += 1
        return original(matrix)

    monkeypatch.setattr(hilbert, "_spectral_decomposition", counting)
    outputs = []
    for _ in range(2):
        assert main(["verify", "--scenario", "all", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(decompositions) >= 10
    assert max(decompositions.values()) == 1


def test_threads_racing_on_first_calls_share_one_instance(monkeypatch):
    monkeypatch.setattr(spin_module, "_SHARED", {})
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(k):
        barrier.wait(timeout=10)
        ops = [spin(axis, p, 3) for axis in Axis for p in (1, 2, 3)] + [mermin_A(j) for j in (1, 2, 3)]
        results[k] = (ops, [commutes(a, b) for a in ops for b in ops])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    ops, verdicts = results[0]
    assert verdicts == [commutes(Observable(a.matrix), Observable(b.matrix)) for a in ops for b in ops]
    for other_ops, other_verdicts in results[1:]:
        assert all(a is b for a, b in zip(other_ops, ops))
        assert other_verdicts == verdicts
