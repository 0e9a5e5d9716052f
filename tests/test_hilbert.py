"""Tests for states, observables, tensor products, and eigenspace intersection."""

import itertools

import numpy as np
import pytest

from serlab.hilbert import (
    Observable,
    StateVector,
    acts_only_on,
    basis_index,
    basis_state,
    common_eigenstate_dim,
    has_common_eigenstate,
    tensor,
)
from serlab.inference import SCENARIO_TABLE, run_scenario
from serlab.spin import Axis, embed, hardy_projector, mermin_A, mermin_B, pauli, spin
from serlab.states import PsiParams

from oracles import random_hermitian, random_unitary


def identity(dim):
    return Observable(np.eye(dim), label=f"I{dim}")


# --- basis conventions -------------------------------------------------------


def test_basis_index_convention():
    assert basis_index("+++") == 0
    assert basis_index("+-+") == 2
    assert basis_index("-++") == 4
    assert basis_index("---") == 7


def test_basis_state_roundtrip():
    ket = basis_state("+-")
    assert ket.amplitudes[1] == 1.0
    assert ket.amplitudes[basis_index("+-")] == 1.0


def test_basis_state_checks_the_dimension_before_allocating():
    # 2**40 amplitudes would need 16 TiB
    with pytest.raises(ValueError, match="power of two in"):
        basis_state("+" * 40)


def test_state_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])  # not a power of two
    with pytest.raises(ValueError):
        StateVector([0.0, 0.0])  # zero vector
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])  # unnormalized without normalize=True
    sv = StateVector([1.0, 1.0], normalize=True)
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-12


def test_state_vector_immutable():
    sv = basis_state("+")
    with pytest.raises(ValueError):
        sv.amplitudes[0] = 0.0


def test_state_vector_rejects_nan_amplitude():
    # a NaN norm fails every comparison, so it slipped past both norm checks
    for normalize in (False, True):
        with pytest.raises(ValueError, match="finite"):
            StateVector([np.nan, 0.0], normalize=normalize)


def test_normalising_refuses_a_norm_past_the_float_range():
    # the norm 2.8e308 overflowed to inf, and amplitudes / inf stored the zero vector
    with pytest.raises(ValueError, match="norm must be finite"):
        StateVector([1e308] * 8, normalize=True)
    # well inside the float range the same direction is accepted
    assert np.allclose(StateVector([1e150] * 8, normalize=True).amplitudes, 8**-0.5)


def test_observable_with_entries_near_the_float_maximum_keeps_them():
    # symmetrising as (mat + mat^H) / 2 overflowed the sum to inf and stored inf+nanj entries
    entries = [[1e308, 1e308], [1e308, 1e308]]
    assert np.array_equal(Observable(entries).matrix, entries)
    op = Observable([[1e308, 1e307j], [-1e307j, 1e308]])
    assert np.allclose(op.eigenvalues(), (0.9e308, 1.1e308), rtol=1e-12, atol=0.0)
    assert np.allclose(sum(op.spectral().projectors), np.eye(2))


def test_observable_rejects_nan_entry():
    with pytest.raises(ValueError, match="finite"):
        Observable([[np.nan, 0.0], [0.0, 1.0]])


def test_observable_rejects_infinite_entries():
    # inf - inf is NaN, and a NaN deviation passed the Hermitian test
    with pytest.raises(ValueError, match="finite"):
        Observable([[1.0, np.inf], [np.inf, 1.0]])


def test_observable_label_is_read_only():
    op = Observable(np.eye(2), label="I")
    with pytest.raises(AttributeError):
        op.label = "J"
    assert op.label == "I"
    shared = spin(Axis.Z, 1, 3)
    with pytest.raises(AttributeError):
        shared.label = "renamed"
    assert shared.label == "sigma_z(1)"


# --- tensor -------------------------------------------------------------------


def test_tensor_identities():
    i2 = identity(2)
    assert np.allclose(tensor(i2, i2).matrix, np.eye(4))


def test_tensor_sigma_z_identity_ordering():
    got = tensor(pauli(Axis.Z), identity(2))
    assert np.allclose(np.diag(got.matrix), [1, 1, -1, -1])


def test_tensor_states_index_convention():
    # |+> (x) |-> is the dim-4 basis vector at index 1
    product = tensor(basis_state("+"), basis_state("-"))
    assert product.dim == 4
    assert product.amplitudes[1] == 1.0


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor(basis_state("+"), identity(2))


def test_tensor_associative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c = (Observable(random_hermitian(rng, 2)) for _ in range(3))
        left = tensor(tensor(a, b), c).matrix
        right = tensor(a, tensor(b, c)).matrix
        assert np.max(np.abs(left - right)) < 1e-14


# --- spectral decomposition -----------------------------------------------------


def test_spectral_sigma_z():
    spec = pauli(Axis.Z).spectral()
    assert spec.eigenvalues == (-1.0, 1.0)
    assert np.allclose(spec.projectors[spec.index_of(-1.0)], [[0, 0], [0, 1]])
    assert np.allclose(spec.projectors[spec.index_of(+1.0)], [[1, 0], [0, 0]])


def test_spectral_index_of_rejects_nan():
    spec = spin(Axis.Z, 1, 3).spectral()
    assert spec.index_of(-1.0) == 0 and spec.index_of(1.0 + 1e-9) == 1
    with pytest.raises(ValueError, match="spectrum"):
        spec.index_of(float("nan"))


def test_projector_is_the_spectral_eigenprojector_and_name_defaults_to_the_shape():
    sz1 = spin(Axis.Z, 1, 3)
    spec = sz1.spectral()
    assert sz1.projector(1.0 + 1e-9) is spec.projectors[spec.index_of(1.0)]
    assert not sz1.projector(-1.0).flags.writeable
    assert sz1.name == "sigma_z(1)" and Observable(sz1.matrix).name == "O[8x8]"
    with pytest.raises(ValueError, match=r"^nan is not in the spectrum of sigma_z\(1\)$"):
        sz1.projector(float("nan"))


def test_spectral_hardy_projector_ranks():
    spec = hardy_projector().spectral()
    assert np.allclose(spec.eigenvalues, (0.0, 1.0))
    ranks = [int(round(np.trace(p).real)) for p in spec.projectors]
    assert ranks == [1, 3]


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(23)
    for dim in (2, 4, 8):
        for _ in range(20):
            mat = random_hermitian(rng, dim)
            spec = Observable(mat).spectral()
            rebuilt = sum(value * p for value, p in zip(spec.eigenvalues, spec.projectors))
            assert np.max(np.abs(rebuilt - mat)) < 1e-10
            total = sum(spec.projectors)
            assert np.max(np.abs(total - np.eye(dim))) < 1e-10
            for i, p in enumerate(spec.projectors):
                assert np.max(np.abs(p @ p - p)) < 1e-10
                for q in spec.projectors[i + 1 :]:
                    assert np.max(np.abs(p @ q)) < 1e-10
            assert all(x < y for x, y in zip(spec.eigenvalues, spec.eigenvalues[1:]))


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Observable([[0.0, 1.0], [0.0, 0.0]])


def test_spectral_deterministic():
    mat = random_hermitian(np.random.default_rng(5), 8)
    a = Observable(mat).spectral()
    b = Observable(mat).spectral()
    assert a.eigenvalues == b.eigenvalues
    for p, q in zip(a.projectors, b.projectors):
        assert np.array_equal(p, q)


def test_degenerate_eigenvalues_are_clustered():
    # Conjugated diagonal with a doubly degenerate eigenvalue split only by roundoff
    rng = np.random.default_rng(31)
    u = random_unitary(rng, 4)
    diag = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
    spec = Observable(u @ diag @ u.conj().T).spectral()
    assert len(spec.eigenvalues) == 3
    assert abs(np.trace(spec.projectors[spec.index_of(1.0)]).real - 2.0) < 1e-9


# --- common eigenstates -----------------------------------------------------------


def test_common_eigenstate_dim_product_basis():
    ops = [tensor(pauli(Axis.Z), identity(2)), tensor(identity(2), pauli(Axis.Z))]
    assert common_eigenstate_dim(ops, [+1.0, +1.0]) == 1


def test_common_eigenstate_dim_hardy_triple_is_zero():
    ops = [
        tensor(pauli(Axis.X), identity(2)),
        tensor(identity(2), pauli(Axis.X)),
        hardy_projector(),
    ]
    for vx1 in (-1.0, +1.0):
        for vx2 in (-1.0, +1.0):
            for vpi in (0.0, 1.0):
                assert common_eigenstate_dim(ops, [vx1, vx2, vpi]) == 0


def test_common_eigenstate_dim_mermin_pairs_zero():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                for vi in (-1.0, +1.0):
                    for vj in (-1.0, +1.0):
                        assert common_eigenstate_dim([mermin_A(i), mermin_A(j)], [vi, vj]) == 0


def test_common_eigenstate_value_not_in_spectrum():
    assert common_eigenstate_dim([pauli(Axis.Z)], [0.5]) == 0
    assert common_eigenstate_dim([spin(Axis.Z, 1, 3)], [float("nan")]) == 0
    assert common_eigenstate_dim([pauli(Axis.Z)], [1.0 + 1e-7]) == 0
    # but a value within the clustering tolerance is snapped onto the spectrum
    assert common_eigenstate_dim([pauli(Axis.Z)], [1.0 + 1e-9]) == 1


def test_has_common_eigenstate_cases():
    assert has_common_eigenstate([tensor(pauli(Axis.Z), identity(2)), tensor(identity(2), pauli(Axis.Z))])
    assert not has_common_eigenstate(
        [tensor(pauli(Axis.X), identity(2)), tensor(identity(2), pauli(Axis.X)), hardy_projector()]
    )
    assert not has_common_eigenstate([pauli(Axis.X), pauli(Axis.Z)])
    # the only shared eigenvector, |++>, sits at the last eigenvalue (3) of the last operator: B's other
    # eigenvectors each mix |+->, in sigma_z(1)'s +1 eigenspace, with |-+> or |-->, in its -1 eigenspace
    r3, r2, r6 = np.sqrt([3.0, 2.0, 6.0])
    vectors = np.array(  # columns: B's eigenvectors for 3, 0, 1, 2, over |++>, |+->, |-+>, |-->
        [[1, 0, 0, 0], [0, 1 / r3, 1 / r2, 1 / r6], [0, 1 / r3, -1 / r2, 1 / r6], [0, 1 / r3, 0, -2 / r6]]
    )
    b = Observable(vectors @ np.diag([3.0, 0.0, 1.0, 2.0]) @ vectors.T)
    assert has_common_eigenstate([tensor(pauli(Axis.Z), identity(2)), b])
    with pytest.raises(ValueError):
        has_common_eigenstate([])


def test_commuting_set_joint_eigenbasis_completeness():
    # For commuting sets, the joint eigenspace dimensions over all value tuples
    # partition the space.
    rng = np.random.default_rng(419)
    for dim in (4, 8):
        for _ in range(5):
            u = random_unitary(rng, dim)
            ops = []
            for _ in range(2):
                diag = np.diag(rng.integers(0, 3, size=dim).astype(float)).astype(complex)
                ops.append(Observable(u @ diag @ u.conj().T))
            total = 0
            for va in ops[0].eigenvalues():
                for vb in ops[1].eigenvalues():
                    total += common_eigenstate_dim(ops, [va, vb])
            assert total == dim
            assert has_common_eigenstate(ops)


def _summed_joint_dims(ops) -> int:
    """``common_eigenstate_dim`` of ``ops`` summed over every combination of their spectra."""
    return sum(common_eigenstate_dim(ops, combo) for combo in itertools.product(*(op.eigenvalues() for op in ops)))


def _paper_commuting_sets():
    """Every measured triple, B_1..B_3, and each claim's conditioning observable with its target."""
    sets = [[make() for make in spec.measured] for spec in SCENARIO_TABLE.values()]
    sets.append([mermin_B(j) for j in (1, 2, 3)])
    for name, spec in SCENARIO_TABLE.items():
        report = run_scenario(name, PsiParams(0.5, 0.5) if spec.needs_params else None)
        for claim, _ in report.certified_claims:
            sets.append([obs for obs, _ in claim.conditioning.pairs] + [claim.observable])
    return sets


def test_paper_commuting_sets_have_complete_joint_eigenbases():
    sets = _paper_commuting_sets()
    assert len(sets) == 4 + 1 + 2 * 3 + 2 * 24
    for ops in sets:
        assert _summed_joint_dims(ops) == 8, [op.label for op in ops]
    # a non-commuting pair shares no eigenstate at any combination of values
    assert _summed_joint_dims([spin(Axis.X, 1, 3), spin(Axis.Z, 1, 3)]) == 0


# --- locality of operators ---------------------------------------------------------


def test_acts_only_on_embedded_operator():
    op = embed(pauli(Axis.X), 2, 3)
    assert acts_only_on(op, {2}, 3)
    assert acts_only_on(op, {2, 3}, 3)  # superset of the support is fine
    assert not acts_only_on(op, {1}, 3)
    assert not acts_only_on(op, {3}, 3)


def test_acts_only_on_nonlocal_projector():
    pi = hardy_projector(3)
    assert acts_only_on(pi, {1, 2}, 3)
    assert not acts_only_on(pi, {1}, 3)
    assert not acts_only_on(pi, {2}, 3)


@pytest.mark.parametrize("particles, n_particles", [({True}, 3), ({1}, True), ({1.0}, 3), ({1}, 3.0)])
def test_acts_only_on_rejects_bool_and_float_indices(particles, n_particles):
    with pytest.raises(TypeError):
        acts_only_on(spin(Axis.X, 1, 3), particles, n_particles)


def test_acts_only_on_identity_anywhere():
    ident = identity(8)
    assert acts_only_on(ident, set(), 3)
    assert acts_only_on(ident, {2}, 3)


# --- named operators against fresh copies ------------------------------------------


REGIONS = [region for k in (1, 2, 3) for region in itertools.combinations((1, 2, 3), k)]


def test_memoised_locality_matches_a_fresh_copy(named_operators):
    for op in named_operators:
        for region in REGIONS:
            expected = acts_only_on(Observable(op.matrix), region, 3)
            assert acts_only_on(op, region, 3) is expected
            assert acts_only_on(op, region, 3) is expected


def test_memoised_locality_still_validates_every_call():
    op = spin(Axis.X, 1, 3)
    assert acts_only_on(op, [1], 3)
    for _ in range(2):
        with pytest.raises(ValueError):
            acts_only_on(op, [1], 2)
        with pytest.raises(ValueError):
            acts_only_on(op, [4], 3)
        with pytest.raises(TypeError):
            acts_only_on(op, [1.0], 3)


def test_memoised_common_eigenstate_matches_fresh_copies(named_operators):
    for a, b in itertools.product(named_operators, repeat=2):
        expected = has_common_eigenstate([Observable(a.matrix), Observable(b.matrix)])
        assert has_common_eigenstate([a, b]) is expected
        assert has_common_eigenstate([a, b]) is expected
    triple = [spin(Axis.X, 1, 3), spin(Axis.X, 2, 3), hardy_projector(3)]
    assert has_common_eigenstate(triple) is has_common_eigenstate([Observable(o.matrix) for o in triple]) is False
