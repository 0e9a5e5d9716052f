"""Tests for probabilities, collapse, compatibility, and seeded sampling."""

import gc
import importlib
import itertools
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from serlab import inference, measurement
from serlab.hilbert import (
    OPERATOR_TOL,
    Observable,
    StateVector,
    acts_only_on,
    basis_index,
    basis_state,
    common_eigenstate_dim,
    has_common_eigenstate,
)
from serlab.inference import SCENARIO_TABLE, SCENARIOS, run_scenario
from serlab.measurement import (
    _CHUNK_TRIALS,
    IncompatibleObservablesError,
    MeasurementRecord,
    OutcomeAssignment,
    ZeroProbabilityError,
    collapse,
    commutes,
    conditional_probability,
    outcome_probability,
    sample_counts,
    sample_joint,
)
from serlab.spin import Axis, hardy_projector, mermin_A, pauli, spin, spin_product
from serlab.states import PsiParams, ghz_mermin_state, psi_state

from oracles import joint_probability, joint_sample_outcomes, random_psi_params, random_state, random_unitary

DEFAULT = PsiParams(0.5, 0.5)
spin_module = importlib.import_module("serlab.spin")  # the package exports a function named spin


# --- probabilities ------------------------------------------------------------


def test_outcome_probability_zzz():
    state = psi_state(DEFAULT)
    post = OutcomeAssignment([(spin(Axis.Z, p, 3), +1.0) for p in (1, 2, 3)])
    assert outcome_probability(state, post) == pytest.approx(0.25, abs=1e-12)


def test_outcome_probability_xxz():
    state = psi_state(DEFAULT)
    post = OutcomeAssignment(
        [(spin(Axis.X, 1, 3), +1.0), (spin(Axis.X, 2, 3), +1.0), (spin(Axis.Z, 3, 3), +1.0)]
    )
    assert outcome_probability(state, post) == pytest.approx(0.0625, abs=1e-12)


def test_outcome_probability_x_product_certainty():
    mu = ghz_mermin_state()
    post = OutcomeAssignment([(spin_product(Axis.X, 3), -1.0)])
    assert outcome_probability(mu, post) == pytest.approx(1.0, abs=1e-12)


def test_outcome_assignment_rejects_noncommuting():
    with pytest.raises(IncompatibleObservablesError):
        OutcomeAssignment([(spin(Axis.X, 1, 2), 1.0), (spin(Axis.Z, 1, 2), 1.0)])


def test_outcome_assignment_rejects_off_spectrum_value():
    with pytest.raises(ValueError, match="spectrum"):
        OutcomeAssignment([(spin(Axis.Z, 1, 2), 0.5)])
    # NaN is within no tolerance of an eigenvalue; it must not alias index 0 (eigenvalue -1)
    with pytest.raises(ValueError, match="spectrum"):
        OutcomeAssignment([(spin(Axis.Z, 1, 3), float("nan"))])
    with pytest.raises(ValueError, match="spectrum"):
        OutcomeAssignment([(spin(Axis.Z, 1, 3), -1.0), (spin(Axis.Z, 2, 3), float("nan"))])


def test_conditional_certainty():
    state = psi_state(DEFAULT)
    p = conditional_probability(
        state, (spin(Axis.X, 2, 3), -1.0), OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)])
    )
    assert p == pytest.approx(1.0, abs=1e-12)
    p = conditional_probability(
        state, (hardy_projector(3), 1.0), OutcomeAssignment([(spin(Axis.Z, 3, 3), +1.0)])
    )
    assert p == pytest.approx(1.0, abs=1e-12)


def test_conditional_on_minus_branch_is_one_half():
    # Frozen oracle value: collapsing a=b=1/2 on sigma_z(1)=-1 leaves
    # (-|++> + |-->)/sqrt(2) on particles 2+3; expanding particle 2 in the x
    # basis splits that state into equal sigma_x(2)=+1/-1 parts, so the
    # conditional probability is exactly 1/2.
    state = psi_state(DEFAULT)
    given = OutcomeAssignment([(spin(Axis.Z, 1, 3), -1.0)])
    p = conditional_probability(state, (spin(Axis.X, 2, 3), -1.0), given)
    assert p == pytest.approx(0.5, abs=1e-12)
    # Cross-check through the joint-eigenbasis oracle
    joint = joint_probability(
        state.amplitudes, [spin(Axis.Z, 1, 3).matrix, spin(Axis.X, 2, 3).matrix], (-1.0, -1.0)
    )
    given_p = joint_probability(state.amplitudes, [spin(Axis.Z, 1, 3).matrix], (-1.0,))
    assert p == pytest.approx(joint / given_p, abs=1e-12)


def test_conditional_undefined_on_zero_probability():
    mu = ghz_mermin_state()
    given = OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0), (spin(Axis.Z, 2, 3), -1.0)])
    with pytest.raises(ZeroProbabilityError):
        conditional_probability(mu, (spin(Axis.Z, 3, 3), +1.0), given)


def test_conditional_rejects_noncommuting_target():
    state = psi_state(DEFAULT)
    with pytest.raises(IncompatibleObservablesError):
        conditional_probability(
            state, (spin(Axis.X, 1, 3), +1.0), OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)])
        )


def test_conditional_reuses_the_given_projector_and_matches_the_joint_assignment_exactly(monkeypatch):
    rng = np.random.default_rng(41)
    sz1, sz2, sx3 = spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3), spin(Axis.X, 3, 3)
    given = OutcomeAssignment([(sz1, +1.0), (sz2, -1.0)])
    states = [StateVector(random_state(rng, 8)) for _ in range(100)]
    conditional_probability(states[0], (sx3, 1.0), given)  # warm-up: builds the given projector
    built = []
    product = measurement._projector_product
    monkeypatch.setattr(measurement, "_projector_product", lambda *args: built.append(args) or product(*args))
    got = [conditional_probability(state, (sx3, 1.0), given) for state in states]
    assert built == []
    monkeypatch.undo()
    joint = OutcomeAssignment([(sz1, +1.0), (sz2, -1.0), (sx3, 1.0)])
    expected = [min(outcome_probability(s, joint) / outcome_probability(s, given), 1.0) for s in states]
    assert got == expected  # bit for bit: the same left-to-right projector product


def test_conditional_rejects_target_of_another_space():
    state = psi_state(DEFAULT)
    for given in (OutcomeAssignment((), dim=8), OutcomeAssignment([(spin(Axis.Z, 1, 3), +1.0)])):
        with pytest.raises(ValueError, match="conditioning and target live in different spaces"):
            conditional_probability(state, (spin(Axis.Z, 1, 2), +1.0), given)


def test_chain_rule():
    rng = np.random.default_rng(17)
    sz1, sz2 = spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3)
    for _ in range(20):
        state = StateVector(random_state(rng, 8))
        given = OutcomeAssignment([(sz1, +1.0)])
        p_given = outcome_probability(state, given)
        if p_given <= 1e-12:
            continue
        joint = outcome_probability(state, OutcomeAssignment([(sz1, +1.0), (sz2, -1.0)]))
        cond = conditional_probability(state, (sz2, -1.0), given)
        assert joint == pytest.approx(p_given * cond, abs=1e-12)


def test_single_observable_normalization():
    rng = np.random.default_rng(29)
    for obs in [spin(Axis.X, 2, 3), hardy_projector(3), mermin_A(1)]:
        for _ in range(10):
            state = StateVector(random_state(rng, 8))
            total = sum(
                outcome_probability(state, OutcomeAssignment([(obs, v)])) for v in obs.eigenvalues()
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_probability_order_invariance():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3), hardy_projector(3)]
    values = (+1.0, +1.0, 1.0)
    p_ref = outcome_probability(state, OutcomeAssignment(list(zip(obs, values))))
    reordered = [2, 0, 1]
    p_perm = outcome_probability(
        state, OutcomeAssignment([(obs[i], values[i]) for i in reordered])
    )
    assert p_perm == pytest.approx(p_ref, abs=1e-12)


def test_projector_products_match_joint_eigenbasis_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        u = random_unitary(rng, 8)
        ops = []
        for _ in range(2):
            diag = np.diag(rng.integers(-1, 2, size=8).astype(float)).astype(complex)
            ops.append(Observable(u @ diag @ u.conj().T))
        state = StateVector(random_state(rng, 8))
        values = [float(rng.choice(op.eigenvalues())) for op in ops]
        p_lib = outcome_probability(state, OutcomeAssignment(list(zip(ops, values))))
        p_oracle = joint_probability(state.amplitudes, [op.matrix for op in ops], values)
        assert p_lib == pytest.approx(p_oracle, abs=1e-10)


# --- compatibility -------------------------------------------------------------


def test_commutes_hardy_cases():
    pi3 = hardy_projector(3)
    assert commutes(pi3, spin(Axis.Z, 1, 3))
    assert not commutes(pi3, spin(Axis.X, 1, 3))
    assert commutes(Observable(np.eye(8)), pi3)


def test_commutes_holds_at_a_commutator_entry_of_exactly_operator_tol():
    # [sigma_z, c sigma_x] = 2ic sigma_y, so c = OPERATOR_TOL / 2 puts the largest entry exactly on the bound,
    # where acts_only_on's residual and Check.passed also hold
    z = spin(Axis.Z, 1, 3)
    at_bound = Observable(spin(Axis.X, 1, 3).matrix * (OPERATOR_TOL / 2))
    assert float(np.max(np.abs(z.matrix @ at_bound.matrix - at_bound.matrix @ z.matrix))) == OPERATOR_TOL
    assert commutes(z, at_bound) and commutes(at_bound, z)
    past_bound = Observable(spin(Axis.X, 1, 3).matrix * np.nextafter(OPERATOR_TOL / 2, 1.0))
    assert not commutes(z, past_bound)


def test_commutes_dim_mismatch():
    for _ in range(2):
        with pytest.raises(ValueError):
            commutes(pauli(Axis.Z), spin(Axis.Z, 1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda eight, four: OutcomeAssignment([(eight, 1.0), (four, 1.0)]),
        lambda eight, four: sample_counts(ghz_mermin_state(), [eight, four], seed=0, trials=10),
        lambda eight, four: sample_joint(ghz_mermin_state(), [eight, four], seed=0, trials=10),
        lambda eight, four: commutes(eight, four),
        lambda eight, four: common_eigenstate_dim([eight, four], [1.0, 1.0]),
    ],
    ids=["OutcomeAssignment", "sample_counts", "sample_joint", "commutes", "common_eigenstate_dim"],
)
def test_observables_on_different_spaces_are_rejected(call):
    with pytest.raises(ValueError, match="space"):
        call(spin(Axis.Z, 1, 3), spin(Axis.Z, 1, 2))


def test_memoised_commutes_matches_fresh_copies(named_operators):
    for a, b in itertools.product(named_operators, repeat=2):
        expected = commutes(Observable(a.matrix), Observable(b.matrix))
        assert commutes(a, b) is expected
        assert commutes(a, b) is expected


def test_caller_observable_is_freed_after_memoised_facts():
    named = spin(Axis.Z, 1, 3)
    caller = Observable(np.diag([1.0, -1.0] * 4), label="sigma_z(3) by hand")
    assert commutes(caller, named) and commutes(named, caller) and commutes(caller, caller)
    assert acts_only_on(caller, [3], 3)
    assert has_common_eigenstate([named, caller])
    assignment = OutcomeAssignment([(named, 1.0), (caller, -1.0)])
    assert assignment.dim == 8 and assignment.joint_projector().shape == (8, 8)
    del assignment
    freed = weakref.ref(caller)
    del caller
    gc.collect()
    assert freed() is None


def test_joint_projector_memo_is_bounded_over_drawn_states(monkeypatch):
    builds = 0
    build = measurement._projector_product

    def counting(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(spin_module, "_SHARED", {})  # fresh scenario parts, so the warm-up builds their projectors
    monkeypatch.setattr(measurement, "_projector_product", counting)
    for name in SCENARIOS:  # warm-up: every scenario once
        run_scenario(name, DEFAULT if SCENARIO_TABLE[name].needs_params else None)
    assert builds > 0
    builds = 0
    rng = np.random.default_rng(6)
    psi_family = [name for name in SCENARIOS if SCENARIO_TABLE[name].needs_params]
    for k in range(10_000):
        run_scenario(psi_family[k % len(psi_family)], random_psi_params(rng))
    assert builds == 0


def test_joint_projector_is_shared_per_spectral_index():
    sz1, sz2 = spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3)
    assignment = OutcomeAssignment([(sz1, 1.0), (sz2, -1.0)])
    proj = assignment.joint_projector()
    assert assignment.joint_projector() is proj
    assert not proj.flags.writeable
    spec1, spec2 = sz1.spectral(), sz2.spectral()
    expected = spec1.projectors[spec1.index_of(1.0)] @ spec2.projectors[spec2.index_of(-1.0)]
    assert np.array_equal(proj, np.eye(8) @ expected)
    # the projector depends on the spectral indices only, not on the caller's floats or on how the pairs were built
    assert np.array_equal(OutcomeAssignment([(sz1, 1.0 + 1e-9), (sz2, -1.0)]).joint_projector(), proj)
    assert np.array_equal(OutcomeAssignment(((sz1, 1), (sz2, -1))).joint_projector(), proj)


# --- collapse -------------------------------------------------------------------


def test_collapse_eigenstate_unchanged():
    state = basis_state("++")
    out = collapse(state, spin(Axis.Z, 1, 2), +1.0)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_collapse_idempotent():
    state = psi_state(DEFAULT)
    once = collapse(state, spin(Axis.Z, 1, 3), +1.0)
    twice = collapse(once, spin(Axis.Z, 1, 3), +1.0)
    assert np.allclose(once.amplitudes, twice.amplitudes)


def test_collapse_ghz_on_sigma_y_fixes_mermin_a():
    mu = ghz_mermin_state()
    for eps in (+1.0, -1.0):
        post = collapse(mu, spin(Axis.Y, 1, 3), eps)
        expectation = np.vdot(post.amplitudes, mermin_A(1).matrix @ post.amplitudes).real
        assert expectation == pytest.approx(eps, abs=1e-12)


def test_collapse_on_null_outcome_raises():
    with pytest.raises(ZeroProbabilityError):
        collapse(basis_state("++"), spin(Axis.Z, 1, 2), -1.0)


# --- sampling --------------------------------------------------------------------


def test_sample_eigenstate_always_plus_one():
    records = sample_joint(basis_state("+"), [pauli(Axis.Z)], seed=42, trials=200)
    assert len(records) == 200
    assert all(rec.outcomes[0][1] == 1.0 for rec in records)
    assert all(rec.post_state.amplitudes[0] == 1.0 for rec in records)


def test_sample_counts_eigenstate_counts_every_trial():
    # an eigenstate leaves a one-row table with no thresholds to count below
    assert sample_counts(basis_state("+"), [pauli(Axis.Z)], seed=42, trials=200) == {(1.0,): 200}
    assert sample_counts(basis_state("+"), [pauli(Axis.Z)], seed=0, trials=2 * _CHUNK_TRIALS + 3) == {
        (1.0,): 2 * _CHUNK_TRIALS + 3
    }


def test_sample_reproducible_and_prefix_stable():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    a = sample_joint(state, obs, seed=5, trials=50)
    b = sample_joint(state, obs, seed=5, trials=50)
    assert [r.outcomes for r in a] == [r.outcomes for r in b]
    # one stream read in order: the first trials are unchanged when trials grows
    longer = sample_joint(state, obs, seed=5, trials=200)
    assert [r.outcomes for r in a] == [r.outcomes for r in longer[:50]]
    different = sample_joint(state, obs, seed=6, trials=50)
    assert [r.outcomes for r in a] != [r.outcomes for r in different]


def test_sample_counts_matches_records():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    records = sample_joint(state, obs, seed=11, trials=500)
    counts = sample_counts(state, obs, seed=11, trials=500)
    tally: dict = {}
    for rec in records:
        key = tuple(v for _, v in rec.outcomes)
        tally[key] = tally.get(key, 0) + 1
    assert tally == counts
    assert sum(counts.values()) == 500


def test_sample_ghz_x_product_always_minus_one():
    mu = ghz_mermin_state()
    counts = sample_counts(mu, [spin(Axis.X, p, 3) for p in (1, 2, 3)], seed=3, trials=20_000)
    for outcome, count in counts.items():
        assert np.prod(outcome) == pytest.approx(-1.0)
        assert count > 0


def test_sample_frequency_calibration():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    trials = 20_000
    counts = sample_counts(state, obs, seed=8, trials=trials)
    freq = counts.get((1.0, 1.0, 1.0), 0) / trials
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert abs(freq - 0.25) < 4 * sigma


def test_sample_order_invariance_of_distribution():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3), hardy_projector(3)]
    trials = 20_000
    counts_a = sample_counts(state, obs, seed=21, trials=trials)
    counts_b = sample_counts(state, list(reversed(obs)), seed=22, trials=trials)
    outcomes = {k: v / trials for k, v in counts_a.items()}
    for key, f_a in outcomes.items():
        f_b = counts_b.get(tuple(reversed(key)), 0) / trials
        p = outcome_probability(state, OutcomeAssignment(list(zip(obs, key))))
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(f_a - f_b) < 10 * sigma


def test_sample_rejects_noncommuting():
    state = psi_state(DEFAULT)
    with pytest.raises(IncompatibleObservablesError):
        sample_joint(state, [spin(Axis.X, 1, 3), spin(Axis.Z, 1, 3)], seed=0, trials=10)


@pytest.mark.parametrize("sample", [sample_counts, sample_joint])
@pytest.mark.parametrize("seed, trials", [(1.7, 10), (True, 10), (0, 10.0), (0, True)])
def test_sample_rejects_bool_and_float_seed_or_trials(sample, seed, trials):
    with pytest.raises(TypeError):
        sample(basis_state("+"), [pauli(Axis.Z)], seed=seed, trials=trials)


def test_sample_requires_positive_trials():
    with pytest.raises(ValueError):
        sample_joint(basis_state("+"), [pauli(Axis.Z)], seed=0, trials=0)


def _sampling_plans():
    rng = np.random.default_rng(383)
    xxz = [spin(Axis.X, 1, 3), spin(Axis.X, 2, 3), spin(Axis.Z, 3, 3)]
    null_scan = [spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3), hardy_projector(3)]
    return {
        "psi-xxz": (psi_state(random_psi_params(rng)), xxz),
        "ghz-xxx": (ghz_mermin_state(), [spin(Axis.X, p, 3) for p in (1, 2, 3)]),
        "random-null-scan": (StateVector(random_state(rng, 8)), null_scan),
        "random-z": (StateVector(random_state(rng, 8)), [spin(Axis.Z, 1, 3)]),
        "random-pi-z": (StateVector(random_state(rng, 8)), [hardy_projector(3), spin(Axis.Z, 3, 3)]),
    }


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("seed", [0, 383, 2**31 - 1, 2**64 - 1, -1])
def test_any_chunk_size_reads_the_oracle_stream(monkeypatch, chunk, seed):
    # chunks of 1 and 7 uniforms split the stream where the default chunk never does; trial t still reads offset t
    monkeypatch.setattr(measurement, "_CHUNK_TRIALS", chunk)
    grid = sorted({1, 7, 1000, chunk, chunk + 1, 2 * chunk + 3, 4 * chunk + 3} | ({chunk - 1} - {0}))
    for plan, (state, obs) in sorted(_sampling_plans().items()):
        oracle = joint_sample_outcomes(state.amplitudes, [o.matrix for o in obs], seed % 2**64, max(grid))
        for trials in grid:
            counts = sample_counts(state, obs, seed=seed, trials=trials)
            by_index = {tuple(o.eigenvalues().index(v) for o, v in zip(obs, key)): n for key, n in counts.items()}
            assert by_index == Counter(oracle[:trials]), (plan, trials)
        records = sample_joint(state, obs, seed=seed, trials=max(grid))
        rows = [tuple(o.eigenvalues().index(v) for o, (_, v) in zip(obs, r.outcomes)) for r in records]
        assert rows == oracle, plan


@pytest.mark.parametrize("sample", [sample_counts, sample_joint])
@pytest.mark.parametrize("seed, key", [(3, 3), (-1, 2**64 - 1), (2**64 + 3, 3)])
def test_one_pcg64dxsm_stream_per_call(monkeypatch, sample, seed, key):
    opened, pcg = [], np.random.PCG64DXSM

    def counting_pcg(*args, **kwargs):
        opened.append((args, kwargs))
        return pcg(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64DXSM", counting_pcg)
    sample(psi_state(DEFAULT), [spin(Axis.Z, p, 3) for p in (1, 2, 3)], seed=seed, trials=3 * _CHUNK_TRIALS + 5)
    # one generator for every chunk, seeded with the seed's low 64 bits
    assert opened == [((key,), {})]


@pytest.mark.parametrize("seed", [0, -1])
def test_trial_t_reads_the_stream_advanced_by_t(seed):
    # trials can be generated out of order: advance(t) jumps to the uniform that trial t takes
    chunk = _CHUNK_TRIALS
    offsets = (0, 1, chunk - 1, chunk, 2 * chunk + 2)
    trials = max(offsets) + 1
    for plan, (state, obs) in sorted(_sampling_plans().items()):
        rows, thresholds = measurement._joint_table(state, obs)
        records = sample_joint(state, obs, seed=seed, trials=trials)
        oracle = joint_sample_outcomes(state.amplitudes, [o.matrix for o in obs], seed % 2**64, trials)
        for t in offsets:
            bits = np.random.PCG64DXSM(seed & 0xFFFFFFFFFFFFFFFF).advance(t)
            u = np.random.Generator(bits).random()
            row = rows[int(np.searchsorted(thresholds, u, side="right"))][0]
            record_row = tuple(o.eigenvalues().index(v) for o, (_, v) in zip(obs, records[t].outcomes))
            assert record_row == row == oracle[t], (plan, t)


@pytest.mark.parametrize("plan", sorted(_sampling_plans()))
@pytest.mark.parametrize("seed", [0, 383, 2**31 - 1, 2**64 - 1, -1])
def test_sample_counts_match_per_trial_oracle(plan, seed):
    state, obs = _sampling_plans()[plan]
    chunk = _CHUNK_TRIALS
    # every chunk edge, and runs of three and five chunks whose last chunk is partial
    grid = (1, 7, 1000, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 4 * chunk + 3)
    # the oracle's trial t depends on stream offset t only; the key is the seed's low 64 bits
    oracle = joint_sample_outcomes(state.amplitudes, [o.matrix for o in obs], seed % 2**64, max(grid))
    for trials in grid:
        counts = sample_counts(state, obs, seed=seed, trials=trials)
        by_index = {tuple(o.eigenvalues().index(v) for o, v in zip(obs, key)): n for key, n in counts.items()}
        assert by_index == Counter(oracle[:trials]), (plan, seed, trials)


def test_sample_joint_prefix_stable_across_chunks():
    state, obs = _sampling_plans()["psi-xxz"]
    chunk = _CHUNK_TRIALS

    def records(trials):
        return [(r.trial, r.outcomes, r.post_state.amplitudes.tobytes()) for r in sample_joint(state, obs, 9, trials)]

    longest = records(3 * chunk + 5)
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1):
        assert records(n) == longest[:n], n


def test_uniform_past_the_last_threshold_takes_the_last_nonzero_row(monkeypatch):
    # P(sigma_z(1) = -1) = 1 - 1e-9 and P(sigma_z(1) = +1) = 0: the table holds only the two
    # sigma_z(1) = -1 rows, split 0.64 / 0.36, so a uniform at or past the threshold takes the second
    # and no draw reaches a sigma_z(1) = +1 outcome
    norm = np.sqrt(1.0 - 1e-9)
    state = StateVector([0.0, 0.0, 0.6 * norm, 0.8 * norm])
    obs = [spin(Axis.Z, 1, 2), spin(Axis.Z, 2, 2)]
    assert [o.eigenvalues()[0] for o in obs] == [-1.0, -1.0]
    rows, thresholds = measurement._joint_table(state, obs)
    assert [prefix for prefix, _ in rows] == [(0, 0), (0, 1)]
    assert set(sample_counts(state, obs, seed=0, trials=10_000)) == {(-1.0, -1.0), (-1.0, 1.0)}
    below_one = np.nextafter(1.0, 0.0)

    class FixedUniforms:  # the trials draw a uniform at 0, below, at and past the threshold, and below 1
        def __init__(self, bits):
            pass

        def random(self, n):
            return np.array([0.0, 0.5, thresholds[0], 0.7, below_one])[:n]

    monkeypatch.setattr(np.random, "Generator", FixedUniforms)
    first, last = ((obs[0].name, -1.0), (obs[1].name, -1.0)), ((obs[0].name, -1.0), (obs[1].name, 1.0))
    assert [r.outcomes for r in sample_joint(state, obs, seed=0, trials=5)] == [first, first, last, last, last]
    assert sample_counts(state, obs, seed=0, trials=5) == {(-1.0, -1.0): 2, (-1.0, 1.0): 3}


def test_threshold_counts_and_row_indices_aggregate_alike():
    # psi on sigma_z(1), sigma_z(2), sigma_z(3) leaves four of the eight outcomes at probability zero
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    trials = 2 * _CHUNK_TRIALS + 3
    counts = sample_counts(state, obs, seed=12, trials=trials)
    records = Counter(tuple(v for _, v in r.outcomes) for r in sample_joint(state, obs, seed=12, trials=trials))
    assert counts == records
    assert set(counts) == {(1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)}
    assert sum(counts.values()) == trials


def test_joint_table_has_at_most_dim_rows():
    z = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    products = [Observable(a.matrix @ b.matrix) for a, b in itertools.combinations(z, 2)]
    state = StateVector(random_state(np.random.default_rng(16), 8))
    rows, thresholds = measurement._joint_table(state, z + products)
    # 2**6 outcome tuples, of which only the 8 that the three sigma_z values fix are possible
    assert len(rows) == 8 and len(thresholds) == 7
    assert [prefix for prefix, _ in rows] == sorted(prefix for prefix, _ in rows)


def test_sample_counts_memory_flat_in_trials():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    tracemalloc.start()
    try:
        counts = sample_counts(state, obs, seed=1, trials=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**6
    assert peak < 16 * 2**20


def test_sample_joint_records_are_immutable_and_share_each_outcome():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    records = sample_joint(state, obs, seed=3, trials=500)
    assert all(type(r) is MeasurementRecord for r in records)
    with pytest.raises(AttributeError):
        records[0].trial = 1
    assert [r.trial for r in records] == list(range(500))
    assert tuple(records[7]) == (7, records[7].outcomes, records[7].post_state)
    by_outcome: dict = {}
    for r in records:
        by_outcome.setdefault(tuple(v for _, v in r.outcomes), []).append(r)
    assert len(by_outcome) == 4
    for group in by_outcome.values():
        assert len({id(r.outcomes) for r in group}) == 1
        assert len({id(r.post_state) for r in group}) == 1


def test_sample_joint_memory_per_record():
    state = psi_state(DEFAULT)
    obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]
    trials = 10**5
    tracemalloc.start()
    try:
        records = sample_joint(state, obs, seed=1, trials=trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == trials
    assert peak < 160 * trials


# --- error paths ----------------------------------------------------------------


def _flip_a_single_eigenvalue_target():
    """Flip claim 2 of epr-psi's record with the identity as its third target, under a temporary table key."""
    name, spec = "flat-target", SCENARIO_TABLE["epr-psi"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(SCENARIO_TABLE, name, replace(spec, targets=(*spec.targets[:2], partial(Observable, np.eye(8)))))
        patch.setattr(spin_module, "_SHARED", {})
        assert run_scenario(name, DEFAULT).passed()  # unflipped, the identity's value 1 is certain
        run_scenario(name, DEFAULT, flip_claim=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: basis_index("+x"), "pattern must be a nonempty string over '+'/'-', got '+x'"),
        (lambda: basis_state("+").overlap(basis_state("++")), "states live in different spaces"),
        (lambda: Observable(np.zeros((2, 3))), "operator entries must form a square matrix, got shape (2, 3)"),
        (lambda: common_eigenstate_dim([], []), "need at least one observable"),
        (lambda: common_eigenstate_dim([pauli(Axis.Z)], [1.0, -1.0]), "got 1 observables but 2 values"),
        (
            lambda: OutcomeAssignment([(pauli(Axis.Z), 1.0)], dim=4),
            "explicit dim 4 does not match observables of dim 2",
        ),
        (lambda: OutcomeAssignment(()), "an empty assignment needs an explicit dim"),
        (
            lambda: outcome_probability(basis_state("++"), OutcomeAssignment([(pauli(Axis.Z), 1.0)])),
            "state and assignment live in different spaces",
        ),
        (lambda: collapse(basis_state("++"), pauli(Axis.Z), 1.0), "state and observable live in different spaces"),
        (lambda: sample_counts(basis_state("+"), [], seed=0, trials=1), "need at least one observable"),
        (
            lambda: sample_joint(basis_state("++"), [pauli(Axis.Z)], seed=0, trials=1),
            "state and observables live in different spaces",
        ),
        (
            lambda: inference._check_identity("epr-psi", inference.Identity("bogus", "x", (), "d")),
            "unknown identity kind 'bogus'",
        ),
        (
            lambda: _flip_a_single_eigenvalue_target(),
            "observable has a single eigenvalue; nothing to flip to",
        ),
    ],
)
def test_error_paths_raise_value_error_with_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError
    assert str(raised.value) == message
