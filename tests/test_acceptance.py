"""End-to-end acceptance checks, one per shipped guarantee.

Run ``pytest -s tests/test_acceptance.py`` to see one verdict line per
criterion.  Tolerances are pinned here and never loosened at runtime.
"""

import contextlib
import io
import json

import numpy as np

from serlab.cli import RunConfig, run_command
from serlab.hilbert import Observable, StateVector, has_common_eigenstate
from serlab.inference import certify_ser, hardy_null_outcome_scan, run_scenario
from serlab.measurement import OutcomeAssignment, conditional_probability, outcome_probability, sample_counts
from serlab.spin import Axis, hardy_projector, mermin_A, mermin_B, spin, spin_product
from serlab.states import PsiParams, ghz_mermin_state, hardy_state, psi_state

from oracles import joint_probability, random_psi_params, random_state, random_unitary

DEFAULT = PsiParams(0.5, 0.5)
N_DRAWS = 100
DRAW_SEED = 20240914


def _verdict(num: int, ok: bool, description: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _run(command: str, config: RunConfig) -> tuple[int, str]:
    """``run_command``'s exit code and stdout; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(command, config)
    return code, out.getvalue()


def _draws():
    rng = np.random.default_rng(DRAW_SEED)
    return [random_psi_params(rng) for _ in range(N_DRAWS)]


def test_criterion_1_certainty_identities():
    tol = 1e-10
    sz = {p: spin(Axis.Z, p, 3) for p in (1, 2, 3)}
    sx = {p: spin(Axis.X, p, 3) for p in (1, 2, 3)}
    sy = {p: spin(Axis.Y, p, 3) for p in (1, 2, 3)}
    pi3 = hardy_projector(3)
    ok = True
    for params in _draws():
        state = psi_state(params)
        certainties = [
            ((sx[2], -1.0), [(sz[1], +1.0)]),
            ((sx[1], -1.0), [(sz[2], +1.0)]),
            ((pi3, 1.0), [(sz[3], +1.0)]),
            ((sz[2], -1.0), [(sx[1], +1.0)]),
            ((sz[1], -1.0), [(sx[2], +1.0)]),
        ]
        for target, given in certainties:
            p = conditional_probability(state, target, OutcomeAssignment(given))
            ok = ok and abs(p - 1.0) <= tol

    mu = ghz_mermin_state()
    for eps in [(e1, e2, e3) for e1 in (1.0, -1.0) for e2 in (1.0, -1.0) for e3 in (1.0, -1.0)]:
        for j in (1, 2, 3):
            p = conditional_probability(
                mu, (mermin_A(j), eps[j - 1]), OutcomeAssignment([(sy[j], eps[j - 1])])
            )
            ok = ok and abs(p - 1.0) <= tol
            p = conditional_probability(
                mu, (mermin_B(j), eps[j - 1]), OutcomeAssignment([(sx[j], eps[j - 1])])
            )
            ok = ok and abs(p - 1.0) <= tol
    _verdict(1, ok, "conditional certainties equal 1 (psi family x100 draws; GHZ x8 branches)")


def test_criterion_2_post_selection_probabilities():
    tol = 1e-12
    sz = {p: spin(Axis.Z, p, 3) for p in (1, 2, 3)}
    sx = {p: spin(Axis.X, p, 3) for p in (1, 2)}
    ok = True
    for params in _draws():
        state = psi_state(params)
        p_zzz = outcome_probability(state, OutcomeAssignment([(sz[1], 1.0), (sz[2], 1.0), (sz[3], 1.0)]))
        p_xxz = outcome_probability(state, OutcomeAssignment([(sx[1], 1.0), (sx[2], 1.0), (sz[3], 1.0)]))
        ok = ok and abs(p_zzz - abs(params.a) ** 2) <= tol
        ok = ok and abs(p_xxz - abs(params.a) ** 2 / 4.0) <= tol
    state = psi_state(DEFAULT)
    p_zzz = outcome_probability(state, OutcomeAssignment([(sz[1], 1.0), (sz[2], 1.0), (sz[3], 1.0)]))
    p_xxz = outcome_probability(state, OutcomeAssignment([(sx[1], 1.0), (sx[2], 1.0), (sz[3], 1.0)]))
    ok = ok and abs(p_zzz - 0.25) <= tol and abs(p_xxz - 0.0625) <= tol
    _verdict(2, ok, "post-selection weights equal |a|^2 and |a|^2/4 (defaults: 0.25, 0.0625)")


def test_criterion_3_eigenstructure():
    ok = not has_common_eigenstate([spin(Axis.X, 1, 3), spin(Axis.X, 2, 3), hardy_projector(3)])
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                ok = ok and not has_common_eigenstate([mermin_A(i), mermin_A(j)])
    eta = hardy_state()
    residual = float(np.max(np.abs(hardy_projector().matrix @ eta.amplitudes - eta.amplitudes)))
    ok = ok and residual < 1e-12
    _verdict(3, ok, "no common eigenstates (x1/x2/pi triple, A-pairs); pi fixes the Hardy state")


def test_criterion_4_bell_hardy_operator_impossibility():
    sz1, sz2, pi3 = spin(Axis.Z, 1, 3), spin(Axis.Z, 2, 3), hardy_projector(3)
    product = np.eye(8)
    for obs, value in [(sz1, -1.0), (sz2, -1.0), (pi3, 1.0)]:
        spec = obs.spectral()
        product = product @ spec.projectors[spec.index_of(value)]
    ok = float(np.max(np.abs(product))) < 1e-12
    hits = hardy_null_outcome_scan(seed=0, n_states=20, trials=100_000)
    ok = ok and all(h == 0 for h in hits)
    _verdict(4, ok, "projector product is zero; (-1,-1,1) never sampled in 20 states x 1e5 trials")


def test_criterion_5_bell_ghz_contradiction():
    product = mermin_B(1).matrix @ mermin_B(2).matrix @ mermin_B(3).matrix
    ok = float(np.max(np.abs(product - np.eye(8)))) < 1e-12
    mu = ghz_mermin_state()
    p = outcome_probability(mu, OutcomeAssignment([(spin_product(Axis.X, 3), -1.0)]))
    ok = ok and abs(p - 1.0) <= 1e-12
    counts = sample_counts(mu, [spin(Axis.X, p, 3) for p in (1, 2, 3)], seed=99, trials=100_000)
    violations = sum(c for outcome, c in counts.items() if abs(float(np.prod(outcome)) + 1.0) > 1e-9)
    ok = ok and violations == 0
    _verdict(5, ok, "B product is identity; x-product is -1 with certainty and in all 1e5 trials")


def test_criterion_6_sampling_calibration():
    ok = True
    for scenario, tuple_post, p_expected in [
        ("epr-psi", (1.0, 1.0, 1.0), 0.25),
        ("bell-hardy", (1.0, 1.0, 1.0), 0.0625),
    ]:
        config = RunConfig(scenario=scenario, trials=100_000, seed=17, format="json")
        code, out = _run("sample", config)
        ok = ok and code == 0
        payload = json.loads(out)
        entry = next(
            e for e in payload["sampling"]["frequencies"] if tuple(e["outcomes"]) == tuple_post
        )
        sigma = np.sqrt(p_expected * (1 - p_expected) / 100_000)
        ok = ok and abs(entry["frequency"] - p_expected) < 4 * sigma
    _verdict(6, ok, "post-selection frequencies within 4 sigma at N=1e5; sample exits 0")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(50):
        u = random_unitary(rng, 8)
        ops = []
        for _ in range(2):
            diag = np.diag(rng.integers(-1, 2, size=8).astype(float)).astype(complex)
            ops.append(u @ diag @ u.conj().T)
        observables = [Observable(m) for m in ops]
        state = StateVector(random_state(rng, 8))
        values = [float(rng.choice(obs.eigenvalues())) for obs in observables]
        p_lib = outcome_probability(state, OutcomeAssignment(list(zip(observables, values))))
        p_oracle = joint_probability(state.amplitudes, ops, values)
        ok = ok and abs(p_lib - p_oracle) <= 1e-10
    _verdict(7, ok, "projector-product probabilities match the joint-eigenbasis oracle (50 cases)")


def test_criterion_8_determinism():
    ok = True
    for command, kwargs in [
        ("verify", dict(scenario="epr-psi", format="json", seed=23)),
        ("verify", dict(scenario="bell-ghz", format="json", seed=23)),
        ("sample", dict(scenario="bell-hardy", format="json", seed=23, trials=30_000)),
        ("sample", dict(scenario="epr-ghz", format="json", seed=23, trials=30_000)),
    ]:
        code1, first = _run(command, RunConfig(**kwargs))
        code2, second = _run(command, RunConfig(**kwargs))
        ok = ok and code1 == code2 == 0
        ok = ok and first == second
        ok = ok and first.endswith("\n")
    _verdict(8, ok, "repeat runs with identical config produce byte-identical JSON")


def test_criterion_9_mutation_sensitivity():
    ok = True
    scenario_claims = {"epr-psi": 3, "epr-ghz": 24, "bell-hardy": 3, "bell-ghz": 24}
    psi_states = {"epr-psi": psi_state(DEFAULT), "bell-hardy": psi_state(DEFAULT)}
    ghz = ghz_mermin_state()
    for scenario, n_claims in scenario_claims.items():
        params = DEFAULT if scenario in ("epr-psi", "bell-hardy") else None
        state = psi_states.get(scenario, ghz)
        for k in range(n_claims):
            report = run_scenario(scenario, params, flip_claim=k)
            flipped_claim, flipped_cert = report.certified_claims[k]
            ok = ok and not flipped_cert
            ok = ok and not certify_ser(state, flipped_claim)
            config = RunConfig(scenario=scenario, format="json", flip_claim=k)
            ok = ok and _run("verify", config)[0] == 1
    _verdict(9, ok, "every single-claim flip fails certification and makes verify exit 1")
