"""The benchmark's workloads and the inputs it generates for them.

Every op is a pure function of (workload seed, worker index, op index), so a
seed fixes the inputs whatever the timing, and the program sees only the
generated argv or sampler arguments.  Ops come in rounds of a fixed make-up;
a worker always runs whole rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reference import PSI_SCENARIOS, SCENARIOS

# Claim order of each scenario's --flip-claim index: psi scenarios emit three
# claims (anchored by the target observable); GHZ scenarios emit three claims
# per sigma branch, branches ordered (+1,+1,+1), (+1,+1,-1), ..., (-1,-1,-1).
PSI_CLAIM_TARGETS = {
    "epr-psi": ("sigma_x(2)", "sigma_x(1)", "pi(1+2)"),
    "bell-hardy": ("sigma_z(2)", "sigma_z(1)", "pi(1+2)"),
}
GHZ_BRANCHES = tuple((e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1))


def flip_claim_count(scenario: str) -> int:
    return 3 if scenario in PSI_SCENARIOS else 3 * len(GHZ_BRANCHES)


def flipped_anchor(scenario: str, index: int) -> str:
    """Anchor of the one check a --flip-claim of ``index`` must fail."""
    if scenario in PSI_SCENARIOS:
        return f"{scenario}:certainty:{PSI_CLAIM_TARGETS[scenario][index]}"
    label = ",".join(f"{e:+d}" for e in GHZ_BRANCHES[index // 3])
    return f"{scenario}:branch:{label}"


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (verify, flip, sample) or a sample_joint call."""

    kind: str
    scenario: str
    a: complex
    b: complex
    seed: int = 0
    trials: int = 0
    flip: int = 0

    def argv(self) -> list[str]:
        if self.kind == "joint":
            raise ValueError("a sample_joint op has no argv")
        argv = ["verify" if self.kind in ("verify", "flip") else "sample"]
        argv += ["--scenario", "all" if self.kind == "verify" else self.scenario]
        if self.kind in ("verify", "flip") or self.scenario in PSI_SCENARIOS:
            # "--flag=value": after a space, argparse reads a value such as
            # "-8e-05" as an unknown option and the CLI exits 2
            parts = {"a-re": self.a.real, "a-im": self.a.imag, "b-re": self.b.real, "b-im": self.b.imag}
            argv += [f"--{flag}={value!r}" for flag, value in parts.items()]
        if self.kind == "flip":
            argv += ["--flip-claim", str(self.flip)]
        if self.kind == "sample":
            argv += ["--trials", str(self.trials), "--seed", str(self.seed)]
        return argv + ["--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    # Op kinds of one round, in order; the first op must be a CLI op because
    # each worker's warm-up repeats it.
    round: tuple[str, ...]
    trials: int
    # Tail percentile: keeps at least ten samples beyond it at half the op
    # count a run makes today, and is the highest that held steady from run
    # to run (see README).
    tail_pct: float
    workers: int
    # False: psi scenarios run at the CLI's default a = b = 1/2, so that op
    # time and peak memory, which follow the branch probabilities, do not
    # swing with the drawn amplitudes.
    draw_psi: bool = True

    def min_ops(self) -> int:
        """Fewest timed ops per run that leave ten samples beyond the tail percentile."""
        return max(40, math.ceil(10.0 / (1.0 - self.tail_pct / 100.0)))

    def op(self, seed: int, worker: int, index: int) -> Op:
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, worker, index])
        rounds, pos = divmod(index, len(self.round))
        kind = self.round[pos]
        a, b = draw_amplitudes(rng) if self.draw_psi else (0.5 + 0j, 0.5 + 0j)
        if kind == "verify":
            return Op("verify", "all", a, b)
        if kind == "flip":
            scenario = SCENARIOS[rounds % len(SCENARIOS)]
            return Op("flip", scenario, a, b, flip=int(rng.integers(flip_claim_count(scenario))))
        # sample and joint ops cycle the scenarios, each kind on its own count
        same_kind = rounds * self.round.count(kind) + self.round[:pos].count(kind)
        scenario = SCENARIOS[(same_kind + worker) % len(SCENARIOS)]
        return Op(kind, scenario, a, b, seed=int(rng.integers(2**31)), trials=self.trials)


def draw_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    """Admissible psi amplitudes: |a|^2 uniform in (0.01, 0.32), random phases."""
    mod_a_sq = rng.uniform(0.01, 0.32)
    phase_a, phase_b = rng.uniform(0.0, 2.0 * np.pi, size=2)
    a = complex(np.sqrt(mod_a_sq) * np.exp(1j * phase_a))
    b = complex(np.sqrt(1.0 - 3.0 * mod_a_sq) * np.exp(1j * phase_b))
    return a, b


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-grid", ("verify",) * 7 + ("flip",), trials=0, tail_pct=90.0, workers=6),
        Workload("sample-bulk", ("sample",) * 4, trials=1_000_000, tail_pct=80.0, workers=6, draw_psi=False),
        Workload("sample-small", ("sample",) * 7 + ("joint",), trials=1_000, tail_pct=98.0, workers=6),
    )
}
