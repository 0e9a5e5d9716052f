"""The named entangled states of three (and two) spin-1/2 particles."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import SCALAR_TOL, StateVector, _ket

__all__ = ["PsiParams", "psi_state", "hardy_state", "ghz_mermin_state"]


@dataclass(frozen=True)
class PsiParams:
    """Amplitude pair (a, b) subject to 3|a|^2 + |b|^2 = 1 with a*b != 0.

    Both amplitudes may be complex; every certainty and probability statement
    made about the resulting state depends only on |a| and |b|.  |a|^2 must
    exceed ``SCALAR_TOL``: the scenarios condition on sigma_z outcomes of
    probability 2|a|^2 and 3|a|^2, and an outcome at or below that tolerance
    counts as impossible.
    """

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ValueError("amplitudes must be finite")
        # hypot returns inf where abs() and squaring raise OverflowError
        if math.hypot(self.a.real, self.a.imag) > 1.0 or math.hypot(self.b.real, self.b.imag) > 1.0:
            raise ValueError("|a| and |b| must not exceed 1, as 3|a|^2+|b|^2 = 1")
        if abs(self.a) <= SCALAR_TOL or abs(self.b) <= SCALAR_TOL:
            raise ValueError("both amplitudes must be nonzero (a*b != 0)")
        if abs(self.a) ** 2 <= SCALAR_TOL:
            raise ValueError(f"|a|^2 must exceed the zero-probability tolerance {SCALAR_TOL:g}")
        residual = 3.0 * abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0
        if abs(residual) > SCALAR_TOL:
            raise ValueError(f"3|a|^2+|b|^2 must equal 1 (off by {residual:.3e})")


def psi_state(params: PsiParams) -> StateVector:
    """a(|+++> - |+-+> - |-++>) + b|--->, dimension 8."""
    a, b = params.a, params.b  # at the basis indices 0 (+++), 2 (+-+), 4 (-++) and 7 (---)
    return StateVector(np.array([a, 0, -a, 0, -a, 0, 0, b], dtype=complex), normalize=True)


def hardy_state() -> StateVector:
    """(|++> - |+-> - |-+>)/sqrt(3): zero amplitude on |-->, dimension 4."""
    return StateVector(_ket({"++": 1.0, "+-": -1.0, "-+": -1.0}) / np.sqrt(3.0))


def ghz_mermin_state() -> StateVector:
    """(|+++> - |--->)/sqrt(2), dimension 8."""
    return StateVector(_ket({"+++": 1.0, "---": -1.0}) / np.sqrt(2.0))
