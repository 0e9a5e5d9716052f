"""Shared test settings and fixtures."""

import pytest
from hypothesis import Phase, settings

from serlab.spin import Axis, hardy_projector, mermin_A, mermin_B, spin, spin_product

# Wall time per example swings by 1.5-2x on a shared machine, so a per-example
# deadline would make the suite flaky; derandomize draws the same examples on
# every run, and no example database is written.  Shrinking is left out: a
# failing example is reported as drawn, in seconds rather than about a minute.
settings.register_profile(
    "serlab",
    deadline=None,
    derandomize=True,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("serlab")


@pytest.fixture
def named_operators():
    """Every named three-particle operator, as the shared instances the factories return."""
    ops = [spin(axis, p, 3) for axis in Axis for p in (1, 2, 3)]
    ops += [spin_product(axis, 3) for axis in Axis]
    ops += [mermin_A(j) for j in (1, 2, 3)] + [mermin_B(j) for j in (1, 2, 3)]
    return ops + [hardy_projector(3)]
