"""serlab: verification of joint certain-value inference on three-qubit entangled states.

The library checks, both analytically and by seeded Monte Carlo measurement
simulation, the quantitative content of two kinds of arguments built on
entangled states of three spin-1/2 particles:

* incompleteness arguments, where values of observables without any common
  eigenstate are jointly predicted with certainty from measurements on
  disjoint particles; and
* contradiction arguments without inequalities, where the jointly inferred
  values can never appear in a direct joint measurement, in any state.
"""

import sys as _sys

# The function ``spin`` shadows the submodule of the same name: the import
# system binds the submodule when ``.spin`` is first loaded, which is before its
# star import binds the function, and no later import loads it again.
from .hilbert import *  # noqa: F401,F403
from .spin import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .measurement import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in ("hilbert", "spin", "states", "measurement", "inference")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
