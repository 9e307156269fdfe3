"""fockfit: squeezing and temperature estimation of single-mode Gaussian
oscillator states from Fock count histograms, with parametric-bootstrap
confidence intervals.

The package re-exports every public name (each module's ``__all__``) of
its modules model, numerics, estimation, sampling, bootstrap and studies.
"""

from . import bootstrap, estimation, model, numerics, sampling, studies
from .bootstrap import *  # noqa: F401,F403
from .estimation import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .studies import *  # noqa: F401,F403

_MODULES = (model, numerics, estimation, sampling, bootstrap, studies)

__all__ = sorted({name for module in _MODULES for name in module.__all__})

__version__ = "0.1.0"
