"""Detection toolkit for non-convergence of stochastic approximation to
unstable equilibria.

The package simulates recursions of the form

    X_{n+1} - X_n = gamma_{n+1} * G_n + c_{n+1} * (eps_{n+1} + r_{n+1}),

splits Jacobians at candidate traps into repulsive/contracting blocks,
estimates the drift/noise rate constants of the step-size schedule, checks
the hypotheses under which trapping has probability zero, and measures how
closely trajectories shadow the associated deterministic flow.

Every name in a module's ``__all__`` is re-exported here.
"""

from .errors import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .hypotheses import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from . import cli, engine, errors, flow, hypotheses, models, sequences, spectral

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *sequences.__all__,
    *spectral.__all__,
    *models.__all__,
    *engine.__all__,
    *hypotheses.__all__,
    *flow.__all__,
    *cli.__all__,
]
