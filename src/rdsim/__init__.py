"""Recruitment-sampling simulation over generated social networks.

The package generates population networks with prescribed prevalence,
mean degree, differential activity, and homophily; simulates
respondent-driven (coupon-based peer recruitment) samples over them; and
measures how well the network estimands are recovered from those samples.

Each module's ``__all__`` is its public surface; the package re-exports
exactly those names, plus ``__version__``.
"""

from . import covariates, errors, estimators, graph, harness, netgen, sampler
from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .covariates import *  # noqa: F401,F403
from .netgen import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *graph.__all__,
    *covariates.__all__,
    *netgen.__all__,
    *sampler.__all__,
    *estimators.__all__,
    *harness.__all__,
]
