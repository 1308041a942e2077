"""CMA-ES with two-point step-size adaptation, plus a cumulative baseline.

The public surface:

* :func:`default_params` derives all strategy constants.
* :class:`CmaEs` is the ask/tell optimizer.
* :func:`run` drives a full run, restarts included, against the built-in
  benchmark objectives; :class:`RunConfig` holds its settings.
* ``python -m tpcma.cli`` (or the ``tpcma`` script) runs benchmark grids.

The building blocks (sampling, recombination, covariance and step-size
updates) stay importable from their modules; :class:`CmaEs` says what it
checks for them.
"""

from .engine import (
    CONTROLLERS,
    CmaEs,
    RunAborted,
    RunConfig,
    RunResult,
    TerminationCriteria,
    run,
)
from .objectives import OBJECTIVE_KINDS, ObjectiveSpec, evaluate_population
from .params import StrategyParams, default_params

__version__ = "0.1.0"

__all__ = [
    "CONTROLLERS",
    "OBJECTIVE_KINDS",
    "CmaEs",
    "ObjectiveSpec",
    "RunAborted",
    "RunConfig",
    "RunResult",
    "StrategyParams",
    "TerminationCriteria",
    "default_params",
    "evaluate_population",
    "run",
]
