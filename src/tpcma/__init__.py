"""CMA-ES with two-point step-size adaptation, plus a cumulative baseline.

The public surface:

* :func:`default_params` derives all strategy constants.
* :class:`CmaEs` is the ask/tell optimizer.
* :func:`run` / :func:`run_with_restarts` drive full runs against the
  built-in benchmark objectives.
* ``python -m tpcma.cli`` (or the ``tpcma`` script) runs benchmark grids.

The building blocks (sampling, recombination, covariance and step-size
updates) stay importable from their modules.
"""

from .engine import (
    CONTROLLERS,
    CmaEs,
    RestartPolicy,
    RunAborted,
    RunConfig,
    RunResult,
    TerminationCriteria,
    run,
    run_with_restarts,
)
from .objectives import OBJECTIVE_KINDS, ObjectiveSpec, evaluate, evaluate_population
from .params import StrategyParams, default_params

__version__ = "0.1.0"

__all__ = [
    "CONTROLLERS",
    "OBJECTIVE_KINDS",
    "CmaEs",
    "ObjectiveSpec",
    "RestartPolicy",
    "RunAborted",
    "RunConfig",
    "RunResult",
    "StrategyParams",
    "TerminationCriteria",
    "default_params",
    "evaluate",
    "evaluate_population",
    "run",
    "run_with_restarts",
]
