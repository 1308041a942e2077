"""Fitness ranking and weighted recombination of the sampled steps.

Like the other layer modules, these functions take values that
``engine.CmaEs`` has already checked and do not check them again.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank", "weighted_mean_step", "update_mean"]


def rank(fitness: np.ndarray) -> np.ndarray:
    """Selection order of a population, best first (0-based indices).

    The sort is stable and ascending in fitness (minimization); ties keep
    sampling order and +inf (a failed evaluation) ranks last but for NaN,
    which ``CmaEs`` rejects as it finds it there.
    """
    return np.asarray(fitness).argsort(kind="stable")


def weighted_mean_step(Y_sel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean of the selected steps, sum_i w_i y_(i).

    ``Y_sel`` holds the mu best sampled steps as rows, best first, one per
    weight.  Given their standard-normal draws instead, it returns the
    whitened mean step of the cumulative controller.
    """
    return weights @ Y_sel


def update_mean(m: np.ndarray, sigma: float, mean_step: np.ndarray) -> np.ndarray:
    """New distribution mean m + sigma * mean step.

    With weights summing to one this equals the weighted mean of the mu
    best candidate solutions.
    """
    return m + sigma * mean_step
