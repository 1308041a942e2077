"""Fitness ranking and weighted recombination of the sampled steps."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["rank", "weighted_mean_step", "update_mean"]


def rank(fitness: Sequence[float] | np.ndarray) -> np.ndarray:
    """Selection order of a population, best first (0-based indices).

    The sort is stable and ascending in fitness (minimization); ties keep
    sampling order.  NaN fitness is rejected: evaluation failures must be
    represented as +inf explicitly, so that they rank last.
    """
    fitness = np.asarray(fitness, dtype=float)
    if np.isnan(fitness).any():
        raise ValueError("NaN fitness; map failed evaluations to +inf instead")
    return np.argsort(fitness, kind="stable")


def weighted_mean_step(Y_sel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mean of the selected steps, sum_i w_i y_(i).

    ``Y_sel`` holds the mu best sampled steps as rows, best first.
    """
    if len(weights) > len(Y_sel):
        raise ValueError(f"need {len(weights)} selected offspring but got {len(Y_sel)}")
    return np.asarray(weights, dtype=float) @ Y_sel


def update_mean(m: np.ndarray, sigma: float, mean_step: np.ndarray) -> np.ndarray:
    """New distribution mean m + sigma * mean step.

    With weights summing to one this equals the weighted mean of the mu
    best candidate solutions.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    return np.asarray(m, dtype=float) + sigma * np.asarray(mean_step, dtype=float)
