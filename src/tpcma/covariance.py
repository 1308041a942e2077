"""Rank-one plus rank-mu covariance matrix adaptation with a stall gate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import StrategyParams

__all__ = [
    "CovarianceState",
    "initial_covariance_state",
    "stall_indicator",
    "update_path",
    "update_covariance",
]


@dataclass(frozen=True)
class CovarianceState:
    """Search covariance C (symmetric positive definite) and its evolution path."""

    C: np.ndarray
    p_c: np.ndarray


def initial_covariance_state(n: int) -> CovarianceState:
    return CovarianceState(C=np.eye(n), p_c=np.zeros(n))


def stall_indicator(alpha_s: float, g: int, params: StrategyParams) -> int:
    """Gate for the evolution-path update in two-point mode.

    Returns 0 when the smoothed step-size signal exceeds
    (1 - (1-c_alpha)^9) (1 - (1-c_alpha)^g) * alpha_change, and 1 otherwise.
    A large positive signal means the step-size is still being ramped up
    after an environment change; shape changes are postponed until then.
    ``g`` counts completed generations and is 1 at the first update.
    """
    if g < 1:
        raise ValueError(f"generation counter must be >= 1, got {g}")
    decay = 1.0 - params.c_alpha
    threshold = (1.0 - decay**9) * (1.0 - decay**g) * params.alpha_change
    return 0 if alpha_s > threshold else 1


def update_path(
    state: CovarianceState,
    mean_step: np.ndarray,
    h_sigma: int,
    params: StrategyParams,
) -> CovarianceState:
    """Cumulate the mean step into the evolution path (or let it decay)."""
    coeff = math.sqrt(params.c_c * (2.0 - params.c_c) * params.mu_w)
    p_c = (1.0 - params.c_c) * state.p_c + h_sigma * coeff * np.asarray(mean_step, dtype=float)
    return CovarianceState(C=state.C, p_c=p_c)


def update_covariance(
    state: CovarianceState,
    Y_sel: np.ndarray,
    weights: np.ndarray,
    params: StrategyParams,
) -> CovarianceState:
    """Rank-one plus rank-mu covariance update, re-symmetrized.

    C' = (1 - c_1 - c_mu) C + c_1 p_c p_c^T + c_mu Y_sel^T diag(w) Y_sel,
    where ``Y_sel`` holds the mu best sampled steps as rows, best first.
    The path update must already have been applied for this generation.
    """
    w = np.asarray(weights, dtype=float)
    rank_mu = (Y_sel * w[:, None]).T @ Y_sel
    # accumulated in place into one new array; state.C is never written
    C = (1.0 - params.c_1 - params.c_mu) * state.C
    C += params.c_1 * (state.p_c[:, None] * state.p_c)
    C += params.c_mu * rank_mu
    C += C.T  # re-symmetrize against floating-point drift
    C *= 0.5
    return CovarianceState(C=C, p_c=state.p_c)
