"""Step-size controllers.

Two controllers are provided:

* two-point adaptation: after the mean update, two extra points placed
  symmetrically along the realized mean shift are evaluated; whichever wins
  decides a raw up/down signal that is exponentially smoothed and applied
  multiplicatively to sigma.  Its legacy variant is the step-size rule
  ``StrategyParams.mode == "tpa_legacy"``.
* cumulative adaptation (baseline): the classic whitened evolution path
  whose length is compared against its expectation under random selection;
  it is whitened with the selected standard-normal draws.

Like the other layer modules, these functions take values that
``engine.CmaEs`` has already checked and do not check them again.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .params import StrategyParams

__all__ = [
    "tpa_test_points",
    "tpa_update",
    "csa_update",
    "csa_stall_indicator",
    "expected_normal_norm",
]

logger = logging.getLogger(__name__)


def tpa_test_points(
    m_new: np.ndarray, sigma: float, mean_step: np.ndarray, params: StrategyParams
) -> np.ndarray:
    """The two step-size test points around the updated mean.

    Returns the (2, n) array whose rows are m + a' sigma <y> and
    m - a' sigma <y>, where a' is alpha_test, <y> is the mean step used in
    this generation's mean update and sigma is the step-size the population
    was sampled with.  In mode "tpa_legacy" the downward point uses the
    width a'/(1+a') instead: both widths are ``params.test_widths``.
    """
    # m + (-w) shift is exactly m - w shift in floating point
    return m_new + params.test_widths * (sigma * mean_step)


def tpa_update(
    alpha_s: float, f_plus: float, f_minus: float, params: StrategyParams
) -> tuple[float, float]:
    """Smooth the win/lose signal into alpha_s (which starts at zero) and
    return the new alpha_s and the sigma multiplier exp(alpha_s).

    The raw signal is -alpha_change + beta_bias when the downward point wins
    (strictly smaller fitness) and +alpha_change otherwise; ties take the
    increase branch.  If both test evaluations are infeasible (+inf) the
    step is assumed too long and the decrease branch is taken, with a
    warning; two -inf values are a tie.  Neither value is NaN:
    ``CmaEs.tell`` rejects it.
    The caller applies sigma <- sigma * multiplier.  The multiplier is +inf
    once exp(alpha_s) overflows, and the caller's step-size check then
    ends the run.
    """
    if f_plus == math.inf and f_minus == math.inf:
        logger.warning("both step-size test points infeasible; decreasing sigma")
        alpha_act = -params.alpha_change + params.beta_bias
    elif f_minus < f_plus:
        alpha_act = -params.alpha_change + params.beta_bias
    else:
        alpha_act = params.alpha_change
    alpha_s = (1.0 - params.c_alpha) * alpha_s + params.c_alpha * alpha_act
    try:
        return alpha_s, math.exp(alpha_s)
    except OverflowError:
        return alpha_s, math.inf


def expected_normal_norm(n: int) -> float:
    """Expected length of an n-dimensional standard normal vector."""
    return math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))


def csa_update(
    p_sigma: np.ndarray, mean_z: np.ndarray, params: StrategyParams
) -> tuple[np.ndarray, float]:
    """Cumulative step-size update (baseline controller).

    ``p_sigma`` is the whitened evolution path, which starts at zero.
    ``mean_z`` is the whitened mean step sum_i w_i z_(i), the weighted mean
    of the selected standard-normal draws: A^(-1) <y> for the sampling
    matrix A of ``sampler.CovarianceFactor``.  It differs from
    C^(-1/2) <y> by a rotation only, so the path length and its expectation
    under random selection are those of the textbook rule (Krause, Arbones
    and Igel, NeurIPS 2016, also whiten with a triangular factor).  Returns
    the new path, as a new array, and the sigma multiplier
    exp((c_sigma/d_sigma) (||p|| / E||N(0,I)|| - 1)).
    """
    cs = params.c_sigma
    p = (1.0 - cs) * p_sigma + math.sqrt(cs * (2.0 - cs) * params.mu_w) * mean_z
    ratio = math.sqrt(p.dot(p)) / expected_normal_norm(params.n)
    multiplier = math.exp((cs / params.d_sigma) * (ratio - 1.0))
    return p, multiplier


def csa_stall_indicator(p_sigma: np.ndarray, g: int, params: StrategyParams) -> int:
    """Gate for the covariance path in cumulative mode.

    Returns 0 (stall) when the normalized path length exceeds the usual
    (1.4 + 2/(n+1)) E||N(0,I)|| threshold, 1 otherwise.  ``g`` counts
    completed step-size updates, starting at 1.
    """
    cs = params.c_sigma
    normalizer = math.sqrt(1.0 - (1.0 - cs) ** (2 * g))
    limit = (1.4 + 2.0 / (params.n + 1.0)) * expected_normal_norm(params.n)
    return 1 if math.sqrt(p_sigma.dot(p_sigma)) / normalizer < limit else 0
