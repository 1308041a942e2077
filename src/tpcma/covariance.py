"""Rank-one plus rank-mu covariance matrix adaptation with a stall gate.

Like the other layer modules, these functions take values that
``engine.CmaEs`` has already checked and do not check them again.
"""

from __future__ import annotations

import math

import numpy as np

from .params import StrategyParams

__all__ = ["stall_indicator", "update_path", "update_covariance"]

_BLOCK_ENTRIES = 32_768  # 256 KB of float64: one block for every n <= 181


def stall_indicator(alpha_s: float, g: int, params: StrategyParams) -> int:
    """Gate for the evolution-path update in two-point mode.

    Returns 0 when the smoothed step-size signal exceeds
    (1 - (1-c_alpha)^9) (1 - (1-c_alpha)^g) * alpha_change, and 1 otherwise.
    A large positive signal means the step-size is still being ramped up
    after an environment change; shape changes are postponed until then.
    ``g`` counts completed generations and is 1 at the first update.
    """
    decay = 1.0 - params.c_alpha
    threshold = (1.0 - decay**9) * (1.0 - decay**g) * params.alpha_change
    return 0 if alpha_s > threshold else 1


def update_path(
    p_c: np.ndarray, mean_step: np.ndarray, h_sigma: int, params: StrategyParams
) -> np.ndarray:
    """The evolution path p_c with the mean step cumulated into it (or
    decayed only, when h_sigma is 0), as a new array."""
    coeff = math.sqrt(params.c_c * (2.0 - params.c_c) * params.mu_w)
    return (1.0 - params.c_c) * p_c + h_sigma * coeff * mean_step


def update_covariance(
    C: np.ndarray, p_c: np.ndarray, Y_sel: np.ndarray, params: StrategyParams
) -> np.ndarray:
    """Rank-one plus rank-mu covariance update, over one generation or k.

    C' = d C + c_1 p_c p_c^T + c_mu Y_sel^T diag(w) Y_sel with d = 1 - c_1 - c_mu,
    where ``Y_sel`` holds the mu best sampled steps as rows, best first, w is
    ``params.weights`` and ``p_c`` is already this generation's path.  Stacked
    inputs, ``p_c`` (k, n) and ``Y_sel`` (k, mu, n), oldest first, apply k
    updates: C' = d^k C + sum_j d^(k-1-j) V_j^T V_j, where V_j holds generation
    j's rows sqrt(c_1) p_c and sqrt(c_mu w_i) y_i (``params.rank_mu_scales``),
    scaled by sqrt(d^(k-1-j)), which is 1 for the newest.  All k (mu + 1) rows
    are one product V^T V, which BLAS ``syrk`` computes in one triangle and
    mirrors, so C' is a new, exactly symmetric array.  The decayed C is added in
    row blocks, so C' and V are the only arrays allocated (a freed n x n one
    would be faulted in again), and each entry is still rounded as v + (d^k c).
    """
    n = len(C)
    k, decay = p_c.size // n, 1.0 - params.c_1 - params.c_mu
    V = np.empty((k, params.mu + 1, n))
    np.multiply(math.sqrt(params.c_1), p_c, out=V[:, 0])
    np.multiply(params.rank_mu_scales, Y_sel, out=V[:, 1:])
    for j in range(k - 1):
        V[j] *= math.sqrt(decay ** (k - 1 - j))
    V = V.reshape(-1, n)
    C_new = V.T @ V
    decay, rows = decay**k, max(1, _BLOCK_ENTRIES // n)
    if n <= rows:  # one block, the whole of C
        C_new += decay * C
    else:
        for start in range(0, n, rows):
            C_new[start : start + rows] += decay * C[start : start + rows]
    return C_new
