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
    """Rank-one plus rank-mu covariance update.

    C' = (1 - c_1 - c_mu) C + c_1 p_c p_c^T + c_mu Y_sel^T diag(w) Y_sel,
    where ``Y_sel`` holds the mu best sampled steps as rows, best first,
    and w is ``params.weights``.  ``p_c`` must already be this
    generation's path.  The dyads are one product V^T V of the rows
    sqrt(c_1) p_c and sqrt(c_mu w_i) y_i, which BLAS ``syrk`` computes in
    one triangle and mirrors, so C' is a new, exactly symmetric array.
    The decayed C is added in row blocks, so C' is the only n x n array
    allocated (a freed one is given back to the system and faulted in
    again), and each entry is still rounded as v + ((1 - c_1 - c_mu) c).
    """
    V = np.empty((len(Y_sel) + 1, len(p_c)))
    V[0] = math.sqrt(params.c_1) * p_c
    np.multiply(np.sqrt(params.c_mu * params.weights)[:, None], Y_sel, out=V[1:])
    C_new = V.T @ V
    decay, rows = 1.0 - params.c_1 - params.c_mu, max(1, _BLOCK_ENTRIES // len(p_c))
    for start in range(0, len(p_c), rows):
        C_new[start : start + rows] += decay * C[start : start + rows]
    return C_new
