"""Covariance factorization and multivariate-normal offspring sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CovarianceFactor", "decompose", "sample_population"]

# Eigenvalues below this fraction of the largest one are raised to the floor
# before taking square roots, keeping the sampling distribution proper.
EIGENVALUE_FLOOR = 1e-14

_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class CovarianceFactor:
    """Eigendecomposition of a covariance matrix C = basis diag(scales^2) basis^T.

    ``scales`` are the square roots of the (floored) eigenvalues, ascending.
    ``inv_sqrt`` holds C^(-1/2) and is populated only on request: the
    two-point step-size controller never needs it, only the cumulative
    baseline does.  ``repaired`` flags that at least one eigenvalue was
    raised to the floor.

    The engine keeps one factor for several generations at large n (see
    ``engine.CmaEs``), so it may describe a covariance a few updates old.
    """

    basis: np.ndarray
    scales: np.ndarray
    repaired: bool = False
    inv_sqrt: np.ndarray | None = None

    @property
    def axis_ratio(self) -> float:
        """Longest over shortest principal axis of the distribution."""
        return float(self.scales[-1] / self.scales[0])


def decompose(C: np.ndarray, *, want_inv_sqrt: bool = False) -> CovarianceFactor:
    """Symmetric eigendecomposition of the covariance matrix.

    Raises ValueError for non-finite or asymmetric input.  An indefinite or
    near-singular matrix is repaired by flooring its eigenvalues at
    EIGENVALUE_FLOOR times the largest one; ``repaired`` is set on the
    result in that case.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"covariance must be a square matrix, got shape {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("covariance matrix contains non-finite entries")
    scale = np.abs(C).max()
    if np.abs(C - C.T).max() > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError("covariance matrix is not symmetric")

    eigenvalues, basis = np.linalg.eigh(C)
    largest = eigenvalues[-1]
    if largest <= 0.0:
        raise ValueError("covariance matrix has no positive eigenvalue")
    floor = EIGENVALUE_FLOOR * largest
    repaired = bool(eigenvalues[0] < floor)
    eigenvalues = np.maximum(eigenvalues, floor)
    scales = np.sqrt(eigenvalues)

    inv_sqrt = None
    if want_inv_sqrt:
        inv_sqrt = (basis / scales) @ basis.T
    return CovarianceFactor(basis=basis, scales=scales, repaired=repaired, inv_sqrt=inv_sqrt)


def sample_population(
    m: np.ndarray,
    sigma: float,
    factor: CovarianceFactor,
    lam: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw lam offspring x_k = m + sigma * y_k with y_k ~ N(0, C).

    Returns the (lam, n) matrices X and Y, one offspring per row.  The
    underlying standard-normal variates are drawn offspring-major,
    coordinate-minor, so trajectories are reproducible for a given seed
    and draw order.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if lam < 2:
        raise ValueError(f"lam must be >= 2, got {lam}")
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    z = rng.standard_normal((lam, n))
    Y = (z * factor.scales) @ factor.basis.T
    return m + sigma * Y, Y
