"""Covariance factorization and multivariate-normal offspring sampling.

Like the other layer modules, these functions take values that
``engine.CmaEs`` has already checked and do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CovarianceFactor", "decompose", "sample_population"]

# Eigenvalues below this fraction of the largest one are raised to the floor
# before taking square roots, keeping the sampling distribution proper.
EIGENVALUE_FLOOR = 1e-14


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

    ``C`` must be a finite symmetric float matrix; only its lower triangle
    is read.  An indefinite or near-singular matrix is repaired by flooring
    its eigenvalues at EIGENVALUE_FLOOR times the largest one; ``repaired``
    is set on the result in that case.  Raises ValueError if no eigenvalue
    is positive, as there is then nothing to floor against.
    """
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
    z = rng.standard_normal((lam, m.shape[0]))
    Y = (z * factor.scales) @ factor.basis.T
    return m + sigma * Y, Y
