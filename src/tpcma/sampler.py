"""Covariance factorization and multivariate-normal offspring sampling.

Like the other layer modules, these functions take values that
``engine.CmaEs`` has already checked and do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CovarianceFactor", "decompose", "sample_population"]

# Eigenvalues below this fraction of the largest one are raised to the floor
# before taking square roots, keeping the sampling distribution proper.
EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class CovarianceFactor:
    """The matrix A that offspring are sampled with, y = A z.

    ``transform`` is A: C's Cholesky factor, so that A A^T = C exactly, even
    where ``scales`` are floored; or, for a ``repaired`` factor,
    ``basis * scales`` from C's eigendecomposition with its eigenvalues
    raised to the floor, which samples from that floored matrix.  For
    either kind A^(-1) is the inverse square root of A A^T up to a
    rotation, so the cumulative controller whitens a step A z as z.

    ``scales`` are the square roots of C's eigenvalues, ascending, raised
    to a floor of EIGENVALUE_FLOOR times the largest one.  A trace row's
    ``axis_ratio``, longest over shortest principal axis, and ``trace``, the
    sum of the floored eigenvalues, are computed from them once, on building;
    the floor caps ``axis_ratio`` at 1e7.
    """

    transform: np.ndarray
    scales: np.ndarray
    repaired: bool = False
    axis_ratio: float = field(init=False)
    trace: float = field(init=False)

    def __post_init__(self):
        scales = self.scales  # the reduce is the sum's, without the method's wrapper
        object.__setattr__(self, "axis_ratio", float(scales[-1] / scales[0]))
        object.__setattr__(self, "trace", float(np.add.reduce(np.square(scales))))


def _floored_scales(eigenvalues: np.ndarray) -> np.ndarray:
    """Square roots of ascending eigenvalues raised to the floor."""
    largest = eigenvalues[-1]
    if largest <= 0.0:
        raise ValueError("covariance matrix has no positive eigenvalue")
    if eigenvalues[0] >= (floor := EIGENVALUE_FLOOR * largest):  # none to raise
        return np.sqrt(eigenvalues)
    return np.sqrt(np.maximum(eigenvalues, floor))


def decompose(C: np.ndarray) -> CovarianceFactor:
    """The factor of the covariance matrix to sample with.

    ``C`` must be a finite symmetric float matrix; only its lower triangle
    is read.  The result is the Cholesky factor, with ``scales`` from the
    eigenvalues alone, which costs about half of a full eigendecomposition
    at n=400.  When C is not positive definite to working precision,
    Cholesky fails and the eigendecomposition stands in for it, with its
    eigenvalues floored at EIGENVALUE_FLOOR times the largest one, marked
    ``repaired``.  Raises ValueError if no eigenvalue is positive, as there
    is then nothing to floor against.
    """
    try:
        lower = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:  # not positive definite: repair
        eigenvalues, basis = np.linalg.eigh(C)
        scales = _floored_scales(eigenvalues)
        return CovarianceFactor(transform=basis * scales, scales=scales, repaired=True)
    return CovarianceFactor(transform=lower, scales=_floored_scales(np.linalg.eigvalsh(C)))


def sample_population(
    m: np.ndarray,
    sigma: float,
    factor: CovarianceFactor,
    lam: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw lam offspring x_k = m + sigma * y_k with y_k = A z_k ~ N(0, C).

    Returns the (lam, n) matrices X, Y and Z, one offspring per row.  The
    standard-normal variates Z are drawn offspring-major, coordinate-minor,
    so trajectories are reproducible for a given seed and draw order.
    """
    Z = rng.standard_normal((lam, m.shape[0]))
    Y = Z @ factor.transform.T
    return m + sigma * Y, Y, Z
