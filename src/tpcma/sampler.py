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
    """A factor of the covariance matrix C that offspring are sampled with.

    It is one of two kinds.  An eigendecomposition
    C = basis diag(scales^2) basis^T samples y = basis (scales * z); the
    cumulative controller needs it, since it whitens with
    C^(-1/2) = basis diag(1/scales) basis^T, applied as two matrix-vector
    products and never formed.  A Cholesky factor C = lower lower^T samples
    y = lower z and has no ``basis``; the two-point controller uses it, as
    it needs no whitening.

    ``scales`` are the square roots of C's eigenvalues, ascending, raised
    to a floor of EIGENVALUE_FLOOR times the largest one, for both kinds:
    they give the trace's axis ratio and trace.
    ``repaired`` flags a factor that samples from a different matrix than
    C: an eigendecomposition whose eigenvalues were raised to the floor, or
    the one that stands in for a Cholesky factor when C is not positive
    definite to working precision.  A Cholesky factor samples C exactly,
    even where its ``scales`` are floored.

    The engine keeps one factor for n // lam generations (see
    ``engine.CmaEs``), so it may lag C by up to n // lam - 1 updates.
    """

    basis: np.ndarray | None
    scales: np.ndarray
    repaired: bool = False
    lower: np.ndarray | None = None

    @property
    def axis_ratio(self) -> float:
        """Longest over shortest principal axis of the distribution."""
        return float(self.scales[-1] / self.scales[0])


def _floored_scales(eigenvalues: np.ndarray) -> tuple[np.ndarray, bool]:
    """Square roots of ascending eigenvalues raised to the floor, and
    whether any was raised."""
    largest = eigenvalues[-1]
    if largest <= 0.0:
        raise ValueError("covariance matrix has no positive eigenvalue")
    floor = EIGENVALUE_FLOOR * largest
    return np.sqrt(np.maximum(eigenvalues, floor)), bool(eigenvalues[0] < floor)


def decompose(C: np.ndarray, *, want_eigh: bool = False) -> CovarianceFactor:
    """The factor of the covariance matrix to sample with.

    ``C`` must be a finite symmetric float matrix; only its lower triangle
    is read.  With ``want_eigh`` the result is the eigendecomposition;
    otherwise it is the Cholesky factor, with ``scales`` from the
    eigenvalues alone, which costs about half of a full eigendecomposition
    at n=400.  When C is not positive definite to working precision,
    Cholesky fails and the eigendecomposition stands in for it, marked
    ``repaired``.  An indefinite or near-singular matrix is repaired by
    flooring its eigenvalues at EIGENVALUE_FLOOR times the largest one.
    Raises ValueError if no eigenvalue is positive, as there is then
    nothing to floor against.
    """
    if not want_eigh:
        try:
            lower = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            pass  # not positive definite: the floored eigendecomposition below
        else:
            scales, _ = _floored_scales(np.linalg.eigvalsh(C))
            return CovarianceFactor(basis=None, scales=scales, lower=lower)

    eigenvalues, basis = np.linalg.eigh(C)
    scales, repaired = _floored_scales(eigenvalues)
    return CovarianceFactor(basis=basis, scales=scales, repaired=repaired or not want_eigh)


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
    if factor.lower is not None:
        Y = z @ factor.lower.T
    else:
        Y = (z * factor.scales) @ factor.basis.T
    return m + sigma * Y, Y
