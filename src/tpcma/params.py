"""Strategy constants: population size, recombination weights, learning rates.

Everything here is derived once from the problem dimension (and the
population size) and is immutable afterwards.  Other settings are made
with ``dataclasses.replace``, which re-runs the validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StrategyParams",
    "default_params",
    "compute_weights",
    "variance_effective_mass",
    "nearest_int_half_down",
]

_WEIGHT_SUM_TOL = 1e-12


def nearest_int_half_down(value: float) -> int:
    """Integer closest to ``value``, with .5 ties going to the smaller integer."""
    return int(math.ceil(value - 0.5))


def compute_weights(mu_prime: float, mu: int) -> np.ndarray:
    """Log-rank recombination weights w_i proportional to ln(mu'+0.5) - ln i.

    The weights are normalized to sum to one and are strictly decreasing.
    Raises ValueError if the parameter pair would give a non-positive last
    weight (i.e. if mu >= mu' + 0.5).
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    raw = np.log(mu_prime + 0.5) - np.log(np.arange(1, mu + 1, dtype=float))
    if raw[-1] <= 0.0:
        raise ValueError(
            f"weight shape mu'={mu_prime} with mu={mu} gives a non-positive "
            f"last weight; mu must be smaller than mu' + 0.5"
        )
    return raw / raw.sum()


def variance_effective_mass(weights: np.ndarray) -> float:
    """Effective number of parents 1 / sum(w_i^2) implied by the weights.

    Equals mu for equal weights and lies in [1, mu] for any normalized,
    positive weight vector.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
    return float(1.0 / np.sum(w**2))


@dataclass(frozen=True)
class StrategyParams:
    """Immutable bundle of all strategy constants for one run.

    Instances are usually built by :func:`default_params`; deliberately
    non-default settings replace fields of such an instance.
    All invariants are checked on construction, violations raise ValueError
    (overrides are validated, never silently clamped).

    Attributes:
        n: search-space dimension.
        lam: offspring population size per generation.
        mu_prime: weight-shape parameter (usually lam/2).
        mu: number of selected parents.
        weights: mu recombination weights, positive, decreasing, sum 1.
        mu_w: variance effective selection mass 1/sum(w_i^2).
        c_c: cumulation constant for the covariance evolution path.
        c_1: rank-one covariance learning rate.
        c_mu: rank-mu covariance learning rate.
        alpha_test: half-width of the two step-size test points, in units
            of the realized mean shift.
        alpha_change: magnitude of the raw step-size change signal.
        beta_bias: upward bias added to the decrease branch of the signal
            (used for noise handling, default 0).
        c_alpha: smoothing rate for the step-size signal, in (0, 1].
        c_sigma: path learning rate of the cumulative (baseline) step-size
            controller.
        d_sigma: damping of the cumulative controller.
        legacy: the original two-point scheme of evolutionary gradient
            search: the downward test point uses width
            alpha_test/(1+alpha_test), and the mean update is deferred
            until after the step-size update and uses the new step-size.
    """

    n: int
    lam: int
    mu_prime: float
    mu: int
    weights: np.ndarray
    mu_w: float
    c_c: float
    c_1: float
    c_mu: float
    c_sigma: float
    d_sigma: float
    alpha_test: float = 0.5
    alpha_change: float = 0.5
    beta_bias: float = 0.0
    c_alpha: float = 0.3
    legacy: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

        # the float bounds are written so that NaN fails them
        problems = []
        if self.n < 1:
            problems.append(f"n must be >= 1, got {self.n}")
        if self.lam < 2:
            problems.append(f"lam must be >= 2, got {self.lam}")
        if self.mu < 1:
            problems.append(f"mu must be >= 1, got {self.mu}")
        if self.mu > self.lam:
            problems.append(f"mu={self.mu} exceeds lam={self.lam}")
        if w.shape != (self.mu,):
            problems.append(f"weights must have shape ({self.mu},), got {w.shape}")
        else:
            if not (w > 0.0).all():
                problems.append("weights must be strictly positive")
            if np.any(np.diff(w) > 0.0):
                problems.append("weights must be non-increasing")
            if not abs(w.sum() - 1.0) <= _WEIGHT_SUM_TOL:
                problems.append(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}")
            if not (1.0 - 1e-9 <= self.mu_w <= self.mu + 1e-9):
                problems.append(f"mu_w={self.mu_w} outside [1, mu={self.mu}]")
        if not 0.0 < self.c_c <= 1.0:
            problems.append(f"c_c must be in (0, 1], got {self.c_c}")
        if not 0.0 <= self.c_1 < 1.0:
            problems.append(f"c_1 must be in [0, 1), got {self.c_1}")
        if not 0.0 <= self.c_mu < 1.0:
            problems.append(f"c_mu must be in [0, 1), got {self.c_mu}")
        if self.c_1 + self.c_mu > 1.0:
            problems.append(f"c_1 + c_mu = {self.c_1 + self.c_mu} exceeds 1")
        if not 0.0 < self.alpha_test < math.inf:
            problems.append(f"alpha_test must be positive and finite, got {self.alpha_test}")
        if not 0.0 <= self.alpha_change < math.inf:
            # zero is allowed: it freezes the step-size entirely
            problems.append(f"alpha_change must be >= 0 and finite, got {self.alpha_change}")
        if not 0.0 <= self.beta_bias < math.inf:
            problems.append(f"beta_bias must be >= 0 and finite, got {self.beta_bias}")
        if not 0.0 < self.c_alpha <= 1.0:
            problems.append(f"c_alpha must be in (0, 1], got {self.c_alpha}")
        if not 0.0 < self.c_sigma < 1.0:
            problems.append(f"c_sigma must be in (0, 1), got {self.c_sigma}")
        if not 0.0 < self.d_sigma < math.inf:
            problems.append(f"d_sigma must be positive and finite, got {self.d_sigma}")
        if problems:
            raise ValueError("invalid strategy parameters: " + "; ".join(problems))


def default_lambda(n: int) -> int:
    """Default population size 4 + floor(3 ln n)."""
    return 4 + int(math.floor(3.0 * math.log(n)))


def default_params(n: int, lam: int | None = None) -> StrategyParams:
    """Derive the full strategy-constant set for dimension ``n``.

    ``lam`` overrides the default population size 4 + floor(3 ln n).

    mu' is lam/2 and mu is the integer closest to it, with ties going to
    the smaller integer so that the last weight stays positive.
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if lam is None:
        lam = default_lambda(n)
    elif lam < 2:
        raise ValueError(f"population size lam must be >= 2, got {lam}")

    mu_prime = lam / 2.0
    mu = nearest_int_half_down(mu_prime)
    weights = compute_weights(mu_prime, mu)
    mu_w = variance_effective_mass(weights)

    c_c = 4.0 / (n + 4.0)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_w)
    # mu_w - 2 + 1/mu_w = (mu_w - 1)^2 / mu_w >= 0, so c_mu >= 0
    c_mu = min(2.0 * (mu_w - 2.0 + 1.0 / mu_w) / ((n + 2.0) ** 2 + mu_w), 1.0 - c_1)
    c_sigma = (mu_w + 2.0) / (n + mu_w + 3.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_w - 1.0) / (n + 1.0)) - 1.0) + c_sigma

    return StrategyParams(
        n=n,
        lam=lam,
        mu_prime=mu_prime,
        mu=mu,
        weights=weights,
        mu_w=mu_w,
        c_c=c_c,
        c_1=c_1,
        c_mu=c_mu,
        c_sigma=c_sigma,
        d_sigma=d_sigma,
    )
