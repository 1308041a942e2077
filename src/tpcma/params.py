"""Strategy constants: population size, recombination weights, learning rates.

Only the dimension ``n``, the population size ``lam``, the step-size rule
and its settings are chosen; every other constant (the recombination
weights, the learning rates and the columns the updates scale by) is derived
from these settings on construction and cannot be set.  Settings are changed
with ``dataclasses.replace``, which checks them and derives the rest again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StrategyParams", "default_params"]

MAX_ENTRIES = np.iinfo(np.intp).max // 8  # float64s in one array: an n-vector, or lam points


@dataclass(frozen=True)
class StrategyParams:
    """Immutable bundle of all strategy constants for one run.

    Instances are usually built by :func:`default_params`; deliberately
    non-default settings replace fields of such an instance.  The settings
    are checked on construction, violations raise ValueError (they are
    never silently clamped).

    Settings:
        n: search-space dimension.
        lam: offspring population size per generation.
        alpha_test: half-width of the two step-size test points, in units
            of the realized mean shift.
        alpha_change: magnitude of the raw step-size change signal.
        beta_bias: upward bias added to the decrease branch of the signal
            (used for noise handling, default 0).
        c_alpha: smoothing rate for the step-size signal, in (0, 1].
        mode: the step-size rule: "tpa", two-point adaptation; "csa",
            cumulative adaptation, which reads none of the four settings
            above; or "tpa_legacy", the original two-point scheme of
            evolutionary gradient search: its downward test point uses width
            alpha_test/(1+alpha_test), and the mean update is deferred
            until after the step-size update and uses the new step-size.

    Derived from the settings:
        mu_prime: weight-shape parameter lam/2.
        mu: number of selected parents, the integer closest to mu_prime,
            with ties going to the smaller one so that the last weight
            stays positive.
        weights: mu log-rank recombination weights proportional to
            ln(mu'+0.5) - ln i, positive, decreasing, sum 1.
        mu_w: variance effective selection mass 1/sum(w_i^2).
        c_c: cumulation constant for the covariance evolution path.
        c_1: rank-one covariance learning rate.
        c_mu: rank-mu covariance learning rate.
        c_sigma: path learning rate of the cumulative (baseline) step-size
            controller.
        d_sigma: damping of the cumulative controller.
        rank_mu_scales: the column sqrt(c_mu w_i) that scales the selected
            steps in the covariance update.
        test_widths: the column of the test points' signed widths, alpha_test
            and -alpha_test, or -alpha_test/(1+alpha_test) under "tpa_legacy".
    """

    n: int
    lam: int
    alpha_test: float = 0.5
    alpha_change: float = 0.5
    beta_bias: float = 0.0
    c_alpha: float = 0.3
    mode: str = "tpa"
    mu_prime: float = field(init=False)
    mu: int = field(init=False)
    weights: np.ndarray = field(init=False)
    mu_w: float = field(init=False)
    c_c: float = field(init=False)
    c_1: float = field(init=False)
    c_mu: float = field(init=False)
    c_sigma: float = field(init=False)
    d_sigma: float = field(init=False)
    rank_mu_scales: np.ndarray = field(init=False)
    test_widths: np.ndarray = field(init=False)

    def __post_init__(self):
        # the float bounds are written so that NaN fails them
        problems = []
        for name, low in (("n", 1), ("lam", 2)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= low):
                problems.append(f"{name} must be an integer >= {low}, got {value!r}")
            elif value > MAX_ENTRIES:  # before deriving: no array holds them, and 10**400 no float
                problems.append(f"{name} must be at most {MAX_ENTRIES}, got {value!r}")
        a, change, beta, c = self.alpha_test, self.alpha_change, self.beta_bias, self.c_alpha
        if not (is_real(a) and 0.0 < a < math.inf):
            problems.append(f"alpha_test must be positive and finite, got {a!r}")
        if not (is_real(change) and 0.0 <= change < math.inf):
            # zero is allowed: it freezes the step-size entirely
            problems.append(f"alpha_change must be >= 0 and finite, got {change!r}")
        if not (is_real(beta) and 0.0 <= beta < math.inf):
            problems.append(f"beta_bias must be >= 0 and finite, got {beta!r}")
        if not (is_real(c) and 0.0 < c <= 1.0):
            problems.append(f"c_alpha must be in (0, 1], got {c!r}")
        if self.mode not in ("tpa", "tpa_legacy", "csa"):
            problems.append(f"mode must be 'tpa', 'tpa_legacy' or 'csa', got {self.mode!r}")
        if problems:
            raise ValueError("; ".join(problems))

        # stored as ints: a numpy integer would make every derived constant a numpy scalar
        n, lam = int(self.n), int(self.lam)
        mu_prime = lam / 2.0
        # ceil(lam/2 - 0.5) < mu' + 0.5, so every weight is positive
        mu = int(math.ceil(mu_prime - 0.5))
        raw = np.log(mu_prime + 0.5) - np.log(np.arange(1, mu + 1, dtype=float))
        weights = raw / raw.sum()
        mu_w = float(1.0 / np.sum(weights**2))

        c_c = 4.0 / (n + 4.0)
        c_1 = 2.0 / ((n + 1.3) ** 2 + mu_w)
        # mu_w - 2 + 1/mu_w = (mu_w - 1)^2 / mu_w >= 0, so c_mu >= 0
        c_mu = min(2.0 * (mu_w - 2.0 + 1.0 / mu_w) / ((n + 2.0) ** 2 + mu_w), 1.0 - c_1)
        c_sigma = (mu_w + 2.0) / (n + mu_w + 3.0)
        d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_w - 1.0) / (n + 1.0)) - 1.0) + c_sigma
        test_widths = np.array([[a], [-a / (1.0 + a) if self.mode == "tpa_legacy" else -a]], float)

        derived = dict(mu_prime=mu_prime, mu=mu, weights=weights, mu_w=mu_w, c_c=c_c,
                       c_1=c_1, c_mu=c_mu, c_sigma=c_sigma, d_sigma=d_sigma,
                       rank_mu_scales=np.sqrt(c_mu * weights)[:, None], test_widths=test_widths)
        for name, value in dict(n=n, lam=lam, **derived).items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)


def is_integer(value: object) -> bool:
    """Whether value is an int or a numpy integer; a bool is neither."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """Whether value is a numbers.Real that a float holds, a bool, nan or ±inf included."""
    if not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def default_lambda(n: int) -> int:
    """Default population size 4 + floor(3 ln n)."""
    return 4 + int(math.floor(3.0 * math.log(n)))


def default_params(n: int, lam: int | None = None) -> StrategyParams:
    """The strategy constants for dimension ``n`` and the default settings.

    ``lam`` overrides the default population size 4 + floor(3 ln n).
    """
    # a bad n is reported by StrategyParams; 1 stands in for the default lam
    return StrategyParams(n=n, lam=default_lambda(max(n, 1)) if lam is None else lam)
