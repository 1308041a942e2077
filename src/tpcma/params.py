"""Strategy constants: population size, recombination weights, learning rates.

Only the dimension ``n``, the population size ``lam``, the step-size rule
and its settings are chosen; every other constant (the recombination
weights, the learning rates and the columns the updates scale by) is derived
from these settings on construction and cannot be set.  Settings are changed
with ``dataclasses.replace``, which checks them and derives the rest again.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable

import numpy as np

__all__ = ["StrategyParams", "default_params"]

MAX_ENTRIES = np.iinfo(np.intp).max // 8  # float64s in one array: an n-vector, or lam points

# A rule maps a setting's value to the bound it breaks, or to None; each bound is
# written so that NaN fails it.


def is_real(value: object) -> bool:
    """Whether value is a numbers.Real that a float holds, a bool, nan or ±inf included."""
    # a float first: isinstance against the numbers.Real ABC takes about 9x as long
    if type(value) is not float and not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def integer(low: int, most: int | None = None) -> Callable[[Any], str | None]:
    """The rule "an integer >= low" (no bool), and "at most most" where most is given."""
    def broken(v: Any) -> str | None:
        if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= low):
            return f"an integer >= {low}"
        return f"at most {most}" if most is not None and v > most else None
    return broken


def rule(bound: str, holds: Callable[[Any], bool]) -> Callable[[Any], str | None]:
    """The rule that a value breaks ``bound`` unless ``holds(value)``."""
    return lambda value: None if holds(value) else bound


nonnegative = rule(">= 0 and finite", lambda value: is_real(value) and 0.0 <= value < math.inf)
positive = rule("positive and finite", lambda value: is_real(value) and 0.0 < value < math.inf)


def setting(check: Callable[[Any], str | None], label: str | None = None, *,
            metadata: dict | None = None, **kwargs: Any) -> Any:
    """A dataclass field judged by ``check``, named ``label`` if given; kwargs go to field(),
    with ``metadata`` beside the rule's."""
    return field(metadata={"rule": check, "label": label, **(metadata or {})}, **kwargs)


def field_problems(cls: type, settings: object) -> list[str]:
    """Each problem of the fields ``settings`` holds, as attributes, against their rules in
    ``cls``, in field order, as "<label> must be <bound>, got <value!r>"."""
    # not vars(settings): in CPython 3.11 reading an instance's dict slows its attribute loads ~3x
    return [f"{label} must be {bound}, got {value!r}" for name, label, check in _rules(cls)
            if (value := getattr(settings, name, MISSING)) is not MISSING
            and (bound := check(value)) is not None]


def raise_problems(problems: list[str], error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` if there are problems, joined by "; " and listed as its ``problems``."""
    if problems:
        exc = error("; ".join(problems))
        exc.problems = problems
        raise exc


@functools.cache  # read once per class: dataclasses.fields costs more than the judging
def _rules(cls: type) -> tuple[tuple[str, str, Callable[[Any], str | None]], ...]:
    return tuple((f.name, f.metadata["label"] or f.name, f.metadata["rule"])
                 for f in fields(cls) if "rule" in f.metadata)


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

    n: int = setting(integer(1, most=MAX_ENTRIES))  # no array holds more, and 10**400 no float
    lam: int = setting(integer(2, most=MAX_ENTRIES))
    alpha_test: float = setting(positive, default=0.5)
    alpha_change: float = setting(nonnegative, default=0.5)  # zero freezes the step-size
    beta_bias: float = setting(nonnegative, default=0.0)
    c_alpha: float = setting(rule("in (0, 1]", lambda c: is_real(c) and 0 < c <= 1), default=0.3)
    mode: str = setting(rule("'tpa', 'tpa_legacy' or 'csa'", lambda mode: isinstance(mode, str)
                             and mode in ("tpa", "tpa_legacy", "csa")), default="tpa")
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
        raise_problems(field_problems(StrategyParams, self))

        a = self.alpha_test
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

        rank_mu_scales = np.sqrt(c_mu * weights)[:, None]
        for array in (weights, rank_mu_scales, test_widths):
            array.flags.writeable = False
        for name, value in dict(n=n, lam=lam, mu_prime=mu_prime, mu=mu, weights=weights, mu_w=mu_w,
                                c_c=c_c, c_1=c_1, c_mu=c_mu, c_sigma=c_sigma, d_sigma=d_sigma,
                                rank_mu_scales=rank_mu_scales, test_widths=test_widths).items():
            object.__setattr__(self, name, value)


def default_params(n: int, lam: int | None = None) -> StrategyParams:
    """The strategy constants for dimension ``n`` and the default settings.

    ``lam`` overrides the default population size 4 + floor(3 ln n).
    """
    if lam is None:  # a bad n is reported by StrategyParams; 1 stands in for it here
        lam = 4 + int(math.floor(3.0 * math.log(max(n, 1))))
    return StrategyParams(n=n, lam=lam)
