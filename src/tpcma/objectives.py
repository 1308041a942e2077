"""Benchmark objective functions and noise models."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import field_problems, integer, nonnegative, positive, raise_problems, rule, setting

__all__ = ["ObjectiveSpec", "OBJECTIVE_KINDS", "evaluate", "evaluate_population"]

OBJECTIVE_KINDS = (
    "sphere",
    "ellipsoid",
    "rosenbrock",
    "rastrigin",
    "noisy_sphere",
    "random_fitness",
)

_STOCHASTIC_KINDS = ("noisy_sphere", "random_fitness")


@dataclass(frozen=True)
class ObjectiveSpec:
    """A benchmark objective: function family, dimension, and its knobs.

    ``noise_level`` scales the multiplicative Gaussian noise of
    noisy_sphere; ``condition`` is the axis-scaling condition number of the
    ellipsoid (geometric spacing).  Noiseless kinds evaluate deterministic
    and pure; the stochastic kinds draw from the caller's random stream.
    """

    kind: str = setting(rule(f"one of {OBJECTIVE_KINDS}",
                             lambda kind: isinstance(kind, str) and kind in OBJECTIVE_KINDS),
                        label="objective kind")
    n: int = setting(integer(1), label="dimension")
    noise_level: float = setting(nonnegative, default=0.0)
    condition: float = setting(positive, default=1e6)

    def __post_init__(self):
        raise_problems(field_problems(ObjectiveSpec, self))

    @property
    def stochastic(self) -> bool:
        return self.kind in _STOCHASTIC_KINDS


@functools.lru_cache(maxsize=32)
def _ellipsoid_scales(n: int, condition: float) -> np.ndarray:
    """Axis scales condition^(i/(n-1)); cached, so returned read-only."""
    scales = np.ones(1) if n == 1 else condition ** (np.arange(n) / (n - 1))
    scales.flags.writeable = False
    return scales


def evaluate_population(
    spec: ObjectiveSpec, xs: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Evaluate a (k, n) batch of points, one fitness per row.

    Stochastic kinds draw one variate per row from ``rng`` (row-major
    order), so batched and one-by-one evaluation consume the stream
    identically.
    """
    if (xs := np.asarray(xs, dtype=float)).ndim != 2:
        raise ValueError(f"points must be a (k, n) batch, got shape {xs.shape}")
    if xs.shape[1] != spec.n:
        raise ValueError(f"points have dimension {xs.shape[1]}, objective expects {spec.n}")
    if np.count_nonzero(np.isfinite(xs)) < xs.size:  # a count: cheaper than all()
        raise ValueError("points must be finite")
    if spec.stochastic and rng is None:
        raise ValueError(f"objective {spec.kind!r} needs a random stream")

    if spec.kind == "sphere":  # np.add.reduce is the row sum, without the method's wrapper
        return np.add.reduce(xs**2, axis=1)
    if spec.kind == "ellipsoid":
        return np.add.reduce(_ellipsoid_scales(spec.n, spec.condition) * xs**2, axis=1)
    if spec.kind == "rosenbrock":
        head = xs[:, :-1]
        return np.add.reduce(100.0 * (xs[:, 1:] - head**2) ** 2 + (1.0 - head) ** 2, axis=1)
    if spec.kind == "rastrigin":
        return 10.0 * spec.n + np.add.reduce(xs**2 - 10.0 * np.cos(2.0 * np.pi * xs), axis=1)
    if spec.kind == "noisy_sphere":
        noise = rng.standard_normal(xs.shape[0])
        return np.add.reduce(xs**2, axis=1) * (1.0 + spec.noise_level * noise)
    # random_fitness: independent of x
    return rng.random(xs.shape[0])


def evaluate(spec: ObjectiveSpec, x: np.ndarray, rng: np.random.Generator | None = None) -> float:
    """Evaluate a single point."""
    return float(evaluate_population(spec, np.asarray(x, dtype=float)[None, :], rng)[0])

