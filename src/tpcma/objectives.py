"""Benchmark objective functions and noise models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    kind: str
    n: int
    noise_level: float = 0.0
    condition: float = 1e6

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; choose from {OBJECTIVE_KINDS}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.noise_level < 0.0:
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")
        if self.condition <= 0.0:
            raise ValueError(f"condition must be positive, got {self.condition}")

    @property
    def stochastic(self) -> bool:
        return self.kind in _STOCHASTIC_KINDS


def _ellipsoid_scales(n: int, condition: float) -> np.ndarray:
    if n == 1:
        return np.ones(1)
    return condition ** (np.arange(n) / (n - 1))


def evaluate_population(
    spec: ObjectiveSpec, xs: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Evaluate a (k, n) batch of points, one fitness per row.

    Stochastic kinds draw one variate per row from ``rng`` (row-major
    order), so batched and one-by-one evaluation consume the stream
    identically.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != spec.n:
        raise ValueError(f"points have dimension {xs.shape[1]}, objective expects {spec.n}")
    if not np.all(np.isfinite(xs)):
        raise ValueError("points must be finite")
    if spec.stochastic and rng is None:
        raise ValueError(f"objective {spec.kind!r} needs a random stream")

    if spec.kind == "sphere":
        return np.sum(xs**2, axis=1)
    if spec.kind == "ellipsoid":
        return np.sum(_ellipsoid_scales(spec.n, spec.condition) * xs**2, axis=1)
    if spec.kind == "rosenbrock":
        return np.sum(
            100.0 * (xs[:, 1:] - xs[:, :-1] ** 2) ** 2 + (1.0 - xs[:, :-1]) ** 2, axis=1
        )
    if spec.kind == "rastrigin":
        return 10.0 * spec.n + np.sum(xs**2 - 10.0 * np.cos(2.0 * np.pi * xs), axis=1)
    if spec.kind == "noisy_sphere":
        noise = rng.standard_normal(xs.shape[0])
        return np.sum(xs**2, axis=1) * (1.0 + spec.noise_level * noise)
    # random_fitness: independent of x
    return rng.random(xs.shape[0])


def evaluate(spec: ObjectiveSpec, x: np.ndarray, rng: np.random.Generator | None = None) -> float:
    """Evaluate a single point."""
    return float(evaluate_population(spec, np.asarray(x, dtype=float)[None, :], rng)[0])

