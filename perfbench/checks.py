"""Output checks, trajectory digests and the quality metrics of a pass."""

from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np

from tpcma.objectives import evaluate
from workloads import CONTROLLERS


def run_problems(o) -> list[str]:
    """Everything wrong with one run's outcome; empty when it is correct."""
    problems = []
    if not o.objective.stochastic:
        f = evaluate(o.objective, np.array(o.best_x))
        if f != o.best_f:
            problems.append(f"{o.label}: best_x evaluates to {f!r}, reported best_f {o.best_f!r}")
    if o.termination == "target_f" and not o.best_f < o.target:
        problems.append(f"{o.label}: solved but best_f {o.best_f!r} >= target {o.target!r}")
    if o.evals > o.budget + o.last_lam + 2:
        problems.append(f"{o.label}: {o.evals} evals exceed budget {o.budget} + lam + 2")
    if not (math.isfinite(o.sigma) and o.sigma > 0.0):
        problems.append(f"{o.label}: final sigma {o.sigma!r}")
    return problems


def failed_runs(outcomes) -> tuple[int, list[str]]:
    """Number of runs that fail a check, and every problem found."""
    failed, problems = 0, []
    for o in outcomes:
        p = run_problems(o)
        failed += bool(p)
        problems += p
    return failed, problems


def digests(outcomes) -> dict[str, str]:
    """Per controller, a hash of each run's evals, best_f, final sigma and
    best_x, in label order.  Equal digests mean bit-identical results."""
    out = {}
    for ctl in CONTROLLERS:
        h = hashlib.sha256()
        for o in sorted((o for o in outcomes if o.controller == ctl), key=lambda o: o.label):
            h.update(f"{o.label}|{o.evals}|{o.best_f!r}|{o.sigma!r}|".encode())
            h.update(np.asarray(o.best_x, dtype=np.float64).tobytes())
        out[ctl] = h.hexdigest()[:16]
    return out


def quality_metrics(outcomes) -> dict[str, tuple[float, str]]:
    """Expected running time, solved share and decades of fitness gained.

    ERT (COCO) is all evaluations spent divided by the number of successes
    (all of them when nothing succeeded).  A workload without a target
    counts a completed budget as a success, so its ERT is the mean
    evaluations per run.  The gain is the median over runs of
    log10(f(m0) / best_f): unlike log10 best_f it is positive on every
    workload, including those that stop below a target under 1.
    """
    out = {}
    for ctl in CONTROLLERS:
        runs = [o for o in outcomes if o.controller == ctl]
        successes = sum(o.solved for o in runs)
        total = sum(o.evals for o in runs)
        out[f"ert_evals.{ctl}"] = (total / max(successes, 1), "evals")
        out[f"solved_share.{ctl}"] = (successes / len(runs), "share")
        gains = [math.log10(o.f0 / o.best_f) for o in runs]
        out[f"log10_f_gain.{ctl}"] = (statistics.median(gains), "decades")
    return out
