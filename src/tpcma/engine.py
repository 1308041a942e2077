"""The generation loop: sampling, selection, step-size and covariance updates.

The core object is :class:`CmaEs`, an ask/tell optimizer.  In two-point
mode each generation has two ask/tell rounds: first the lam offspring, then
(after the mean update) the two step-size test points.  In cumulative
(baseline) mode a single round completes the generation.
:func:`run_with_restarts` drives optimizers against a benchmark objective,
restarting with increasing population size; :func:`run` is its case
without restarts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import covariance as cov_mod
from . import objectives as obj_mod
from . import recombine, sampler, stepsize
from .params import StrategyParams, default_params
from .stepsize import CsaState, TpaState, salomon_legacy_params

__all__ = [
    "CONTROLLERS",
    "CmaEs",
    "EvolutionState",
    "TerminationCriteria",
    "RunRecord",
    "RunResult",
    "RunConfig",
    "RestartPolicy",
    "RestartSegment",
    "RunAborted",
    "run",
    "run_with_restarts",
]

CONTROLLERS = ("tpa", "tpa_noise", "tpa_legacy", "csa")

# beta_bias used by the tpa_noise controller: 0.2 * alpha_change at defaults.
NOISE_BETA_BIAS = 0.1


class RunAborted(RuntimeError):
    """A run hit a numerically or semantically unrecoverable condition.

    Carries a diagnostic snapshot of the optimizer state at abort time.
    """

    def __init__(self, message: str, state: "EvolutionState | None" = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class TerminationCriteria:
    """Stop conditions, checked between generations.

    Zero / infinite values disable the respective check.  ``max_evals`` is
    a budget on function evaluations; a generation in progress is always
    completed, so the final count may overshoot by at most lam + 2.
    """

    max_evals: int = 100_000
    target_f: float = -math.inf
    tol_x: float = 0.0
    tol_fun: float = 0.0
    sigma_ratio_min: float = 0.0
    sigma_ratio_max: float = math.inf
    max_axis_ratio: float = math.inf

    def __post_init__(self):
        if self.max_evals < 0:
            raise ValueError(f"max_evals must be >= 0, got {self.max_evals}")
        for name in ("tol_x", "tol_fun", "sigma_ratio_min"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.sigma_ratio_max <= 0.0:
            raise ValueError(f"sigma_ratio_max must be positive, got {self.sigma_ratio_max}")
        if self.max_axis_ratio <= 0.0:
            raise ValueError(f"max_axis_ratio must be positive, got {self.max_axis_ratio}")


@dataclass(frozen=True)
class RunRecord:
    """One trace row per completed generation.

    ``sigma``, ``alpha_s`` and ``best_f`` are the values after the
    generation's updates; ``axis_ratio`` and ``trace_C`` describe the
    covariance the generation was sampled from.  ``alpha_s`` is NaN in
    cumulative mode.
    """

    generation: int
    evals: int
    best_f: float
    sigma: float
    alpha_s: float
    axis_ratio: float
    trace_C: float


@dataclass(frozen=True)
class EvolutionState:
    """Snapshot of the mutable optimizer state."""

    m: np.ndarray
    sigma: float
    cov: cov_mod.CovarianceState
    controller: TpaState | CsaState
    g: int
    evals: int
    best_x: np.ndarray | None
    best_f: float


@dataclass(frozen=True)
class RestartSegment:
    """Summary of one (re)start within a run."""

    lam: int
    evals: int
    generations: int
    termination: str
    best_f: float


class _TestRound(NamedTuple):
    """What a two-point generation carries from its population round to its
    test-point round: the selected steps, their weighted mean, the mean
    before the update and the two test points as a (2, n) matrix."""

    Y_sel: np.ndarray
    mean_step: np.ndarray
    m_old: np.ndarray
    test_points: np.ndarray


@dataclass
class RunResult:
    """Outcome of a run: best solution, termination reason, full trace."""

    best_x: np.ndarray | None
    best_f: float
    termination: str
    evals: int
    generations: int
    trace: list[RunRecord]
    segments: list[RestartSegment] = field(default_factory=list)

    @property
    def restarts(self) -> int:
        return max(0, len(self.segments) - 1)


class CmaEs:
    """Ask/tell CMA-ES with a two-point or cumulative step-size controller.

    The caller owns evaluation: ``ask()`` yields candidate points as the
    rows of a (k, n) matrix, ``tell(fitnesses)`` feeds back their objective
    values (minimization; failures mapped to +inf, never NaN).  In
    two-point mode a generation is two rounds: the lam offspring, then the
    two test points returned by the following ``ask()``.
    """

    def __init__(
        self,
        params: StrategyParams,
        m0: np.ndarray,
        sigma0: float,
        *,
        mode: str = "tpa",
        criteria: TerminationCriteria | None = None,
        rng: np.random.Generator | None = None,
        record_trace: bool = True,
    ):
        if mode not in ("tpa", "csa"):
            raise ValueError(f"mode must be 'tpa' or 'csa', got {mode!r}")
        m0 = np.array(m0, dtype=float)
        if m0.shape != (params.n,):
            raise ValueError(f"m0 must have shape ({params.n},), got {m0.shape}")
        if not np.all(np.isfinite(m0)):
            raise ValueError("m0 must be finite")
        if not (sigma0 > 0.0 and math.isfinite(sigma0)):
            raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")

        self.params = params
        self.mode = mode
        self.criteria = criteria if criteria is not None else TerminationCriteria()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.record_trace = record_trace

        self.m = m0
        self.sigma = float(sigma0)
        self.sigma0 = float(sigma0)
        self.cov = cov_mod.initial_covariance_state(params.n)
        self.tpa = TpaState() if mode == "tpa" else None
        self.csa = CsaState(p_sigma=np.zeros(params.n)) if mode == "csa" else None
        self.generation = 0
        self.evals = 0
        self.best_x: np.ndarray | None = None
        self.best_f = math.inf
        self.trace: list[RunRecord] = []

        self._pending: np.ndarray | None = None  # the points of an untold ask()
        self._factor: sampler.CovarianceFactor | None = None
        self._Y: np.ndarray | None = None  # the steps of the last sampled population
        self._test_round: _TestRound | None = None  # set between the two tpa rounds
        window = 10 + int(math.ceil(30.0 * params.n / params.lam))
        self._gen_best: deque[float] = deque(maxlen=window)
        self._stop_reason: str | None = None

    # -- state & diagnostics ------------------------------------------------

    @property
    def state(self) -> EvolutionState:
        controller = self.tpa if self.mode == "tpa" else self.csa
        return EvolutionState(
            m=self.m.copy(),
            sigma=self.sigma,
            cov=self.cov,
            controller=controller,
            g=self.generation,
            evals=self.evals,
            best_x=None if self.best_x is None else self.best_x.copy(),
            best_f=self.best_f,
        )

    @property
    def alpha_s(self) -> float:
        return self.tpa.alpha_s if self.mode == "tpa" else math.nan

    # -- termination ---------------------------------------------------------

    def should_stop(self) -> str | None:
        """Reason to stop, or None.  Only fires between generations."""
        if self._stop_reason is not None:
            return self._stop_reason
        if self._test_round is not None:
            return None
        c = self.criteria
        reason = None
        if self.best_f < c.target_f:
            reason = "target_f"
        elif self.evals >= c.max_evals:
            reason = "max_evals"
        elif self.sigma < c.sigma_ratio_min * self.sigma0:
            reason = "sigma_min"
        elif self.sigma > c.sigma_ratio_max * self.sigma0:
            reason = "sigma_max"
        elif c.tol_x > 0.0 and self.sigma * math.sqrt(float(np.max(np.diag(self.cov.C)))) < c.tol_x:
            reason = "tol_x"
        elif (
            c.tol_fun > 0.0
            and len(self._gen_best) == self._gen_best.maxlen
            and max(self._gen_best) - min(self._gen_best) < c.tol_fun
        ):
            reason = "tol_fun"
        elif self._factor is not None and self._factor.axis_ratio > c.max_axis_ratio:
            reason = "max_axis_ratio"
        self._stop_reason = reason
        return reason

    # -- ask/tell ------------------------------------------------------------

    def ask(self) -> np.ndarray:
        """Points to evaluate next, one per row: the lam offspring, or the
        two test points."""
        if self._pending is not None:
            raise RuntimeError("ask() called twice without tell()")
        if self._test_round is None:
            self._factor = sampler.decompose(self.cov.C, want_inv_sqrt=(self.mode == "csa"))
            self._pending, self._Y = sampler.sample_population(
                self.m, self.sigma, self._factor, self.params.lam, self.rng
            )
        else:
            self._pending = self._test_round.test_points
        return self._pending

    def tell(self, fitnesses: Sequence[float]) -> None:
        """Feed back objective values for the points of the last ask().

        The values are validated before anything changes: a tell that
        raises ValueError leaves the ask pending, to be told again.
        """
        if self._pending is None:
            raise RuntimeError("tell() called without a pending ask()")
        if self._test_round is None:
            self._tell_population(fitnesses)
        else:
            self._tell_test_points(fitnesses)

    def _tell_population(self, fitnesses: Sequence[float]) -> None:
        p = self.params
        fitness = np.asarray(fitnesses, dtype=float)
        if fitness.shape != (p.lam,):
            raise ValueError(f"expected {p.lam} fitness values, got {fitness.size}")
        order = recombine.rank(fitness)
        n_infeasible = int(np.isinf(fitness).sum())
        if n_infeasible > p.lam - p.mu:
            raise RunAborted(
                f"{n_infeasible} of {p.lam} evaluations infeasible; "
                f"selection needs at least {p.mu} finite values",
                self.state,
            )
        X, self._pending = self._pending, None
        self.evals += p.lam
        best = order[0]
        self._gen_best.append(float(fitness[best]))
        self._note_best(X[best], fitness[best])

        Y_sel = self._Y[order[: p.mu]]
        mean_step = recombine.weighted_mean_step(Y_sel, p.weights)
        m_new = recombine.update_mean(self.m, self.sigma, mean_step)

        if self.mode == "csa":
            self.m = m_new
            self.csa, multiplier = stepsize.csa_update(
                self.csa, mean_step, self._factor.inv_sqrt, p
            )
            self.sigma *= multiplier
            g_next = self.generation + 1
            h_sigma = stepsize.csa_stall_indicator(self.csa.p_sigma, g_next, p)
            self._finish_generation(Y_sel, mean_step, h_sigma)
        else:
            minus_width = (
                p.alpha_test / (1.0 + p.alpha_test) if p.asymmetric_minus_point else None
            )
            test_points = stepsize.tpa_test_points(
                m_new, self.sigma, mean_step, p.alpha_test, minus_width=minus_width
            )
            self._test_round = _TestRound(Y_sel, mean_step, self.m, np.stack(test_points))
            if not p.mean_uses_new_sigma:
                self.m = m_new

    def _tell_test_points(self, fitnesses: Sequence[float]) -> None:
        p = self.params
        if len(fitnesses) != 2:
            raise ValueError(f"expected 2 test-point fitness values, got {len(fitnesses)}")
        f_plus, f_minus = float(fitnesses[0]), float(fitnesses[1])
        if math.isnan(f_plus) or math.isnan(f_minus):
            raise ValueError("NaN fitness; map failed evaluations to +inf instead")
        self._pending = None
        test_round, self._test_round = self._test_round, None
        self.evals += 2
        self._note_best(test_round.test_points[0], f_plus)
        self._note_best(test_round.test_points[1], f_minus)

        self.tpa, multiplier = stepsize.tpa_update(self.tpa, f_plus, f_minus, p)
        self.sigma *= multiplier
        if p.mean_uses_new_sigma:
            self.m = recombine.update_mean(test_round.m_old, self.sigma, test_round.mean_step)
        g_next = self.generation + 1
        h_sigma = cov_mod.stall_indicator(self.tpa.alpha_s, g_next, p)
        self._finish_generation(test_round.Y_sel, test_round.mean_step, h_sigma)

    def _note_best(self, x: np.ndarray, fitness: float) -> None:
        if fitness < self.best_f:
            self.best_f = float(fitness)
            self.best_x = x.copy()

    def _finish_generation(self, Y_sel: np.ndarray, mean_step: np.ndarray, h_sigma: int) -> None:
        p = self.params
        self.cov = cov_mod.update_path(self.cov, mean_step, h_sigma, p)
        self.cov = cov_mod.update_covariance(self.cov, Y_sel, p.weights, p)
        self.generation += 1
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise RunAborted(f"step-size became {self.sigma}", self.state)
        if not np.all(np.isfinite(self.cov.C)):
            raise RunAborted("covariance matrix became non-finite", self.state)
        if self.record_trace:
            self.trace.append(
                RunRecord(
                    generation=self.generation,
                    evals=self.evals,
                    best_f=self.best_f,
                    sigma=self.sigma,
                    alpha_s=self.alpha_s,
                    axis_ratio=self._factor.axis_ratio,
                    trace_C=float(np.sum(self._factor.scales**2)),
                )
            )


# -- configured runs ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one optimization run."""

    objective: obj_mod.ObjectiveSpec
    controller: str = "tpa"
    seed: int = 0
    m0: float | Sequence[float] = 0.0
    sigma0: float = 1.0
    lam: int | None = None
    beta_bias: float | None = None
    c_alpha: float | None = None
    criteria: TerminationCriteria = field(default_factory=TerminationCriteria)
    record_trace: bool = True

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}, got {self.controller!r}")

    def initial_mean(self) -> np.ndarray:
        m0 = np.asarray(self.m0, dtype=float)
        if m0.ndim == 0:
            return np.full(self.objective.n, float(m0))
        return m0

    def build_params(self, lam: int | None = None) -> tuple[StrategyParams, str]:
        """Resolve the controller alias into (params, engine mode)."""
        n = self.objective.n
        beta = self.beta_bias
        if self.controller == "tpa_noise" and beta is None:
            beta = NOISE_BETA_BIAS
        params = default_params(
            n,
            lam=lam if lam is not None else self.lam,
            beta_bias=beta,
            c_alpha=self.c_alpha,
        )
        if self.controller == "tpa_legacy":
            params = salomon_legacy_params(params)
            if self.beta_bias is not None:
                params = replace(params, beta_bias=self.beta_bias)
            if self.c_alpha is not None:
                params = replace(params, c_alpha=self.c_alpha)
        mode = "csa" if self.controller == "csa" else "tpa"
        return params, mode


@dataclass(frozen=True)
class RestartPolicy:
    """Restart schedule: multiply lam on every restart, up to a limit.

    ``bounds`` (lower, upper arrays) trigger a fresh uniform initial mean
    per restart; without bounds the configured initial mean is reused.
    """

    lam_multiplier: float = 2.0
    max_restarts: int = 0
    bounds: tuple[Sequence[float], Sequence[float]] | None = None

    def __post_init__(self):
        if self.lam_multiplier <= 1.0:
            raise ValueError(f"lam_multiplier must exceed 1, got {self.lam_multiplier}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")


def run(config: RunConfig) -> RunResult:
    """One optimization run, deterministic for a given (config, seed)."""
    return run_with_restarts(config, RestartPolicy())


def run_with_restarts(config: RunConfig, policy: RestartPolicy) -> RunResult:
    """Run with restarts at increasing population size.

    Each non-target termination restarts from a fresh state (mean per
    policy, unit covariance, zeroed paths and signals) with lam scaled by
    the policy multiplier; the evaluation budget is global across
    restarts.  The random stream continues across segments.  The result's
    termination is that of the last segment.
    """
    rng = np.random.default_rng(config.seed)
    spec = config.objective
    budget = config.criteria.max_evals
    lam = config.lam

    trace: list[RunRecord] = []
    segments: list[RestartSegment] = []
    best_x: np.ndarray | None = None
    best_f = math.inf
    evals = 0
    generations = 0

    for attempt in range(policy.max_restarts + 1):
        if attempt == 0 or policy.bounds is None:
            m0 = config.initial_mean()
        else:
            lower = np.asarray(policy.bounds[0], dtype=float)
            upper = np.asarray(policy.bounds[1], dtype=float)
            m0 = rng.uniform(lower, upper, size=spec.n)
        params, mode = config.build_params(lam)
        opt = CmaEs(
            params,
            m0,
            config.sigma0,
            mode=mode,
            criteria=replace(config.criteria, max_evals=budget - evals),
            rng=rng,
            record_trace=config.record_trace,
        )
        while (termination := opt.should_stop()) is None:
            opt.tell(obj_mod.evaluate_population(spec, opt.ask(), rng))

        if attempt == 0:
            trace += opt.trace
        else:
            trace += [
                replace(row, generation=row.generation + generations, evals=row.evals + evals)
                for row in opt.trace
            ]
        segments.append(
            RestartSegment(
                lam=params.lam,
                evals=opt.evals,
                generations=opt.generation,
                termination=termination,
                best_f=opt.best_f,
            )
        )
        evals += opt.evals
        generations += opt.generation
        if opt.best_f < best_f:
            best_f = opt.best_f
            best_x = opt.best_x
        if termination == "target_f" or evals >= budget:
            break
        lam = int(round(params.lam * policy.lam_multiplier))

    return RunResult(
        best_x=best_x,
        best_f=best_f,
        termination=termination,
        evals=evals,
        generations=generations,
        trace=trace,
        segments=segments,
    )
