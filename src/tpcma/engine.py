"""The generation loop: sampling, selection, step-size and covariance updates.

:class:`CmaEs` is the ask/tell optimizer; :func:`run` drives it against a
benchmark objective, as :class:`RunConfig` sets out.
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
from .params import StrategyParams, default_params, is_integer

__all__ = [
    "CONTROLLERS",
    "CmaEs",
    "TerminationCriteria",
    "RunRecord",
    "RunResult",
    "RunConfig",
    "RestartSegment",
    "RunAborted",
    "run",
]

# controller name -> StrategyParams overrides of the defaults, the step-size
# rule included.  tpa_noise biases the decrease branch by 0.2 * alpha_change;
# tpa_legacy is the original two-point scheme of evolutionary gradient search:
# wider test steps, change factor ln 1.8, no smoothing and the legacy geometry.
CONTROLLERS: dict[str, dict[str, object]] = {
    "tpa": {},
    "tpa_noise": {"beta_bias": 0.1},
    "tpa_legacy": {"mode": "tpa_legacy", "alpha_test": 0.8, "alpha_change": math.log(1.8),
                   "c_alpha": 1.0},
    "csa": {"mode": "csa"},
}


_NAN_FITNESS = "NaN fitness; map failed evaluations to +inf instead"
# calls a layer with overflow unwarned, as ask() judges what it forms; built once, entered per call
_unwarned = np.errstate(over="ignore", invalid="ignore")(lambda layer, *args: layer(*args))


class RunAborted(RuntimeError):
    """A run hit a numerically or semantically unrecoverable condition.

    ``optimizer`` is the :class:`CmaEs` that raised it, as the abort left it:
    its state attributes, trace and best point so far.  In a restart run it
    is the optimizer of the segment that aborted.
    """

    # optional: BaseException unpickles with its args alone, so a required
    # optimizer would break a RunAborted that crosses a process pool
    def __init__(self, message: str, optimizer: CmaEs | None = None):
        super().__init__(message)
        self.optimizer = optimizer


@dataclass(frozen=True)
class TerminationCriteria:
    """Stop conditions, checked between generations.

    ``max_evals`` is a budget on function evaluations and is always
    checked: 0 stops before any evaluation.  A generation in progress is
    always completed, so the final count may overshoot by at most lam + 2.
    ``target_f`` stops once the best fitness is below it; -inf turns it
    off.  ``tol_x`` stops once sigma times the square root of the largest
    diagonal entry of the current C is below it, and ``tol_fun`` once the
    generation-best fitnesses of the last 10 + ceil(30 n / lam)
    generations span less than it; 0 turns either off.
    """

    max_evals: int = 100_000
    target_f: float = -math.inf
    tol_x: float = 0.0
    tol_fun: float = 0.0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        problems = []
        if not (is_integer(self.max_evals) and self.max_evals >= 0):
            problems.append(f"max_evals must be an integer >= 0, got {self.max_evals!r}")
        if not self.target_f < math.inf:
            problems.append(f"target_f must be finite or -inf, got {self.target_f}")
        for name in ("tol_x", "tol_fun"):
            if not 0.0 <= getattr(self, name) < math.inf:
                problems.append(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if problems:
            raise ValueError("; ".join(problems))


class RunRecord(NamedTuple):
    """One trace row per completed generation.

    ``sigma``, ``alpha_s`` and ``best_f`` are the values after the
    generation's updates; ``axis_ratio`` and ``trace_C`` are the
    ``axis_ratio`` and ``trace`` of the factor the generation was sampled
    from, the initial one or the one last refreshed (see :class:`CmaEs`).
    ``alpha_s`` is NaN in cumulative mode.  In a restart run,
    ``generation``, ``evals`` and ``best_f`` count over the whole run, not
    the segment.  The field order is the trace CSV's column order.
    """

    generation: int
    evals: int
    best_f: float
    sigma: float
    alpha_s: float
    axis_ratio: float
    trace_C: float


@dataclass(frozen=True)
class RestartSegment:
    """Summary of one (re)start within a run."""

    lam: int
    evals: int
    generations: int
    termination: str
    best_f: float


@dataclass
class RunResult:
    """Outcome of a run: best solution, termination reason, full trace, and
    one :class:`RestartSegment` per (re)start."""

    best_x: np.ndarray | None
    best_f: float
    termination: str
    evals: int
    generations: int
    trace: list[RunRecord]
    segments: list[RestartSegment] = field(default_factory=list)


def _start_problems(m0: np.ndarray, sigma0: float, n: int) -> list[str]:
    """What is wrong with an initial mean and step-size in dimension n."""
    problems = []
    if m0.shape != (n,):
        problems.append(f"m0 must have shape ({n},), got {m0.shape}")
    elif not np.isfinite(m0).all():
        problems.append("m0 must be finite")
    if not 0.0 < sigma0 < math.inf:
        problems.append(f"sigma0 must be positive and finite, got {sigma0}")
    return problems


class CmaEs:
    """Ask/tell CMA-ES with the step-size rule of ``params.mode``.

    The caller owns evaluation: ``ask()`` yields candidate points as the
    rows of a (k, n) matrix, ``tell(fitnesses)`` feeds back their objective
    values (minimization; failures mapped to +inf, never NaN; -inf is an
    ordinary fitness).  Under a two-point rule ("tpa" or "tpa_legacy") a
    generation is two rounds: the lam offspring, then the two test points
    formed by the following ``ask()``.  Each counted generation appends one
    :class:`RunRecord` to ``trace``, so ``len(trace) == generation`` holds
    after any abort.

    The state is held in plain attributes: ``m``, ``sigma``, ``C`` and its
    path ``p_c``, the two-point signal ``alpha_s`` (NaN in cumulative mode)
    and the cumulative path ``p_sigma`` (None in two-point mode), for
    reading.  They are the state's only record: a ``RunAborted`` carries
    the optimizer itself.  The optimizer alone judges the values it runs
    on: ``m0``, ``sigma0``, the told fitness, sigma, C and every
    point ``ask()`` forms, before handing it out, so a mean, step-size or C
    that leaves the floating-point range ends the run in ``RunAborted``,
    and the generation it ends is not counted; the layers check nothing again.

    Offspring are sampled as y = A z from a factor of C (see
    ``sampler.decompose``) in both modes: its Cholesky factor, or the
    floored eigendecomposition, marked ``repaired``, where C is not positive
    definite to working precision.  The cumulative controller whitens the
    mean step as the weighted mean of the selected draws z, which is
    A^(-1) <y> and needs no second factorization.  C = I starts as its own
    factor, refreshed once gap = max(1, n // lam) generations are kept, about
    once per n offspring (every generation but the first for n < 2 lam), so
    its O(n^3) cost is O(n^2) per offspring, as in the lazy update of
    Hansen's tutorial (arXiv:1604.00772); it lags C by at most
    (gap - 1)(c_1 + c_mu), under 1%.  Sampling, the cumulative controller's
    whitening and the trace's ``axis_ratio``/``trace_C`` all read this
    factor, the last two as computed when it was built.  C is formed once per
    refresh too: a generation keeps only its p_c and selected steps, and the
    refresh forms C from all kept ones, judges, folds in and factors it, so
    C is not judged after the last refresh before a stop, and after a
    non-finite C every ``ask()`` raises again.  Reading ``C``
    applies the kept ones without folding, and ``tol_x`` reads only their
    diagonal.  ``C`` is read-only: modify a copy.
    """

    def __init__(
        self,
        params: StrategyParams,
        m0: np.ndarray,
        sigma0: float,
        *,
        criteria: TerminationCriteria | None = None,
        rng: np.random.Generator | None = None,
    ):
        m0 = np.array(m0, dtype=float)
        if problems := _start_problems(m0, sigma0, params.n):
            raise ValueError("; ".join(problems))

        self.params = params
        self.criteria = criteria if criteria is not None else TerminationCriteria()
        self.rng = rng if rng is not None else np.random.default_rng()

        self._test_round: tuple | None = None  # (updated mean, mean step) between the tpa rounds
        self.m = m0
        self.sigma = float(sigma0)
        self._C, self._n_kept = np.eye(params.n), 0  # no generations kept yet
        self._C.flags.writeable = False
        self.p_c = np.zeros(params.n)
        csa = params.mode == "csa"
        self.alpha_s = math.nan if csa else 0.0
        self.p_sigma = np.zeros(params.n) if csa else None
        self.generation = 0
        self.evals = 0
        self.best_x: np.ndarray | None = None
        self.best_f = math.inf
        self.trace: list[RunRecord] = []

        self._pending: np.ndarray | None = None  # the points of an untold ask()
        self._factor = sampler.CovarianceFactor(self._C, np.ones(params.n))  # as decompose(I)
        # every generation for n < 2 lam, every 19th at n=400 (lam 21)
        self._refresh_gap = max(1, params.n // params.lam)
        # the p_c and selected steps of the generations not yet folded into C
        self._kept_p_c = np.empty((self._refresh_gap, params.n))
        self._kept_Y = np.empty((self._refresh_gap, params.mu, params.n))
        self._Y: np.ndarray | None = None  # the steps of the last sampled population
        self._Z: np.ndarray | None = None  # and the standard-normal draws they came from
        self._gen_best: deque[float] = deque(maxlen=10 + math.ceil(30.0 * params.n / params.lam))

    @property
    def C(self) -> np.ndarray:
        """The covariance matrix, with the kept generations applied; read-only."""
        if (k := self._n_kept) == 0:
            return self._C
        C = cov_mod.update_covariance(self._C, self._kept_p_c[:k], self._kept_Y[:k], self.params)
        C.setflags(write=False)
        return C

    # -- termination ---------------------------------------------------------

    def should_stop(self) -> str | None:
        """Reason to stop, or None.  Only fires between generations."""
        if self._test_round is not None:
            return None
        c = self.criteria
        if self.best_f < c.target_f:
            return "target_f"
        if self.evals >= c.max_evals:
            return "max_evals"
        if c.tol_x > 0.0 and self.sigma * math.sqrt(self._largest_variance()) < c.tol_x:
            return "tol_x"
        # the window spans at least its newest two, so its span is taken only when they are close
        w, tol = self._gen_best, c.tol_fun
        if tol > 0 and len(w) == w.maxlen and abs(w[-1] - w[-2]) < tol and max(w) - min(w) < tol:
            return "tol_fun"
        return None

    def _largest_variance(self) -> float:
        """C's largest diagonal entry, from its kept generations in O(k mu n)."""
        p, k, diag = self.params, self._n_kept, np.diag(self._C)
        if k:
            decay = 1.0 - p.c_1 - p.c_mu
            added = p.c_1 * self._kept_p_c[:k] ** 2 + p.c_mu * (p.weights @ self._kept_Y[:k] ** 2)
            diag = decay**k * diag + decay ** np.arange(k - 1, -1, -1.0) @ added
        return float(np.max(diag))

    # -- ask/tell ------------------------------------------------------------

    def ask(self) -> np.ndarray:
        """Points to evaluate next, one per row: the lam offspring, or the
        two test points."""
        if self._pending is not None:
            raise RuntimeError("ask() called twice without tell()")
        if self._n_kept == self._refresh_gap:  # never in a test round: its generation isn't kept
            # self.C, with the whole buffers kept; judged unfolded: a second ask() raises too
            C = cov_mod.update_covariance(self._C, self._kept_p_c, self._kept_Y, self.params)
            if np.count_nonzero(np.isfinite(C)) < C.size:  # a count: cheaper than all()
                raise RunAborted("covariance matrix became non-finite", self)
            C.setflags(write=False)
            self._C, self._n_kept = C, 0  # fold the kept generations in
            # builds the row statistics here, so a warning leaves no generation without its row
            self._factor = sampler.decompose(self._C)
        if self._test_round is None:
            points, self._Y, self._Z = _unwarned(sampler.sample_population, self.m, self.sigma,
                                                 self._factor, self.params.lam, self.rng)
        else:
            m_new, mean_step = self._test_round
            points = _unwarned(stepsize.tpa_test_points, m_new, self.sigma, mean_step, self.params)
        if np.count_nonzero(np.isfinite(points)) < points.size:
            raise RunAborted("a point to evaluate left the floating-point range", self)
        self._pending = points
        return points

    def tell(self, fitnesses: Sequence[float]) -> None:
        """Feed back objective values for the points of the last ask().

        The values are validated before anything changes: a tell that
        raises ValueError leaves the ask pending, to be told again.  Fitness
        values are judged here (the shape) and in the round they are passed
        to (NaN, and +inf on a population's ranked order) and nowhere else.
        """
        if self._pending is None:
            raise RuntimeError("tell() called without a pending ask()")
        fitness = np.asarray(fitnesses, dtype=float)
        expected = (len(self._pending),)
        if fitness.shape != expected:
            raise ValueError(f"expected fitness shape {expected}, got {fitness.shape}")
        (self._tell_population if self._test_round is None else self._tell_test_points)(fitness)

    def _tell_population(self, fitness: np.ndarray) -> None:
        p = self.params
        order = recombine.rank(fitness)
        if math.isnan(fitness[order[-1]]):  # NaN ranks last
            raise ValueError(_NAN_FITNESS)
        if fitness[order[p.mu - 1]] == math.inf:  # +inf ranks after every finite value
            raise RunAborted(f"{np.count_nonzero(fitness == math.inf)} of {p.lam} evaluations "
                             f"infeasible; selection needs at least {p.mu} finite values", self)
        X, self._pending = self._pending, None
        self.evals += p.lam
        best = order[0]
        self._gen_best.append(f_best := float(fitness[best]))
        self._note_best(X, best, f_best)

        selected = order[: p.mu]
        # "clip" never acts on argsort's indices; the default mode would buffer out
        Y_sel = self._Y.take(selected, axis=0, out=self._kept_Y[self._n_kept], mode="clip")
        mean_step = recombine.weighted_mean_step(Y_sel, p.weights)
        m_new = recombine.update_mean(self.m, self.sigma, mean_step)

        if p.mode != "tpa_legacy":  # which updates the mean after the step-size
            self.m = m_new
        if p.mode == "csa":
            mean_z = recombine.weighted_mean_step(self._Z[selected], p.weights)
            self.p_sigma, multiplier = stepsize.csa_update(self.p_sigma, mean_z, p)
            self.sigma *= multiplier
            h_sigma = stepsize.csa_stall_indicator(self.p_sigma, self.generation + 1, p)
            self._finish_generation(mean_step, h_sigma)
        else:
            self._test_round = m_new, mean_step

    def _tell_test_points(self, fitness: np.ndarray) -> None:
        p = self.params
        f_plus, f_minus = fitness.tolist()
        if math.isnan(f_plus) or math.isnan(f_minus):
            raise ValueError(_NAN_FITNESS)
        X, self._pending = self._pending, None
        (_, mean_step), self._test_round = self._test_round, None
        self.evals += 2
        self._note_best(X, 0, f_plus)
        self._note_best(X, 1, f_minus)

        self.alpha_s, multiplier = stepsize.tpa_update(self.alpha_s, f_plus, f_minus, p)
        self.sigma *= multiplier
        if p.mode == "tpa_legacy":  # self.m is still the mean before the update
            self.m = _unwarned(recombine.update_mean, self.m, self.sigma, mean_step)
        h_sigma = cov_mod.stall_indicator(self.alpha_s, self.generation + 1, p)
        self._finish_generation(mean_step, h_sigma)

    def _note_best(self, X: np.ndarray, i: int, fitness: float) -> None:
        if fitness < self.best_f:
            self.best_f, self.best_x = fitness, X[i].copy()

    def _finish_generation(self, mean_step: np.ndarray, h_sigma: int) -> None:
        if not 0.0 < self.sigma < math.inf:  # the generation is not counted
            raise RunAborted(f"step-size became {self.sigma}", self)
        self.p_c = cov_mod.update_path(self.p_c, mean_step, h_sigma, self.params)
        self._kept_p_c[self._n_kept] = self.p_c  # beside its selected steps
        self._n_kept += 1
        self.generation += 1
        self.trace.append(RunRecord(self.generation, self.evals, self.best_f, self.sigma,
                                    self.alpha_s, self._factor.axis_ratio, self._factor.trace))


# -- configured runs ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one optimization run.

    ``lam``, ``beta_bias`` and ``c_alpha``, when set, override the defaults
    and the controller's preset in ``CONTROLLERS``.  ``max_restarts`` is
    the number of restarts, each with lam doubled, that :func:`run` may make.
    """

    objective: obj_mod.ObjectiveSpec
    controller: str = "tpa"
    seed: int = 0
    m0: float | Sequence[float] = 0.0
    sigma0: float = 1.0
    lam: int | None = None
    beta_bias: float | None = None
    c_alpha: float | None = None
    criteria: TerminationCriteria = field(default_factory=TerminationCriteria)
    max_restarts: int = 0

    def __post_init__(self):
        problems = _start_problems(self.initial_mean(), self.sigma0, self.objective.n)
        if not (is_integer(self.seed) and self.seed >= 0):
            problems.append(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (is_integer(self.max_restarts) and self.max_restarts >= 0):
            problems.append(f"max_restarts must be an integer >= 0, got {self.max_restarts!r}")
        if self.controller not in CONTROLLERS:
            problems.append(
                f"controller must be one of {tuple(CONTROLLERS)}, got {self.controller!r}"
            )
        try:  # with no preset when the controller is unknown
            self.build_params()
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ValueError("; ".join(problems))

    def initial_mean(self) -> np.ndarray:
        m0 = np.asarray(self.m0, dtype=float)
        if m0.ndim == 0:
            return np.full(self.objective.n, float(m0))
        return m0

    def build_params(self, lam: int | None = None) -> StrategyParams:
        """The controller's strategy constants, its step-size rule included;
        ``lam`` overrides the configured population size."""
        preset = CONTROLLERS.get(self.controller, {})
        settings = (("lam", self.lam if lam is None else lam), ("beta_bias", self.beta_bias),
                    ("c_alpha", self.c_alpha))
        explicit = {name: value for name, value in settings if value is not None}
        return replace(default_params(self.objective.n), **{**preset, **explicit})


def run(config: RunConfig) -> RunResult:
    """One optimization run, deterministic for a given config, seed included.

    Each non-target termination, up to ``config.max_restarts`` of them,
    restarts from a fresh state (the configured initial mean and sigma0,
    unit covariance, zeroed paths and signals) with lam doubled; the
    evaluation budget is global across restarts.  The random stream
    continues across segments.  The result's termination is that of the
    last segment.
    """
    spec = config.objective
    rng = np.random.default_rng(config.seed)
    budget = config.criteria.max_evals
    lam = config.lam

    trace: list[RunRecord] = []
    segments: list[RestartSegment] = []
    best_x: np.ndarray | None = None
    best_f = math.inf
    evals = 0
    generations = 0

    for attempt in range(config.max_restarts + 1):
        params = config.build_params(lam)
        opt = CmaEs(params, config.initial_mean(), config.sigma0, rng=rng,
                    criteria=replace(config.criteria, max_evals=budget - evals))
        while (termination := opt.should_stop()) is None:
            opt.tell(obj_mod.evaluate_population(spec, opt.ask(), rng))

        if attempt == 0:
            trace += opt.trace
        else:  # a later segment's rows carry the run's counters and best so far
            trace += [
                row._replace(generation=row.generation + generations, evals=row.evals + evals,
                             best_f=min(row.best_f, best_f))
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
        lam = 2 * params.lam

    return RunResult(
        best_x=best_x,
        best_f=best_f,
        termination=termination,
        evals=evals,
        generations=generations,
        trace=trace,
        segments=segments,
    )


# run() with max_restarts set, in the two-argument form that perfbench/workloads.py
# calls; kept only for that caller
class RestartPolicy(NamedTuple):
    max_restarts: int


def run_with_restarts(config: RunConfig, policy: RestartPolicy) -> RunResult:
    return run(replace(config, max_restarts=policy.max_restarts))
