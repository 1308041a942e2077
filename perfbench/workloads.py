"""The benchmark's three workloads: inputs made from the seed, one pass, and
the per-run outcomes that the checks and the quality metrics read.

Every workload runs the same objectives and settings for both step-size
controllers: the grid one controller after the other, the library workloads
alternating between them run by run.  Each run's time is kept, so time can
be split by controller.

* ``parity_grid``: the c2 parity experiment through ``cli.run_experiment``
  ({sphere, ellipsoid} at 1e-9 and rosenbrock at 1e-6, n in {10, 20}),
  trace CSVs written.  Per-generation Python overhead, the objectives, CSV
  writing and the process pool dominate; eigh does little.
* ``ellipsoid_n400``: library ``run()`` at n=400 on a fixed evaluation
  budget with no target.  The full eigendecomposition takes about 85% of a
  generation, so factorization changes show here and Python overhead does
  not.
* ``rastrigin_restarts``: ``run_with_restarts`` at n=10 with lam doubling
  from 10 (usually 3-5 restarts, reaching lam 80-320) until the target.
  Wide batches at small n: per-offspring object work and the restart
  loop.  Runs are many and short, so they share the cores through a pool.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tpcma.cli as cli_mod
import tpcma.engine as engine_mod
from tpcma.objectives import ObjectiveSpec, evaluate

CONTROLLERS = ("tpa", "csa")
WORKLOADS = ("parity_grid", "ellipsoid_n400", "rastrigin_restarts")

# c2's batches: (objectives, target_f).
C2_BATCHES = ((("sphere", "ellipsoid"), 1e-9), (("rosenbrock",), 1e-6))
M0 = 3.0
SIGMA0 = 2.0
TOL_FUN = 1e-12

# Work per pass.  "full" is what the benchmark measures; "tiny" is for the
# smoke test.  Seed counts are set by how steady the quality metrics must
# be across seeds: rosenbrock misses its target in about 1 of 6 runs and a
# restart run's evaluation count varies by about 45%.
SIZES = {
    "full": {
        "parity_grid": {"dims": (10, 20), "seeds": 6, "budget": 100_000},
        "ellipsoid_n400": {"n": 400, "seeds": 4, "budget": 2_000},
        "rastrigin_restarts": {
            "n": 10, "seeds": 60, "trace_seeds": 20, "budget": 400_000, "restarts": 9,
        },
    },
    "tiny": {
        "parity_grid": {"dims": (2,), "seeds": 2, "budget": 3_000},
        "ellipsoid_n400": {"n": 12, "seeds": 2, "budget": 400},
        "rastrigin_restarts": {
            "n": 2, "seeds": 3, "trace_seeds": 2, "budget": 20_000, "restarts": 4,
        },
    },
}
RASTRIGIN_TARGET = 1e-8


@dataclass(frozen=True)
class Outcome:
    """What the checks and the quality metrics need from one run."""

    controller: str
    label: str
    objective: ObjectiveSpec
    target: float  # -inf for runs without a target
    budget: int
    last_lam: int
    termination: str
    evals: int
    best_f: float
    best_x: tuple[float, ...]
    sigma: float
    seconds: float  # the run call alone, without CSV writing or checks

    @property
    def solved(self) -> bool:
        """Reached the target; a run without a target succeeds by
        completing its budget."""
        if math.isinf(self.target):
            return self.termination == "max_evals"
        return self.termination == "target_f"

    @property
    def f0(self) -> float:
        return evaluate(self.objective, np.full(self.objective.n, M0))


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[Outcome]
    problems: list[str]  # whole-pass problems (summary.csv mismatches)


def run_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Distinct run seeds derived from the benchmark seed."""
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.choice(2**31 - 1, size=count, replace=False))


# -- parity_grid ---------------------------------------------------------------


@contextlib.contextmanager
def capturing_grid_results():
    """Have each grid run leave its result and run time beside its CSV.

    ``run_experiment`` returns only summary rows, and the checks need each
    run's best_x.  ``cli`` calls ``run`` and then ``write_trace_csv`` for
    every cell, in one worker; pool workers are forked with these wrappers
    in place.
    """
    original_run, original_write = cli_mod.run, cli_mod.write_trace_csv
    last = {}

    def timed_run(config):
        t0 = time.perf_counter()
        result = original_run(config)
        last["seconds"] = time.perf_counter() - t0
        return result

    def write_and_capture(path, cell, result, *, timestamp):
        original_write(path, cell, result, timestamp=timestamp)
        record = {
            "seconds": last.pop("seconds"),
            "termination": result.termination,
            "evals": result.evals,
            "best_f": result.best_f,
            "best_x": [float(v) for v in result.best_x],
            "sigma": result.trace[-1].sigma,
            "last_lam": result.segments[-1].lam,
        }
        Path(path).with_suffix(".result.json").write_text(json.dumps(record))

    cli_mod.run, cli_mod.write_trace_csv = timed_run, write_and_capture
    try:
        yield
    finally:
        cli_mod.run, cli_mod.write_trace_csv = original_run, original_write


def _grid_outcomes(out_dir: Path, cfg, summary, controller: str):
    outcomes, problems = [], []
    for kind in cfg.objectives:
        for n in cfg.dimensions:
            spec = ObjectiveSpec(kind, n)
            for seed in cfg.seeds:
                label = f"{kind}_n{n}_{controller}_seed{seed}"
                path = out_dir / f"{label}.result.json"
                if not path.exists():
                    problems.append(f"{label}: no result (run failed or was not captured)")
                    continue
                r = json.loads(path.read_text())
                outcomes.append(
                    Outcome(
                        controller=controller,
                        label=label,
                        objective=spec,
                        target=cfg.target_f,
                        budget=cfg.budget,
                        last_lam=r["last_lam"],
                        termination=r["termination"],
                        evals=r["evals"],
                        best_f=r["best_f"],
                        best_x=tuple(r["best_x"]),
                        sigma=r["sigma"],
                        seconds=r["seconds"],
                    )
                )
    problems += _summary_problems(out_dir, cfg, summary, outcomes)
    return outcomes, problems


def _summary_problems(out_dir: Path, cfg, summary, outcomes) -> list[str]:
    """summary.csv has one row per cell and agrees with the returned rows
    and with the runs themselves."""
    problems = []
    with (out_dir / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    cells = len(cfg.objectives) * len(cfg.dimensions) * len(cfg.controllers)
    if len(rows) != cells or len(summary) != cells:
        return [f"{out_dir}: {len(rows)} summary.csv rows, {len(summary)} returned, {cells} cells"]
    for row, ret in zip(rows, summary):
        for key, value in ret.items():
            same = row[key] == value if isinstance(value, str) else float(row[key]) == value
            if not same:
                problems.append(f"{out_dir}: summary.csv {key}={row[key]} but returned {value}")
        group = [
            o
            for o in outcomes
            if o.objective.kind == ret["objective"] and o.objective.n == ret["n"]
        ]
        evals = [o.evals if o.solved else cfg.budget for o in group]
        if ret["solved"] != sum(o.solved for o in group) or (
            evals and float(np.median(evals)) != ret["median_evals"]
        ):
            problems.append(
                f"{out_dir}: summary row {ret['objective']}/n{ret['n']} disagrees with its runs"
            )
    return problems


def grid_pass(size: dict, seeds, work_dir: Path, workers: int, tracer=None) -> PassResult:
    shutil.rmtree(work_dir, ignore_errors=True)
    timed = []
    with capturing_grid_results():
        t_pass = time.perf_counter()
        for controller in CONTROLLERS:
            if tracer is not None:
                tracer.set_tag(controller)
            for objectives, target in C2_BATCHES:
                cfg = cli_mod.ExperimentConfig(
                    objectives=objectives,
                    dimensions=size["dims"],
                    controllers=(controller,),
                    seeds=seeds,
                    budget=size["budget"],
                    target_f=target,
                    tol_fun=TOL_FUN,
                    m0=M0,
                    sigma0=SIGMA0,
                    out=str(work_dir / controller / objectives[0]),
                    workers=workers,
                    timestamp=False,
                )
                summary = cli_mod.run_experiment(cfg)
                timed.append((cfg, summary, controller))
        wall_s = time.perf_counter() - t_pass
    outcomes, problems = [], []
    for cfg, summary, controller in timed:
        o, p = _grid_outcomes(Path(cfg.out), cfg, summary, controller)
        outcomes += o
        problems += p
    return PassResult(wall_s, outcomes, problems)


# -- library workloads -----------------------------------------------------------


def _library_jobs(workload: str, size: dict, seeds):
    """One job per (seed, controller), the controllers alternating, so that
    both meet the same spells of a noisy host."""
    if workload == "ellipsoid_n400":
        spec = ObjectiveSpec("ellipsoid", size["n"])
        criteria = engine_mod.TerminationCriteria(max_evals=size["budget"])
        target = -math.inf
    else:
        spec = ObjectiveSpec("rastrigin", size["n"])
        criteria = engine_mod.TerminationCriteria(
            max_evals=size["budget"], target_f=RASTRIGIN_TARGET, tol_fun=TOL_FUN
        )
        target = RASTRIGIN_TARGET
    return [
        (
            workload,
            size,
            f"{spec.kind}_n{spec.n}_{controller}_seed{seed}",
            target,
            engine_mod.RunConfig(
                objective=spec,
                controller=controller,
                seed=seed,
                m0=M0,
                sigma0=SIGMA0,
                criteria=criteria,
            ),
        )
        for seed in seeds
        for controller in CONTROLLERS
    ]


def library_run(job, tracer=None, results=None) -> Outcome:
    """One library run; module-level so that pool workers can run it.
    ``results`` collects (job, RunResult) pairs of an in-process pass."""
    workload, size, label, target, config = job
    if workload == "ellipsoid_n400":
        fn, args = engine_mod.run, (config,)
    else:
        policy = engine_mod.RestartPolicy(max_restarts=size["restarts"])
        fn, args = engine_mod.run_with_restarts, (config, policy)
    if tracer is not None:
        tracer.set_tag(config.controller)
    t0 = time.perf_counter()
    result = fn(*args) if tracer is None else tracer.call("engine.run", fn, *args)
    seconds = time.perf_counter() - t0
    if results is not None:
        results.append((job, result))
    return Outcome(
        controller=config.controller,
        label=label,
        objective=config.objective,
        target=target,
        budget=config.criteria.max_evals,
        last_lam=result.segments[-1].lam,
        termination=result.termination,
        evals=result.evals,
        best_f=result.best_f,
        best_x=tuple(float(v) for v in result.best_x),
        sigma=result.trace[-1].sigma,
        seconds=seconds,
    )


def start_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers are all up and idle."""
    pool = ProcessPoolExecutor(max_workers=workers)
    list(pool.map(abs, range(workers)))
    return pool


def library_pass(
    workload: str, size: dict, seeds, workers: int, work_dir: Path, tracer=None
) -> PassResult:
    """Runs the jobs, on a pool when ``workers`` > 1."""
    jobs = _library_jobs(workload, size, seeds)
    results = [] if tracer is not None else None
    pool = start_pool(workers) if workers > 1 else None
    try:
        t_pass = time.perf_counter()
        if pool is not None:
            outcomes = list(pool.map(library_run, jobs))
        else:
            outcomes = [library_run(job, tracer, results) for job in jobs]
        wall_s = time.perf_counter() - t_pass
    finally:
        if pool is not None:
            pool.shutdown()
    if tracer is not None:
        _write_trace_csvs(results, work_dir)
    return PassResult(wall_s, outcomes, [])


def _write_trace_csvs(results, work_dir: Path) -> None:
    """The library workloads write no CSVs.  In a traced pass their traces
    go through ``cli.write_trace_csv`` once, after the timed part, so that
    the CSV layer is measured on every workload's rows."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    for (_, size, _, _, config), result in results:
        spec = config.objective
        experiment = cli_mod.ExperimentConfig(
            objectives=(spec.kind,),
            dimensions=(spec.n,),
            controllers=(config.controller,),
            seeds=(config.seed,),
            budget=config.criteria.max_evals,
            target_f=config.criteria.target_f,
            tol_fun=config.criteria.tol_fun,
            m0=M0,
            sigma0=SIGMA0,
            restarts=size.get("restarts", 0),
            out=str(work_dir),
            timestamp=False,
        )
        # write_trace_csv takes the cli's private cell type
        cell = cli_mod._Cell(spec.kind, spec.n, config.controller, config.seed, experiment)
        cli_mod.write_trace_csv(work_dir / f"{cell.name}.csv", cell, result, timestamp=False)


def workers_for(workload: str, nproc: int) -> int:
    """The grid and the restart runs use every core; ellipsoid_n400 runs
    in one process, because its runs are few and long."""
    return 1 if workload == "ellipsoid_n400" else nproc


def run_pass(
    workload: str, size_name: str, seed: int, work_dir: Path, workers: int, *, traced_pass=False,
    tracer=None,
):
    """One pass over the seed's inputs.  Passes of a traced invocation run
    single-worker, so they may cover only the first ``trace_seeds`` runs."""
    size = SIZES[size_name][workload]
    seeds = run_seeds(seed, size["seeds"])
    if traced_pass:
        seeds = seeds[: size.get("trace_seeds", len(seeds))]
    if workload == "parity_grid":
        return grid_pass(size, seeds, work_dir, workers, tracer)
    return library_pass(workload, size, seeds, workers, work_dir, tracer)
