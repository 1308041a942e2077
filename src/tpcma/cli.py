"""Benchmark experiment runner.

Runs a grid of (objective x dimension x controller x seed) cells, writes
one trace CSV per run plus a summary CSV with median and interquartile
evaluation counts to target, and prints the summary table.  A run that
misses the target counts at the budget; a run that fails, its trace CSV
write included, is reported, tallied in the failed column and never counted
as solved, and the rest of the grid runs on.

Unless set, runs start at mean (3, ..., 3) with step-size 2, a budget of
100000 evaluations, target-f 1e-9 and tol-fun 1e-12.  --config reads the
flags from key=value lines, such as target-f=1e-9; a # at the start of a
line or after whitespace begins a comment, and explicit flags override the
file.

Every setting is checked before any run starts, and each problem is
printed; the exit status is then 2 and no output directory is created.
--beta and --c-alpha warn when the grid has the csa controller, which
ignores them.  A finite target-f warns on a stochastic objective, where one
noise draw below the target stops a run as solved; --target-f=-inf (with
=, as the value starts with a dash) turns the target off.

Example:
    tpcma --objective sphere,rosenbrock --n 10,20 --controller tpa,csa \\
          --seeds 0,1,2,3,4 --budget 100000 --target-f 1e-9 --out results/
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .engine import CONTROLLERS, RunConfig, RunRecord, RunResult, TerminationCriteria, run
from .objectives import OBJECTIVE_KINDS, ObjectiveSpec
from .params import StrategyParams, field_problems, integer, raise_problems, setting

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run_experiment", "main"]

TRACE_COLUMNS = RunRecord._fields

SUMMARY_COLUMNS = (
    "objective",
    "n",
    "controller",
    "runs",
    "solved",
    "failed",
    "median_evals",
    "q25_evals",
    "q75_evals",
)

# the StrategyParams fields a trace CSV's header records
_HEADER_PARAMS = ("lam", "mu", "mu_w", "c_c", "c_1", "c_mu", "alpha_test", "alpha_change",
                  "beta_bias", "c_alpha", "c_sigma", "d_sigma")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message lists every problem."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A grid of runs plus shared run settings and output options.

    Construction raises ConfigError whose ``problems`` lists every problem,
    each once.  The grid and worker rules are the CLI's own: each grid is
    non-empty and without entries that compare equal, and ``workers`` is an
    integer >= 1.  Every other setting and each grid entry is judged once,
    by the library object a cell builds from it (``TerminationCriteria``,
    ``ObjectiveSpec``, ``RunConfig``), whose error lists all its problems as
    ``problems``; only a sequence ``m0`` is judged against every dimension.
    So a problem names the library field: ``budget`` is reported as
    ``max_evals``, ``restarts`` as ``max_restarts`` and ``beta`` as ``beta_bias``.
    """

    objectives: tuple[str, ...] = ("sphere",)
    dimensions: tuple[int, ...] = (10,)
    controllers: tuple[str, ...] = ("tpa", "csa")
    seeds: tuple[int, ...] = tuple(range(11))
    budget: int = 100_000
    target_f: float = 1e-9
    tol_fun: float = 1e-12
    tol_x: float = 0.0
    lam: int | None = None
    beta: float | None = None
    c_alpha: float | None = None
    sigma0: float = 2.0
    m0: float = 3.0
    noise_level: float = 1.0
    condition: float = 1e6
    restarts: int = 0
    out: str = "results"
    workers: int = setting(integer(1), default=1)
    timestamp: bool = True

    def __post_init__(self):
        lists = {"objective grid": self.objectives, "dimension grid": self.dimensions,
                 "controller grid": self.controllers, "seed list": self.seeds}
        problems = [f"{name} is empty" for name, grid in lists.items() if not grid]
        problems += [f"{name} entries must be distinct, got {grid}"
                     for name, grid in lists.items() if any(grid.count(v) > 1 for v in grid)]
        problems += field_problems(ExperimentConfig, self)

        def check(build):
            try:
                return build()
            except ValueError as exc:
                problems.extend([problem for problem in exc.problems if problem not in problems])

        # one object per entry, the other axes at the first valid n (or 1), "tpa" and seed 0
        criteria = check(lambda: _criteria_for(self)) or TerminationCriteria()
        first = next((n for n in self.dimensions
                      if not field_problems(StrategyParams, SimpleNamespace(n=n))), 1)
        for kind in self.objectives or ("sphere",):
            check(lambda: _objective_for(self, kind, first))
        runs = ([(n, "tpa", 0) for n in self.dimensions]
                + [(first, controller, 0) for controller in self.controllers or ("tpa",)]
                + [(first, "tpa", seed) for seed in self.seeds])
        for n, controller, seed in runs:
            check(lambda: _run_config(self, ObjectiveSpec("sphere", n), controller,
                                      criteria, seed))
        raise_problems(problems, ConfigError)


@dataclass(frozen=True)
class _Cell:
    objective: str
    n: int
    controller: str
    seed: int
    config: ExperimentConfig

    @property
    def name(self) -> str:
        return f"{self.objective}_n{self.n}_{self.controller}_seed{self.seed}"


@dataclass(frozen=True)
class _CellOutcome:
    cell: _Cell
    solved: bool
    evals_to_target: int
    error: str | None = None


def _criteria_for(cfg: ExperimentConfig) -> TerminationCriteria:
    return TerminationCriteria(
        max_evals=cfg.budget,
        target_f=cfg.target_f,
        tol_fun=cfg.tol_fun,
        tol_x=cfg.tol_x,
    )


def _objective_for(cfg: ExperimentConfig, kind: str, n: int) -> ObjectiveSpec:
    noise_level = cfg.noise_level if isinstance(kind, str) and kind == "noisy_sphere" else 0.0
    return ObjectiveSpec(kind=kind, n=n, noise_level=noise_level, condition=cfg.condition)


def _run_config(cfg: ExperimentConfig, objective: ObjectiveSpec, controller: str,
                criteria: TerminationCriteria, seed: int) -> RunConfig:
    return RunConfig(objective=objective, controller=controller, seed=seed, m0=cfg.m0,
                     sigma0=cfg.sigma0, lam=cfg.lam, beta_bias=cfg.beta, c_alpha=cfg.c_alpha,
                     criteria=criteria, max_restarts=cfg.restarts)


def _run_config_for(cell: _Cell) -> RunConfig:
    cfg = cell.config
    return _run_config(cfg, _objective_for(cfg, cell.objective, cell.n), cell.controller,
                       _criteria_for(cfg), cell.seed)


@contextlib.contextmanager
def _atomic_write(path: Path):
    """A text file to write that appears at ``path`` only once the block
    completes; if the block raises, neither it nor a partial file remains."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_trace_csv(path: Path, cell: _Cell, result: RunResult, *, timestamp: bool) -> None:
    """One row per generation, fixed column order, deterministic bytes.

    The columns are the :class:`RunRecord` fields, each written as its
    ``repr``.  Header comment lines carry the run configuration (not
    ``tol_fun``, ``tol_x``, ``noise_level`` or ``condition``), the strategy
    constants of ``_HEADER_PARAMS`` and the termination; in a restart run the
    constants are the first segment's, and the termination line gives the
    last segment's reason with the run's evaluations and best f.  The
    creation timestamp line is suppressed with timestamp=False so that
    reruns are byte-identical.  The file is written atomically: a failed
    write leaves no partial file.
    """
    params = _run_config_for(cell).build_params()
    with _atomic_write(path) as fh:
        fh.write(f"# run={cell.name}\n")
        fh.write(
            f"# objective={cell.objective} n={cell.n} controller={cell.controller} "
            f"seed={cell.seed} sigma0={cell.config.sigma0!r} "
            f"m0={cell.config.m0!r} budget={cell.config.budget} "
            f"target_f={cell.config.target_f!r} restarts={cell.config.restarts}\n"
        )
        header = " ".join(f"{name}={getattr(params, name)!r}" for name in _HEADER_PARAMS)
        fh.write(f"# {header}\n")
        fh.write(f"# termination={result.termination} evals={result.evals} "
                 f"best_f={result.best_f!r}\n")
        if timestamp:
            fh.write(f"# created={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        # rows hold Python ints and floats, whose reprs round-trip, "nan" and "inf" included
        for row in result.trace:
            fh.write(",".join(map(repr, row)) + "\n")


def _execute_cell(cell: _Cell) -> _CellOutcome:
    cfg = cell.config
    try:
        result = run(_run_config_for(cell))
        write_trace_csv(Path(cfg.out) / f"{cell.name}.csv", cell, result, timestamp=cfg.timestamp)
    except Exception as exc:  # failures are per-cell, not fatal to the batch
        return _CellOutcome(cell, False, cfg.budget, f"{type(exc).__name__}: {exc}")
    solved = result.termination == "target_f"
    return _CellOutcome(cell, solved, result.evals if solved else cfg.budget)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run the full grid and write per-run CSVs plus summary.csv.

    Returns the summary rows (one per objective x n x controller cell
    group).  Failed runs count at budget in the evaluation statistics and
    are tallied in the ``failed`` column.
    """
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output path {config.out!r} is not writable: {exc}") from exc

    cells = [
        _Cell(objective=kind, n=int(n), controller=controller, seed=seed, config=config)
        for kind in config.objectives
        for n in config.dimensions
        for controller in config.controllers
        for seed in config.seeds
    ]

    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_execute_cell, cells))
    else:
        outcomes = [_execute_cell(cell) for cell in cells]

    for outcome in outcomes:
        if outcome.error is not None:
            print(f"run {outcome.cell.name} failed: {outcome.error}", file=sys.stderr)

    # the cells of one objective x n x controller group are consecutive, one per seed
    summary = []
    runs = len(config.seeds)
    for start in range(0, len(outcomes), runs):
        group = outcomes[start : start + runs]
        cell = group[0].cell
        evals = np.array([o.evals_to_target for o in group], dtype=float)
        q25, q50, q75 = np.percentile(evals, [25.0, 50.0, 75.0])
        summary.append(
            {
                "objective": cell.objective,
                "n": cell.n,
                "controller": cell.controller,
                "runs": runs,
                "solved": sum(o.solved for o in group),
                "failed": sum(o.error is not None for o in group),
                "median_evals": float(q50),
                "q25_evals": float(q25),
                "q75_evals": float(q75),
            }
        )

    with _atomic_write(out_dir / "summary.csv") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(summary)
    return summary


# -- argument / config-file parsing -------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")

def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


_OPTIONS: dict[str, tuple] = {
    # flag -> (ExperimentConfig field, converter, help)
    "objective": ("objectives", _str_list,
                  f"comma list of objectives; choose from {', '.join(OBJECTIVE_KINDS)}"),
    "n": ("dimensions", _int_list, "comma list of dimensions"),
    "controller": ("controllers", _str_list,
                   f"comma list of controllers; choose from {', '.join(CONTROLLERS)}"),
    "seeds": ("seeds", _int_list, "comma list of distinct RNG seeds"),
    "lambda": ("lam", int, "population size override (default 4 + floor(3 ln n))"),
    "beta": ("beta", float, "step-size increase bias (two-point controllers only)"),
    "c-alpha": ("c_alpha", float, "step-size signal smoothing rate in (0, 1]"),
    "budget": ("budget", int, "max function evaluations per run"),
    "target-f": ("target_f", float, "stop when a fitness below this is found"),
    "tol-fun": ("tol_fun", float, "stop on a flat best-fitness window (0 disables)"),
    "tol-x": ("tol_x", float, "stop when sigma * sqrt(largest diagonal of C) < this (0 disables)"),
    "sigma0": ("sigma0", float, "initial step-size"),
    "m0": ("m0", float, "initial mean, broadcast to all coordinates"),
    "noise-level": ("noise_level", float, "multiplicative noise strength of noisy_sphere"),
    "condition": ("condition", float, "ellipsoid condition number"),
    "restarts": ("restarts", int, "max restarts with doubled population size"),
    "out": ("out", str, "output directory for per-run CSVs and summary.csv"),
    "workers": ("workers", int, "parallel worker processes"),
}


def _build_parser() -> argparse.ArgumentParser:
    # unset flags leave no attribute, so they never override the config file
    parser = argparse.ArgumentParser(
        prog="tpcma",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key=value config file; explicit flags override it")
    for option, (field, converter, help_text) in _OPTIONS.items():
        names = [f"--{option}"]
        if option == "seeds":
            names.append("--seed")  # convenient singular alias
        parser.add_argument(*names, dest=field, type=converter, help=help_text)
    parser.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                        help="omit the creation-time header line from CSVs")
    return parser


def _parse_config_file(path: str) -> dict:
    """Flat key=value file; keys match the CLI flags (dashes or underscores),
    and a ``#`` at the start of a line or after whitespace begins a comment."""
    values: dict[str, object] = {}
    problems: list[str] = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    known = {opt.replace("-", "_"): opt for opt in _OPTIONS}
    known["seed"] = "seeds"
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # "runs#1" is a value
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "no_timestamp":
            if value.lower() not in ("true", "false", "0", "1"):
                problems.append(f"{path}:{lineno}: no-timestamp must be true/false")
            else:
                values["timestamp"] = value.lower() in ("false", "0")
            continue
        if key not in known:
            problems.append(f"{path}:{lineno}: unknown key {key.replace('_', '-')!r}")
            continue
        field, converter, _ = _OPTIONS[known[key]]
        try:
            values[field] = converter(value)
        except ValueError:
            problems.append(f"{path}:{lineno}: bad value {value!r} for {key.replace('_', '-')!r}")
    raise_problems(problems, ConfigError)
    return values


def parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Build the experiment configuration from flags and an optional file.

    Precedence: explicit flags > config file > built-in defaults.  All
    validation problems are reported at once.
    """
    flags = vars(_build_parser().parse_args(argv))
    config_path = flags.pop("config", None)
    values = _parse_config_file(config_path) if config_path else {}
    values.update(flags)

    config = ExperimentConfig(**values)
    ignored = [flag for flag, value in (("--beta", config.beta), ("--c-alpha", config.c_alpha))
               if value is not None]
    if ignored and any(CONTROLLERS[c].get("mode") == "csa" for c in config.controllers):
        print(f"warning: no effect on the csa controller: {', '.join(ignored)}", file=sys.stderr)
    noisy = [kind for kind in config.objectives if ObjectiveSpec(kind, 1).stochastic]
    if noisy and math.isfinite(config.target_f):
        print(
            f"warning: a finite --target-f ({config.target_f!r}) on stochastic objective "
            f"{', '.join(noisy)} stops a run as solved on its first noise draw below the "
            "target; use --target-f=-inf to run the whole budget",
            file=sys.stderr,
        )
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
        summary = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    widths = {name: max(len(name), 12) for name in SUMMARY_COLUMNS}
    print("  ".join(name.ljust(widths[name]) for name in SUMMARY_COLUMNS))
    for row in summary:
        print("  ".join(str(row[name]).ljust(widths[name]) for name in SUMMARY_COLUMNS))
    print(f"wrote {Path(config.out) / 'summary.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
