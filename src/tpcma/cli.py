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
import functools
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from .engine import CONTROLLERS, RunConfig, RunRecord, RunResult, TerminationCriteria, run
from .objectives import OBJECTIVE_KINDS, ObjectiveSpec
from .params import StrategyParams, field_problems, integer, raise_problems, rule, setting

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


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part != "")

def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())

def _off(text: str) -> bool:
    """A switch from its config-file text: true (or 1) turns its setting off."""
    return ("false", "0", "true", "1").index(text.lower()) < 2  # ValueError on any other text


def _option(default: Any, convert: Callable[[str], Any], help_text: str, target: str = "",
            *, flags: tuple[str, ...] = (), check: Callable | None = None,
            label: str | None = None) -> Any:
    """A field set by ``--<flag>`` and the config-file key ``<flag>``, for each of ``flags`` (its
    name, dashed, if none), from text by ``convert`` (``_off``: a switch), judged by ``check``,
    if given, as ``label``, and feeding the RunConfig setting at dotted path ``target``."""
    meta = dict(convert=convert, help=help_text, target=target, flags=flags)
    judged = functools.partial(setting, check, label) if check else field
    return judged(default=default, metadata=meta)


# the rule of a grid, whose entries feed one cell each
_sequence = rule("a sequence", lambda grid: isinstance(grid, (tuple, list, range))
                 or isinstance(grid, np.ndarray) and grid.ndim == 1)


def _repeated(grid: tuple) -> bool:
    """Whether two entries compare equal; one whose == has no truth value (an array's) equals
    itself alone."""
    def equal(a: Any, b: Any) -> bool:
        try:
            return a is b or bool(a == b)
        except ValueError:
            return False
    try:
        return any(grid.count(entry) > 1 for entry in grid)  # in C, unless an array's == raises
    except ValueError:
        return any(equal(a, b) for i, a in enumerate(grid) for b in grid[i + 1:])


@dataclass(frozen=True)
class ExperimentConfig:
    """A grid of runs plus shared run settings and output options.

    Each field declares its flag, help text and target, the RunConfig setting it feeds.
    Construction raises ConfigError whose ``problems`` lists every problem,
    each once.  The grid and worker rules are the CLI's own: each grid is a
    sequence (a tuple, list, range or 1-D array, kept as a tuple), non-empty
    and without entries that compare equal, and ``workers`` is an integer
    >= 1.  Every other setting and each grid entry is judged once, by the
    library object its target belongs to, whose error lists all its problems
    as ``problems``, so a problem names the target (``max_evals`` for
    ``budget``); only a sequence ``m0`` is judged against every dimension.
    """

    objectives: tuple[str, ...] = _option(("sphere",), _str_list, "comma list of objectives; "
                                          f"choose from {', '.join(OBJECTIVE_KINDS)}",
                                          "objective.kind", flags=("objective",),
                                          check=_sequence, label="objective grid")
    dimensions: tuple[int, ...] = _option((10,), _int_list, "comma list of dimensions",
                                          "objective.n", flags=("n",), check=_sequence,
                                          label="dimension grid")
    controllers: tuple[str, ...] = _option(("tpa", "csa"), _str_list, "comma list of "
                                           f"controllers; choose from {', '.join(CONTROLLERS)}",
                                           "controller", flags=("controller",), check=_sequence,
                                           label="controller grid")
    seeds: tuple[int, ...] = _option(tuple(range(11)), _int_list, "comma list of distinct RNG "
                                     "seeds", "seed", flags=("seeds", "seed"), check=_sequence,
                                     label="seed list")
    lam: int | None = _option(None, int, "population size override (default 4 + floor(3 ln n))",
                              "lam", flags=("lambda",))
    beta: float | None = _option(None, float, "step-size increase bias (two-point controllers "
                                 "only)", "beta_bias")
    c_alpha: float | None = _option(None, float, "step-size signal smoothing rate in (0, 1]",
                                    "c_alpha")
    budget: int = _option(100_000, int, "max function evaluations per run", "criteria.max_evals")
    target_f: float = _option(1e-9, float, "stop when a fitness below this is found",
                              "criteria.target_f")
    tol_fun: float = _option(1e-12, float, "stop on a flat best-fitness window (0 disables)",
                             "criteria.tol_fun")
    tol_x: float = _option(0.0, float, "stop when sigma * sqrt(largest diagonal of C) < this "
                           "(0 disables)", "criteria.tol_x")
    sigma0: float = _option(2.0, float, "initial step-size", "sigma0")
    m0: float = _option(3.0, float, "initial mean, broadcast to all coordinates", "m0")
    noise_level: float = _option(1.0, float, "multiplicative noise strength of noisy_sphere",
                                 "objective.noise_level")
    condition: float = _option(1e6, float, "ellipsoid condition number", "objective.condition")
    restarts: int = _option(0, int, "max restarts with doubled population size", "max_restarts")
    out: str = _option("results", str, "output directory for per-run CSVs and summary.csv")
    workers: int = _option(1, int, "parallel worker processes", check=integer(1))
    timestamp: bool = _option(True, _off, "omit the creation-time header line from CSVs",
                              flags=("no-timestamp",))

    def __post_init__(self):
        declared = field_problems(ExperimentConfig, self)  # each grid that is no sequence; workers
        grids = {}  # by label, each grid as a tuple, or None if it is no sequence
        for name, _, meta in _options():
            if meta.get("rule") is _sequence:
                grid = getattr(self, name)
                grids[meta["label"]] = grid = tuple(grid) if _sequence(grid) is None else None
                object.__setattr__(self, name, grid or ())  # no sequence: judged as empty
        problems = [f"{label} is empty" for label, grid in grids.items() if grid == ()]
        problems += [f"{label} entries must be distinct, got {grid}"
                     for label, grid in grids.items() if grid and _repeated(grid)]
        problems += declared

        def check(build):
            try:
                return build()
            except ValueError as exc:
                problems.extend([problem for problem in exc.problems if problem not in problems])

        # one object per entry, the other axes at the first valid n (or 1), "tpa" and seed 0
        criteria = check(lambda: self._criteria) or TerminationCriteria()
        first = next((n for n in self.dimensions
                      if not field_problems(StrategyParams, SimpleNamespace(n=n))), 1)
        for kind in self.objectives or ("sphere",):
            check(lambda: _objective_for(self, kind, first))
        fed = dict(self._fed[""], controller="tpa", seed=0, criteria=criteria)
        for n in self.dimensions:
            check(lambda: RunConfig(**dict(fed, objective=ObjectiveSpec("sphere", n))))
        fed["objective"] = ObjectiveSpec("sphere", first)
        for controller in self.controllers or ("tpa",):
            check(lambda: RunConfig(**dict(fed, controller=controller)))
        for seed in self.seeds:
            check(lambda: RunConfig(**dict(fed, seed=seed)))
        raise_problems(problems, ConfigError)

    @functools.cached_property
    def _fed(self) -> dict[str, dict[str, Any]]:
        """The settings the fields feed, by part of a cell's RunConfig ("": its own settings);
        a grid's target holds the whole grid, and each cell gives its own entry."""
        fed: dict[str, dict[str, Any]] = {}
        for name, _, meta in _options():
            part, _, target = meta["target"].rpartition(".")
            if target:
                fed.setdefault(part, {})[target] = getattr(self, name)
        return fed

    @functools.cached_property
    def _criteria(self) -> TerminationCriteria:
        return TerminationCriteria(**self._fed["criteria"])


@functools.cache  # read once per class, as params._rules does
def _options() -> tuple[tuple[str, tuple[str, ...], Any], ...]:
    """(field name, its flags, its metadata) for each ExperimentConfig field, in flag order."""
    return tuple((f.name, f.metadata["flags"] or (f.name.replace("_", "-"),), f.metadata)
                 for f in fields(ExperimentConfig))


def _objective_for(cfg: ExperimentConfig, kind: str, n: int) -> ObjectiveSpec:
    # the other kinds ignore the noise level, and judge none
    noiseless = {} if isinstance(kind, str) and kind == "noisy_sphere" else {"noise_level": 0.0}
    return ObjectiveSpec(**dict(cfg._fed["objective"], kind=kind, n=n, **noiseless))


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


def _run_config_for(cell: _Cell) -> RunConfig:
    cfg = cell.config
    return RunConfig(**dict(cfg._fed[""], objective=_objective_for(cfg, cell.objective, cell.n),
                            controller=cell.controller, seed=cell.seed, criteria=cfg._criteria))


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
    ``repr``.  Header comment lines carry the run configuration (the cell,
    ``sigma0``, ``m0``, ``budget``, ``target_f`` and ``restarts``, in that
    order; not the other settings), the strategy constants of
    ``_HEADER_PARAMS`` and the termination; in a restart run the
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


def _build_parser() -> argparse.ArgumentParser:
    # unset flags leave no attribute, so they never override the config file
    parser = argparse.ArgumentParser(
        prog="tpcma",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key=value config file; explicit flags override it")
    for name, flags, meta in _options():
        how = {"action": "store_false"} if meta["convert"] is _off else {"type": meta["convert"]}
        parser.add_argument(*[f"--{flag}" for flag in flags], dest=name, help=meta["help"], **how)
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
    known = {flag: (name, meta["convert"]) for name, flags, meta in _options() for flag in flags}
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # "runs#1" is a value
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        flag, value = key.strip().replace("_", "-"), value.strip()
        try:
            name, convert = known[flag]
            values[name] = convert(value)
        except KeyError:
            problems.append(f"{path}:{lineno}: unknown key {flag!r}")
        except ValueError:
            problems.append(f"{path}:{lineno}: {flag} must be true/false" if convert is _off
                            else f"{path}:{lineno}: bad value {value!r} for {flag!r}")
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
