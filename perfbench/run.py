"""tpcma benchmark: one workload, its end-to-end or per-layer metrics, checked.

Run from the repository root (the workloads are described in workloads.py):

    python3 perfbench/run.py --workload parity_grid --seed 1 --seconds 36 --trace 0

``--trace 0`` repeats untraced passes over the seed's inputs until the next
pass would end after ``--seconds`` and reports the end-to-end metrics:

* ``setup_s``: median of five set-ups (fresh-interpreter import,
  ``default_params``, pool start, a warm-up run per controller).
* ``wall_s``: median wall time of a pass.
* ``evals_per_s.<ctl>``: evaluations per second of run-call time in one
  process (CSV writing and pool imbalance excluded), median over passes.
* ``ert_evals``, ``solved_share``, ``log10_f_gain``: quality, see checks.py.
* ``peak_rss_mb``: largest resident set of this process or a child.

``--trace 1`` runs one untraced and one traced pass with a single worker,
wraps the package's layers from outside (tracing.py) and reports the
per-layer metrics, plus ``trace.overhead_s`` (traced minus untraced wall)
and, for the grid, ``cli.parallel_efficiency`` (single-worker wall over
workers times all-worker wall).

Every run's output is checked (checks.py); the last stdout line is the JSON
result and the exit code is non-zero if any check failed.  A record with
machine facts, metrics, sample counts, digests and problems is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS setting for every workload: single-threaded, so that the grid's
# worker processes do not oversubscribe the cores.  Must precede numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def machine_facts(workers: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "mp_start_method": multiprocessing.get_start_method(),
        "workers": workers,
    }


def setup_once(workload: str, root: Path, workers: int) -> float:
    """Import in a fresh interpreter, derive the parameters, start the pool
    the workload uses, and make one warm-up run in this process."""
    import tpcma
    import workloads

    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import tpcma"],
        check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    for n in (10, 20, 400):
        tpcma.default_params(n)
    elapsed = time.perf_counter() - t0
    if workers > 1:
        t0 = time.perf_counter()
        pool = workloads.start_pool(workers)
        elapsed += time.perf_counter() - t0
        pool.shutdown()
    kind, n, evals = {
        "parity_grid": ("sphere", 10, 2000),
        "ellipsoid_n400": ("ellipsoid", 400, 100),
        "rastrigin_restarts": ("rastrigin", 10, 2000),
    }[workload]
    t0 = time.perf_counter()
    for controller in ("tpa", "csa"):
        tpcma.run(
            tpcma.RunConfig(
                objective=tpcma.ObjectiveSpec(kind, n),
                controller=controller,
                m0=3.0,
                sigma0=2.0,
                criteria=tpcma.TerminationCriteria(max_evals=evals),
            )
        )
    return elapsed + time.perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Runs attempted and failed, and every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, p, reference_digests=None) -> dict:
        import checks

        failed, problems = checks.failed_runs(p.outcomes)
        self.attempted += len(p.outcomes) + len(p.problems)
        self.failed += failed + len(p.problems)
        self.problems += problems + p.problems
        digests = checks.digests(p.outcomes)
        if reference_digests is not None and digests != reference_digests:
            self.failed += 1
            self.problems.append(f"digests {digests} differ from {reference_digests}")
        return digests


def _measure_untraced(args, size, work_dir, workers, tally, metrics) -> dict:
    """Untraced passes until the next one would end after ``--seconds``."""
    import checks
    import workloads

    passes, reference = [], None
    t_start = time.perf_counter()
    while True:
        p = workloads.run_pass(args.workload, size, args.seed, work_dir, workers)
        passes.append(p)
        digests = tally.add_pass(p, reference)
        reference = reference or digests
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(q.wall_s for q in passes) > args.seconds:
            break
    k = len(passes)
    metrics["wall_s"] = (statistics.median(q.wall_s for q in passes), "s", k)
    for ctl in checks.CONTROLLERS:
        rates = []
        for q in passes:
            mine = [o for o in q.outcomes if o.controller == ctl]
            rates.append(sum(o.evals for o in mine) / sum(o.seconds for o in mine))
        metrics[f"evals_per_s.{ctl}"] = (statistics.median(rates), "1/s", k)
    runs_per_controller = len(passes[0].outcomes) // len(checks.CONTROLLERS)
    for name, (value, unit) in checks.quality_metrics(passes[0].outcomes).items():
        metrics[name] = (value, unit, runs_per_controller)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    return reference


def _measure_traced(args, size, work_dir, workers, tally, metrics, out: Path) -> dict:
    """One untraced and one traced pass, both with a single worker so the
    wrappers see every call; the grid also gets a pass on all workers."""
    import tracing
    import workloads

    plain = workloads.run_pass(args.workload, size, args.seed, work_dir, 1, traced_pass=True)
    digests = tally.add_pass(plain)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workloads.run_pass(
            args.workload, size, args.seed, work_dir, 1, traced_pass=True, tracer=tracer
        )
    tally.add_pass(traced, digests)
    efficiency = 0.0  # the cli pool is used by parity_grid only
    if args.workload == "parity_grid":
        pooled = workloads.run_pass(
            args.workload, size, args.seed, work_dir, workers, traced_pass=True
        )
        tally.add_pass(pooled, digests)
        efficiency = plain.wall_s / (workers * pooled.wall_s)
    metrics.update(tracing.per_layer_metrics(tracer))
    metrics["cli.parallel_efficiency"] = (efficiency, "share", 1)
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s", 1)
    out.mkdir(parents=True, exist_ok=True)
    tracer.save(out / f"spans-{args.workload}.npz")
    return digests


def measure(args, root: Path, size: str = "full") -> tuple[dict, dict, Tally]:
    """One benchmark invocation; returns (metrics, record, tally)."""
    import workloads

    nproc = len(os.sched_getaffinity(0))
    workers = workloads.workers_for(args.workload, nproc)
    out = root / OUT_DIR
    work_dir = out / "work" / args.workload
    tally = Tally()
    metrics: dict[str, tuple[float, str, int]] = {}

    # A traced invocation still sets up once: the first run in a process is
    # about twice as slow as later ones.
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setups = [setup_once(args.workload, root, workers) for _ in range(repeats)]
    if args.trace == 0:
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        digests = _measure_untraced(args, size, work_dir, workers, tally, metrics)
    else:
        digests = _measure_traced(args, size, work_dir, workers, tally, metrics, out)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(workers),
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "digests": digests,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }
    return metrics, record, tally


def main(argv=None, size: str = "full") -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tpcma" / "__init__.py").is_file():
        print(f"error: no tpcma sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    metrics, record, tally = measure(args, root, size)

    out = root / OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    (out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# digests {json.dumps(record['digests'])}")
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={samples})")
    share = tally.failed / max(tally.attempted, 1)
    print(f"# failed_share = {share:.6g} ({tally.failed} of {tally.attempted} runs)")
    for problem in tally.problems:
        print(f"# FAILED CHECK: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
