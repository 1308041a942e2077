"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload emits every metric named in BENCHMARK.json with its unit,
traced and untraced passes agree on the trajectory digests, a tampered
result is counted as failed and makes the command exit non-zero, and the
command refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(capsys, monkeypatch, workload: str, trace: int):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    code = run.main(argv, size="tiny")
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / run.OUT_DIR / f"record-{workload}-seed3-trace{trace}.json").read_text()
    )
    return code, result, record


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric_with_its_unit(capsys, monkeypatch, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, record = _invoke(capsys, monkeypatch, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        assert set(record["machine"]) >= {"nproc", "cpu_model", "numpy", "blas_threads"}
        if trace == 0:
            untraced = record["digests"]
    if workload != "rastrigin_restarts":  # traced restart passes cover fewer runs
        assert record["digests"] == untraced


def test_tampered_result_counts_as_failed(capsys, monkeypatch):
    honest = workloads.library_run

    def tampered(job, tracer=None, results=None):
        outcome = honest(job, tracer, results)
        return dataclasses.replace(outcome, best_f=outcome.best_f * 0.5)

    p = workloads.run_pass("ellipsoid_n400", "tiny", 3, ROOT / run.OUT_DIR / "work", 1)
    assert checks.failed_runs(p.outcomes)[0] == 0
    bad = [dataclasses.replace(p.outcomes[0], best_f=p.outcomes[0].best_f * 0.5)]
    assert checks.failed_runs(bad)[0] == 1

    monkeypatch.setattr(workloads, "library_run", tampered)
    code, result, _ = _invoke(capsys, monkeypatch, "ellipsoid_n400", 0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "parity_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
