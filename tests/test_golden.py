"""Golden trajectories: seeded runs must stay bit-identical across refactors.

Each cell hashes the float64 bytes of every trace row, best_x, best_f,
evals and the restart segments.  Hashing bytes rather than reprs keeps the
digest independent of the Python type a value happens to have.  Beside each
digest, ``golden_rows.json`` keeps the cell's first trace rows, so that a
mismatch names the first row and column that differ.  A change that alters
trajectories on purpose re-blesses both and says why:
``PYTHONPATH=src python tests/test_golden.py`` rewrites the rows and prints
the digests.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tpcma.engine import RunConfig, RunRecord, TerminationCriteria, run
from tpcma.objectives import ObjectiveSpec

CONTROLLERS = ("tpa", "tpa_noise", "tpa_legacy", "csa")

# cell -> (objective, budget, target_f, max_restarts)
CELLS = {
    "sphere": (ObjectiveSpec("sphere", 10), 1500, 1e-9, 0),
    "ellipsoid": (ObjectiveSpec("ellipsoid", 10), 1500, 1e-9, 0),
    "rosenbrock": (ObjectiveSpec("rosenbrock", 10), 1500, 1e-9, 0),
    "ellipsoid_n20": (ObjectiveSpec("ellipsoid", 20), 3000, 1e-9, 0),
    "rosenbrock_n20": (ObjectiveSpec("rosenbrock", 20), 3000, 1e-9, 0),
    # lam 16, so the factor is refreshed every 3rd generation
    "ellipsoid_n60": (ObjectiveSpec("ellipsoid", 60), 2000, 1e-9, 0),
    "noisy_sphere": (ObjectiveSpec("noisy_sphere", 5, noise_level=1.0), 600, -math.inf, 0),
    "rastrigin_restarts": (ObjectiveSpec("rastrigin", 5), 3000, 1e-8, 3),
}

GOLDEN = {
    ("sphere", "tpa"): "56ce09990bb937e3",
    ("sphere", "tpa_noise"): "a8f3c9c039e8d8fb",
    ("sphere", "tpa_legacy"): "1292389bd7a0ab5f",
    ("sphere", "csa"): "22d136fde7fa0a6e",
    ("ellipsoid", "tpa"): "64abc716a0669e2f",
    ("ellipsoid", "tpa_noise"): "526c5369cdae5b75",
    ("ellipsoid", "tpa_legacy"): "eeebd8e5d5f6c6b7",
    ("ellipsoid", "csa"): "66e3ca3070b5ff4d",
    ("rosenbrock", "tpa"): "f3624136d5689506",
    ("rosenbrock", "tpa_noise"): "26bf961e82714d04",
    ("rosenbrock", "tpa_legacy"): "dd768ffe6ee970b2",
    ("rosenbrock", "csa"): "1b7d94dd0876063f",
    ("ellipsoid_n20", "tpa"): "8979009c76a8cab2",
    ("ellipsoid_n20", "tpa_noise"): "d83efeae89ae6f87",
    ("ellipsoid_n20", "tpa_legacy"): "562f0fd1217c3745",
    ("ellipsoid_n20", "csa"): "e8c378b424e33d9b",
    ("rosenbrock_n20", "tpa"): "6a868a430abb7ca2",
    ("rosenbrock_n20", "tpa_noise"): "ffe1f822a88f7abb",
    ("rosenbrock_n20", "tpa_legacy"): "f4243f2ab0dddbeb",
    ("rosenbrock_n20", "csa"): "0b858ced070b415a",
    ("ellipsoid_n60", "tpa"): "e4e854f971bf328e",
    ("ellipsoid_n60", "tpa_noise"): "aa3cc5ecd79ee79b",
    ("ellipsoid_n60", "tpa_legacy"): "baf3cce1128f28a7",
    ("ellipsoid_n60", "csa"): "0f86886959d0e682",
    ("noisy_sphere", "tpa"): "5b100754db17998f",
    ("noisy_sphere", "tpa_noise"): "ac1d66e43ec5e2ed",
    ("noisy_sphere", "tpa_legacy"): "630e4d117f3734fa",
    ("noisy_sphere", "csa"): "1ae2cd80e143b9fd",
    ("rastrigin_restarts", "tpa"): "794c58a1cae9aa2d",
    ("rastrigin_restarts", "tpa_noise"): "66d0c84a816db596",
    ("rastrigin_restarts", "tpa_legacy"): "efb112cefd15bd16",
    ("rastrigin_restarts", "csa"): "12ba584fb785db0f",
}


ROWS_PATH = Path(__file__).with_name("golden_rows.json")
BLESSED_ROWS = 16


def digest(result) -> str:
    h = hashlib.sha256()

    def put(*values):
        h.update(np.asarray(values, dtype=np.float64).tobytes())

    for row in result.trace:
        put(row.generation, row.evals, row.best_f, row.sigma, row.alpha_s, row.axis_ratio,
            row.trace_C)
    put(*result.best_x)
    put(result.best_f, result.evals)
    for seg in result.segments:
        put(seg.lam, seg.evals, seg.generations, seg.best_f)
        h.update(seg.termination.encode())
    return h.hexdigest()[:16]


def first_difference(trace, blessed) -> str:
    """Where a trace first departs from its blessed rows, compared as float64 bytes."""
    for i, row in enumerate(blessed):
        if i == len(trace):
            return f"the trace ends after {i} rows; {len(blessed)} are blessed"
        for name, got, expected in zip(RunRecord._fields, trace[i], row):
            if np.float64(got).tobytes() != np.float64(expected).tobytes():
                return f"trace row {i}, column {name}: blessed {expected!r}, got {got!r}"
    return f"the first {len(blessed)} trace rows agree; the difference lies later"


def run_cell(cell, controller):
    spec, budget, target, max_restarts = CELLS[cell]
    return run(RunConfig(
        objective=spec,
        controller=controller,
        seed=3,
        m0=3.0,
        sigma0=2.0,
        criteria=TerminationCriteria(max_evals=budget, target_f=target, tol_fun=1e-10),
        max_restarts=max_restarts,
    ))


@pytest.fixture(scope="module")
def blessed_rows():
    return json.loads(ROWS_PATH.read_text())


@pytest.mark.parametrize("controller", CONTROLLERS)
@pytest.mark.parametrize("cell", list(CELLS))
def test_golden_trajectory(cell, controller, blessed_rows):
    result = run_cell(cell, controller)
    if (got := digest(result)) != (blessed := GOLDEN[(cell, controller)]):
        where = first_difference(result.trace, blessed_rows[f"{cell} {controller}"])
        pytest.fail(f"digest {got}, blessed {blessed}: {where}")


def test_first_difference_names_the_row_and_column():
    rows = [RunRecord(1, 8, 2.0, 1.0, math.nan, 1.0, 3.0),
            RunRecord(2, 16, 1.0, 0.5, math.nan, 1.5, 3.0)]
    blessed = [list(row) for row in rows]
    # NaN matches NaN, as in the digest's bytes
    assert first_difference(rows, blessed) == "the first 2 trace rows agree; the difference lies later"
    moved = [rows[0], rows[1]._replace(sigma=0.5000000000000001)]
    assert first_difference(moved, blessed) == (
        "trace row 1, column sigma: blessed 0.5, got 0.5000000000000001")
    assert first_difference(rows[:1], blessed) == "the trace ends after 1 rows; 2 are blessed"


if __name__ == "__main__":  # rewrites the rows, and prints the digests for GOLDEN
    blessed = {}
    for cell in CELLS:
        for controller in CONTROLLERS:
            result = run_cell(cell, controller)
            blessed[f"{cell} {controller}"] = [list(row) for row in result.trace[:BLESSED_ROWS]]
            print(f'    ("{cell}", "{controller}"): "{digest(result)}",')
    # one row a line, so that a re-blessing diffs by row
    cells = (f"  {json.dumps(key)}: [\n" + ",\n".join(f"    {json.dumps(row)}" for row in rows)
             + "\n  ]" for key, rows in blessed.items())
    ROWS_PATH.write_text("{\n" + ",\n".join(cells) + "\n}\n")
