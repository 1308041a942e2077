"""Golden trajectories: seeded runs must stay bit-identical across refactors.

Each cell hashes the float64 bytes of every trace row, best_x, best_f,
evals and the restart segments.  Hashing bytes rather than reprs keeps the
digest independent of the Python type a value happens to have.  A change
that alters trajectories on purpose re-blesses these digests and says why.
"""

import hashlib
import math

import numpy as np
import pytest

from tpcma.engine import RunConfig, TerminationCriteria, run
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


@pytest.mark.parametrize("controller", CONTROLLERS)
@pytest.mark.parametrize("cell", list(CELLS))
def test_golden_trajectory(cell, controller):
    spec, budget, target, max_restarts = CELLS[cell]
    config = RunConfig(
        objective=spec,
        controller=controller,
        seed=3,
        m0=3.0,
        sigma0=2.0,
        criteria=TerminationCriteria(max_evals=budget, target_f=target, tol_fun=1e-10),
        max_restarts=max_restarts,
    )
    assert digest(run(config)) == GOLDEN[(cell, controller)]
