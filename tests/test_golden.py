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

from tpcma.engine import RestartPolicy, RunConfig, TerminationCriteria, run, run_with_restarts
from tpcma.objectives import ObjectiveSpec

CONTROLLERS = ("tpa", "tpa_noise", "tpa_legacy", "csa")

# cell -> (objective, budget, target_f, restart policy or None)
CELLS = {
    "sphere": (ObjectiveSpec("sphere", 10), 1500, 1e-9, None),
    "ellipsoid": (ObjectiveSpec("ellipsoid", 10), 1500, 1e-9, None),
    "rosenbrock": (ObjectiveSpec("rosenbrock", 10), 1500, 1e-9, None),
    "noisy_sphere": (ObjectiveSpec("noisy_sphere", 5, noise_level=1.0), 600, -math.inf, None),
    "rastrigin_restarts": (
        ObjectiveSpec("rastrigin", 5), 3000, 1e-8, RestartPolicy(max_restarts=3),
    ),
    "bounded_restarts": (
        ObjectiveSpec("sphere", 3),
        1500,
        -1.0,
        RestartPolicy(max_restarts=2, bounds=(np.full(3, -5.0), np.full(3, 5.0))),
    ),
}

GOLDEN = {
    ("sphere", "tpa"): "5608bdf6a52b2d56",
    ("sphere", "tpa_noise"): "1906945627ad2497",
    ("sphere", "tpa_legacy"): "00f6409c5ee71a4c",
    ("sphere", "csa"): "a363aa58a85292b8",
    ("ellipsoid", "tpa"): "52785f0074042b20",
    ("ellipsoid", "tpa_noise"): "b934a59180371dfb",
    ("ellipsoid", "tpa_legacy"): "d139ad7e83478c1b",
    ("ellipsoid", "csa"): "5605627bcdfde3b9",
    ("rosenbrock", "tpa"): "1aa9060bfb3fbbc2",
    ("rosenbrock", "tpa_noise"): "7a4a507c1b5ceb25",
    ("rosenbrock", "tpa_legacy"): "cba7d5ccedccae9e",
    ("rosenbrock", "csa"): "f378562f286dbdbc",
    ("noisy_sphere", "tpa"): "f431f382922891a3",
    ("noisy_sphere", "tpa_noise"): "4871ada4039c5b8b",
    ("noisy_sphere", "tpa_legacy"): "13fba9672c1a8e84",
    ("noisy_sphere", "csa"): "47b705553cdbb5fa",
    ("rastrigin_restarts", "tpa"): "dce88017590a31cc",
    ("rastrigin_restarts", "tpa_noise"): "e2ebf2edc5874995",
    ("rastrigin_restarts", "tpa_legacy"): "d56444e09839761b",
    ("rastrigin_restarts", "csa"): "e55f3ddd30a1bcf1",
    ("bounded_restarts", "tpa"): "aeea1d5421336fa2",
    ("bounded_restarts", "tpa_noise"): "0a0d0a25eeccb227",
    ("bounded_restarts", "tpa_legacy"): "1135f26bbf6af8bb",
    ("bounded_restarts", "csa"): "1823f5cb656b1c2c",
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
    spec, budget, target, policy = CELLS[cell]
    config = RunConfig(
        objective=spec,
        controller=controller,
        seed=3,
        m0=3.0,
        sigma0=2.0,
        criteria=TerminationCriteria(max_evals=budget, target_f=target, tol_fun=1e-10),
    )
    result = run(config) if policy is None else run_with_restarts(config, policy)
    assert digest(result) == GOLDEN[(cell, controller)]
