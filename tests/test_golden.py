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
    "ellipsoid_n20": (ObjectiveSpec("ellipsoid", 20), 3000, 1e-9, None),
    "rosenbrock_n20": (ObjectiveSpec("rosenbrock", 20), 3000, 1e-9, None),
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
    ("sphere", "tpa"): "3878d2a607f05771",
    ("sphere", "tpa_noise"): "b75495e18dd91edc",
    ("sphere", "tpa_legacy"): "c747aac81ff51721",
    ("sphere", "csa"): "a363aa58a85292b8",
    ("ellipsoid", "tpa"): "e49c204470ab7deb",
    ("ellipsoid", "tpa_noise"): "cc90a6eb8d6c6f13",
    ("ellipsoid", "tpa_legacy"): "c68fd730f8d02fb0",
    ("ellipsoid", "csa"): "5605627bcdfde3b9",
    ("rosenbrock", "tpa"): "36a5a1c73d48f997",
    ("rosenbrock", "tpa_noise"): "7ec88c8141f04137",
    ("rosenbrock", "tpa_legacy"): "a6f8b7dc9a7f34fe",
    ("rosenbrock", "csa"): "f378562f286dbdbc",
    ("ellipsoid_n20", "tpa"): "662f0887133680e9",
    ("ellipsoid_n20", "tpa_noise"): "19fa07096a5fe3db",
    ("ellipsoid_n20", "tpa_legacy"): "07cb900c67922060",
    ("ellipsoid_n20", "csa"): "76ae0d3b2389ad9f",
    ("rosenbrock_n20", "tpa"): "9814c3df49e45c5b",
    ("rosenbrock_n20", "tpa_noise"): "ae30123e0e6967d1",
    ("rosenbrock_n20", "tpa_legacy"): "15615e714be42d1b",
    ("rosenbrock_n20", "csa"): "9e87809c93123047",
    ("noisy_sphere", "tpa"): "09ee845362adecd5",
    ("noisy_sphere", "tpa_noise"): "85c5add76a947163",
    ("noisy_sphere", "tpa_legacy"): "d34c1b51e53c93d3",
    ("noisy_sphere", "csa"): "47b705553cdbb5fa",
    ("rastrigin_restarts", "tpa"): "51dbee783631861f",
    ("rastrigin_restarts", "tpa_noise"): "7f936afd71f451f4",
    ("rastrigin_restarts", "tpa_legacy"): "cd6094bd7c549d1b",
    ("rastrigin_restarts", "csa"): "0a6ffbfedefd5a58",
    ("bounded_restarts", "tpa"): "8bc22d58d798f303",
    ("bounded_restarts", "tpa_noise"): "c1a952733147ec63",
    ("bounded_restarts", "tpa_legacy"): "e974b9f488bcc151",
    ("bounded_restarts", "csa"): "552b89ad49e6d200",
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
