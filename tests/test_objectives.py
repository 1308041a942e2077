import re

import numpy as np
import pytest

from tpcma import objectives
from tpcma.objectives import OBJECTIVE_KINDS, ObjectiveSpec, evaluate, evaluate_population


class TestValues:
    def test_sphere(self):
        spec = ObjectiveSpec("sphere", 3)
        assert evaluate(spec, np.zeros(3)) == 0.0
        assert evaluate(spec, np.array([1.0, 2.0, 3.0])) == 14.0

    def test_ellipsoid(self):
        spec = ObjectiveSpec("ellipsoid", 2, condition=1e6)
        assert evaluate(spec, np.array([1.0, 1.0])) == pytest.approx(1.0 + 1e6, rel=1e-15)
        assert evaluate(ObjectiveSpec("ellipsoid", 1), np.array([2.0])) == 4.0

    def test_ellipsoid_scales_are_shared_read_only(self):
        spec = ObjectiveSpec("ellipsoid", 5, condition=1e4)
        xs = np.ones((2, 5))
        first = evaluate_population(spec, xs)
        scales = objectives._ellipsoid_scales(5, 1e4)
        assert scales is objectives._ellipsoid_scales(5, 1e4)
        with pytest.raises(ValueError):
            scales[0] = 2.0
        np.testing.assert_array_equal(evaluate_population(spec, xs), first)

    def test_rosenbrock(self):
        spec = ObjectiveSpec("rosenbrock", 4)
        assert evaluate(spec, np.ones(4)) == 0.0
        assert evaluate(ObjectiveSpec("rosenbrock", 2), np.array([0.0, 0.0])) == 1.0

    def test_rastrigin(self):
        spec = ObjectiveSpec("rastrigin", 5)
        assert evaluate(spec, np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
        assert evaluate(spec, np.ones(5)) == pytest.approx(5.0, abs=1e-9)

    def test_documented_optima_have_value_zero(self):
        for kind, minimizer in (
            ("sphere", 0.0), ("ellipsoid", 0.0), ("rosenbrock", 1.0), ("rastrigin", 0.0),
        ):
            spec = ObjectiveSpec(kind, 6)
            assert evaluate(spec, np.full(6, minimizer)) == pytest.approx(0.0, abs=1e-10)

    def test_noiseless_kinds_are_pure(self):
        x = np.array([0.3, -0.7, 1.1])
        for kind in ("sphere", "ellipsoid", "rosenbrock", "rastrigin"):
            spec = ObjectiveSpec(kind, 3)
            assert evaluate(spec, x) == evaluate(spec, x)


class TestStochasticKinds:
    def test_noisy_sphere_is_multiplicative(self):
        spec = ObjectiveSpec("noisy_sphere", 2, noise_level=0.5)
        rng = np.random.default_rng(1)
        x = np.array([1.0, 1.0])
        draws = np.array([evaluate(spec, x, rng) for _ in range(4000)])
        assert draws.mean() == pytest.approx(2.0, rel=0.05)
        assert draws.std() == pytest.approx(1.0, rel=0.1)  # |x|^2 * noise_level
        assert evaluate(ObjectiveSpec("noisy_sphere", 2, noise_level=0.5), np.zeros(2), rng) == 0.0

    def test_zero_noise_level_degenerates_to_sphere(self):
        spec = ObjectiveSpec("noisy_sphere", 2, noise_level=0.0)
        rng = np.random.default_rng(0)
        assert evaluate(spec, np.array([1.0, 2.0]), rng) == 5.0

    def test_random_fitness_ignores_x(self):
        spec = ObjectiveSpec("random_fitness", 2)
        rng = np.random.default_rng(5)
        x = np.array([1.0, 1.0])
        first = evaluate(spec, x, rng)
        second = evaluate(spec, x, rng)
        assert first != second
        assert 0.0 <= first < 1.0

    def test_stochastic_kinds_need_rng(self):
        with pytest.raises(ValueError):
            evaluate(ObjectiveSpec("noisy_sphere", 2, noise_level=1.0), np.zeros(2))
        with pytest.raises(ValueError):
            evaluate(ObjectiveSpec("random_fitness", 2), np.zeros(2))


class TestBatchEvaluation:
    @pytest.mark.parametrize("kind", [k for k in OBJECTIVE_KINDS if k not in ("noisy_sphere", "random_fitness")])
    def test_batch_matches_single(self, kind):
        spec = ObjectiveSpec(kind, 4)
        xs = np.random.default_rng(2).standard_normal((7, 4))
        batch = evaluate_population(spec, xs)
        singles = [evaluate(spec, x) for x in xs]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)

    def test_batch_draw_order_matches_single(self):
        spec = ObjectiveSpec("noisy_sphere", 3, noise_level=1.0)
        xs = np.random.default_rng(3).standard_normal((5, 3))
        batch = evaluate_population(spec, xs, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        singles = [evaluate(spec, x, rng) for x in xs]
        np.testing.assert_allclose(batch, singles, rtol=1e-15)

    def test_rejects_dimension_mismatch_and_nonfinite(self):
        spec = ObjectiveSpec("sphere", 3)
        with pytest.raises(ValueError):
            evaluate_population(spec, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            evaluate_population(spec, np.array([[1.0, np.inf, 0.0]]))

    @pytest.mark.parametrize("n, points, shape", [(3, np.zeros((2, 3, 5)), "(2, 3, 5)"),
                                                  (3, np.ones(3), "(3,)"), (1, 2.0, "()")],
                             ids=["stack", "point", "scalar"])
    def test_rejects_points_that_are_no_batch(self, n, points, shape):
        # a (2, 3, 5) stack came back as a (2, 5) array, and one point as a batch of it
        with pytest.raises(ValueError, match=re.escape(f"(k, n) batch, got shape {shape}")):
            evaluate_population(ObjectiveSpec("sphere", n), points)
