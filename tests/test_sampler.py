import numpy as np
import pytest

from tpcma.sampler import EIGENVALUE_FLOOR, CovarianceFactor, decompose, sample_population


def random_spd(n, rng, jitter=1e-3):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def reconstruct(factor):
    """The (floored) covariance matrix the factor samples from."""
    return factor.transform @ factor.transform.T


class TestDecompose:
    def test_identity(self):
        f = decompose(np.eye(3))
        assert f.scales == pytest.approx([1.0, 1.0, 1.0])
        assert not f.repaired
        np.testing.assert_array_equal(f.transform, np.eye(3))

    def test_diagonal(self):
        f = decompose(np.diag([4.0, 1.0]))
        assert f.scales.tolist() == pytest.approx([1.0, 2.0])
        assert f.axis_ratio == pytest.approx(2.0)
        np.testing.assert_array_equal(f.transform, np.diag([2.0, 1.0]))

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            C = random_spd(5, rng)
            f = decompose(C)
            assert not f.repaired
            np.testing.assert_array_equal(np.tril(f.transform), f.transform)
            err = np.linalg.norm(reconstruct(f) - C) / np.linalg.norm(C)
            assert err < 1e-9

    def test_scales_are_the_eigenvalue_square_roots(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 30):
            C = random_spd(n, rng)
            f = decompose(C)
            np.testing.assert_allclose(f.scales, np.sqrt(np.linalg.eigvalsh(C)), rtol=1e-12)

    @pytest.mark.parametrize("smallest", [0.0, -1e-18, -1.0])
    def test_indefinite_repaired(self, smallest):
        # Cholesky fails, and the floored eigendecomposition stands in for it
        f = decompose(np.diag([1.0, smallest]))
        assert f.repaired
        assert np.all(f.scales > 0.0)
        assert f.axis_ratio == pytest.approx(1e7)
        # transform = basis * scales: orthogonal columns whose lengths are the scales
        np.testing.assert_allclose(f.transform.T @ f.transform, np.diag(f.scales**2),
                                   rtol=1e-12, atol=1e-15)

    def test_repaired_factor_samples_the_floored_matrix(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        eigenvalues = np.array([-1e-3, 1e-20, 1e-4, 1e-2, 0.5, 2.0])
        C = (q * eigenvalues) @ q.T
        f = decompose((C + C.T) / 2.0)
        assert f.repaired
        floored = (q * np.maximum(eigenvalues, EIGENVALUE_FLOOR * 2.0)) @ q.T
        np.testing.assert_allclose(reconstruct(f), floored, rtol=0, atol=1e-13)

    def test_near_singular_cholesky_floors_only_the_scales(self):
        # positive definite, so Cholesky samples C exactly; the axis ratio is capped
        C = np.diag([1.0, 1e-20])
        f = decompose(C)
        assert not f.repaired
        np.testing.assert_array_equal(f.transform, np.diag([1.0, 1e-10]))
        assert f.axis_ratio == pytest.approx(1e7)

    @pytest.mark.parametrize("smallest", [1.0, 1e-20, -1.0])  # plain, floored, repaired
    def test_row_statistics_are_computed_on_building(self, smallest):
        f = decompose(np.diag([4.0, smallest]))
        assert f.axis_ratio == float(f.scales[-1] / f.scales[0])
        assert f.trace == float((f.scales**2).sum())
        assert type(f.axis_ratio) is type(f.trace) is float
        with pytest.raises(TypeError, match="trace"):
            CovarianceFactor(f.transform, f.scales, trace=1.0)

    def test_rejects_no_positive_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            decompose(np.diag([-1.0, -2.0]))

    def test_transform_whitens_C(self):
        # A^(-1) C A^(-T) = I: the draws z = A^(-1) y are white
        C = random_spd(4, np.random.default_rng(11))
        whiten = np.linalg.inv(decompose(C).transform)
        np.testing.assert_allclose(whiten @ C @ whiten.T, np.eye(4), atol=1e-9)


class TestSamplePopulation:
    def test_reproducible_for_equal_seed(self):
        f = decompose(np.diag([2.0, 0.5]))
        m = np.array([1.0, -1.0])
        first = sample_population(m, 0.7, f, 6, np.random.default_rng(42))
        second = sample_population(m, 0.7, f, 6, np.random.default_rng(42))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["cholesky", "repaired"])
    def test_draw_order_offspring_major(self, kind):
        # Z is drawn as one (lam, n) block, and y_k = A z_k for either kind
        C = random_spd(3, np.random.default_rng(1))
        if kind == "repaired":
            C[0, 0] = -1.0
        f = decompose(C)
        assert f.repaired == (kind == "repaired")
        _, Y, Z = sample_population(np.zeros(3), 1.0, f, 5, np.random.default_rng(99))
        np.testing.assert_array_equal(Z, np.random.default_rng(99).standard_normal((5, 3)))
        np.testing.assert_array_equal(Y, Z @ f.transform.T)

    def test_x_is_affine_in_y(self):
        f = decompose(np.eye(2))
        m = np.array([3.0, -2.0])
        sigma = 0.25
        X, Y, Z = sample_population(m, sigma, f, 4, np.random.default_rng(3))
        assert X.shape == Y.shape == Z.shape == (4, 2)
        for x, y in zip(X, Y):
            np.testing.assert_array_equal(x, m + sigma * y)

    def test_statistical_moments(self):
        # law-of-large-numbers oracle at 1e5 samples
        f = decompose(np.diag([4.0, 1.0]))
        _, ys, _ = sample_population(np.zeros(2), 1.0, f, 100_000, np.random.default_rng(5))
        assert np.all(np.abs(ys.mean(axis=0)) < 4.0 * np.sqrt(ys.var(axis=0)) / np.sqrt(1e5))
        assert ys[:, 0].var() == pytest.approx(4.0, rel=0.05)
        assert ys[:, 1].var() == pytest.approx(1.0, rel=0.05)

    def test_degenerate_scale_accepted(self):
        f = decompose(np.eye(2))
        m = np.array([1.0, 2.0])
        X, _, _ = sample_population(m, 1e-300, f, 2, np.random.default_rng(0))
        for x in X:
            np.testing.assert_allclose(x, m, rtol=0, atol=1e-290)
