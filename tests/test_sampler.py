import numpy as np
import pytest

from tpcma.sampler import decompose, sample_population


def random_spd(n, rng, jitter=1e-3):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def reconstruct(factor):
    """The (floored) covariance matrix the factors describe."""
    return (factor.basis * factor.scales**2) @ factor.basis.T


class TestDecompose:
    def test_identity(self):
        f = decompose(np.eye(3))
        assert f.scales == pytest.approx([1.0, 1.0, 1.0])
        assert not f.repaired
        assert f.inv_sqrt is None
        np.testing.assert_allclose(reconstruct(f), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        f = decompose(np.diag([4.0, 1.0]))
        assert sorted(f.scales.tolist()) == pytest.approx([1.0, 2.0])
        assert f.axis_ratio == pytest.approx(2.0)

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            C = random_spd(5, rng)
            f = decompose(C)
            err = np.linalg.norm(reconstruct(f) - C) / np.linalg.norm(C)
            assert err < 1e-9

    def test_indefinite_repaired(self):
        C = np.diag([1.0, -1e-18])
        f = decompose(C)
        assert f.repaired
        assert np.all(f.scales > 0.0)

    def test_rejects_nonfinite_and_asymmetric(self):
        with pytest.raises(ValueError, match="non-finite"):
            decompose(np.array([[1.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(ValueError, match="symmetric"):
            decompose(np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ValueError, match="positive"):
            decompose(np.diag([-1.0, -2.0]))

    def test_inv_sqrt_on_request(self):
        rng = np.random.default_rng(11)
        C = random_spd(4, rng)
        f = decompose(C, want_inv_sqrt=True)
        np.testing.assert_allclose(f.inv_sqrt @ C @ f.inv_sqrt, np.eye(4), atol=1e-9)


class TestSamplePopulation:
    def test_reproducible_for_equal_seed(self):
        f = decompose(np.diag([2.0, 0.5]))
        m = np.array([1.0, -1.0])
        X1, Y1 = sample_population(m, 0.7, f, 6, np.random.default_rng(42))
        X2, Y2 = sample_population(m, 0.7, f, 6, np.random.default_rng(42))
        assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)

    def test_draw_order_offspring_major(self):
        # y_k must equal basis @ (scales * z_k) with z drawn as one (lam, n) block
        C = random_spd(3, np.random.default_rng(1))
        f = decompose(C)
        _, Y = sample_population(np.zeros(3), 1.0, f, 5, np.random.default_rng(99))
        z = np.random.default_rng(99).standard_normal((5, 3))
        expected = (z * f.scales) @ f.basis.T
        np.testing.assert_array_equal(Y, expected)

    def test_x_is_affine_in_y(self):
        f = decompose(np.eye(2))
        m = np.array([3.0, -2.0])
        sigma = 0.25
        X, Y = sample_population(m, sigma, f, 4, np.random.default_rng(3))
        assert X.shape == Y.shape == (4, 2)
        for x, y in zip(X, Y):
            np.testing.assert_array_equal(x, m + sigma * y)

    def test_statistical_moments(self):
        # law-of-large-numbers oracle at 1e5 samples
        f = decompose(np.diag([4.0, 1.0]))
        _, ys = sample_population(np.zeros(2), 1.0, f, 100_000, np.random.default_rng(5))
        assert np.all(np.abs(ys.mean(axis=0)) < 4.0 * np.sqrt(ys.var(axis=0)) / np.sqrt(1e5))
        assert ys[:, 0].var() == pytest.approx(4.0, rel=0.05)
        assert ys[:, 1].var() == pytest.approx(1.0, rel=0.05)

    def test_degenerate_scale_accepted(self):
        f = decompose(np.eye(2))
        m = np.array([1.0, 2.0])
        X, _ = sample_population(m, 1e-300, f, 2, np.random.default_rng(0))
        for x in X:
            np.testing.assert_allclose(x, m, rtol=0, atol=1e-290)

    def test_rejects_bad_sigma_and_lam(self):
        f = decompose(np.eye(2))
        with pytest.raises(ValueError):
            sample_population(np.zeros(2), 0.0, f, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_population(np.zeros(2), 1.0, f, 1, np.random.default_rng(0))
