import numpy as np
import pytest

from tpcma.sampler import decompose, sample_population


def random_spd(n, rng, jitter=1e-3):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def reconstruct(factor):
    """The (floored) covariance matrix the factor samples from."""
    if factor.lower is not None:
        return factor.lower @ factor.lower.T
    return (factor.basis * factor.scales**2) @ factor.basis.T


# the two kinds of factor: Cholesky (tpa) and eigendecomposition (csa)
KINDS = pytest.mark.parametrize("want_eigh", [False, True], ids=["cholesky", "eigh"])


class TestDecompose:
    @KINDS
    def test_identity(self, want_eigh):
        f = decompose(np.eye(3), want_eigh=want_eigh)
        assert f.scales == pytest.approx([1.0, 1.0, 1.0])
        assert not f.repaired
        assert (f.lower is None) == want_eigh
        assert (f.basis is None) != want_eigh
        np.testing.assert_allclose(reconstruct(f), np.eye(3), atol=1e-14)

    @KINDS
    def test_diagonal(self, want_eigh):
        f = decompose(np.diag([4.0, 1.0]), want_eigh=want_eigh)
        assert f.scales.tolist() == pytest.approx([1.0, 2.0])
        assert f.axis_ratio == pytest.approx(2.0)

    @KINDS
    def test_random_spd_roundtrip(self, want_eigh):
        rng = np.random.default_rng(7)
        for _ in range(10):
            C = random_spd(5, rng)
            f = decompose(C, want_eigh=want_eigh)
            assert not f.repaired
            err = np.linalg.norm(reconstruct(f) - C) / np.linalg.norm(C)
            assert err < 1e-9

    def test_cholesky_scales_equal_eigh_scales(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 30):
            C = random_spd(n, rng)
            cholesky, eigh = decompose(C), decompose(C, want_eigh=True)
            np.testing.assert_array_equal(np.tril(cholesky.lower), cholesky.lower)
            np.testing.assert_allclose(cholesky.scales, eigh.scales, rtol=1e-12)
            assert cholesky.axis_ratio == pytest.approx(eigh.axis_ratio, rel=1e-12)

    @KINDS
    def test_indefinite_repaired(self, want_eigh):
        # Cholesky fails, and the floored eigendecomposition stands in for it
        C = np.diag([1.0, -1e-18])
        f = decompose(C, want_eigh=want_eigh)
        assert f.repaired
        assert f.lower is None and f.basis is not None
        assert np.all(f.scales > 0.0)
        assert f.axis_ratio == pytest.approx(1e7)

    def test_near_singular_cholesky_floors_only_the_scales(self):
        # positive definite, so Cholesky samples C exactly; the axis ratio is capped
        C = np.diag([1.0, 1e-20])
        f = decompose(C)
        assert not f.repaired
        np.testing.assert_array_equal(f.lower, np.diag([1.0, 1e-10]))
        assert f.axis_ratio == pytest.approx(1e7)
        assert decompose(C, want_eigh=True).repaired

    @KINDS
    def test_rejects_no_positive_eigenvalue(self, want_eigh):
        with pytest.raises(ValueError, match="positive"):
            decompose(np.diag([-1.0, -2.0]), want_eigh=want_eigh)

    def test_eigh_factor_whitens_C(self):
        # basis diag(1/scales) basis^T is C^(-1/2), which csa_update applies
        rng = np.random.default_rng(11)
        C = random_spd(4, rng)
        f = decompose(C, want_eigh=True)
        whiten = f.basis / f.scales
        np.testing.assert_allclose(whiten.T @ C @ whiten, np.eye(4), atol=1e-9)


class TestSamplePopulation:
    def test_reproducible_for_equal_seed(self):
        f = decompose(np.diag([2.0, 0.5]))
        m = np.array([1.0, -1.0])
        X1, Y1 = sample_population(m, 0.7, f, 6, np.random.default_rng(42))
        X2, Y2 = sample_population(m, 0.7, f, 6, np.random.default_rng(42))
        assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)

    @KINDS
    def test_draw_order_offspring_major(self, want_eigh):
        # y_k must equal lower @ z_k or basis @ (scales * z_k), with z drawn
        # as one (lam, n) block
        C = random_spd(3, np.random.default_rng(1))
        f = decompose(C, want_eigh=want_eigh)
        _, Y = sample_population(np.zeros(3), 1.0, f, 5, np.random.default_rng(99))
        z = np.random.default_rng(99).standard_normal((5, 3))
        if want_eigh:
            expected = (z * f.scales) @ f.basis.T
        else:
            expected = z @ f.lower.T
        np.testing.assert_array_equal(Y, expected)

    def test_repaired_factor_samples_its_eigendecomposition(self):
        f = decompose(np.diag([1.0, -1e-18]))
        _, Y = sample_population(np.zeros(2), 1.0, f, 5, np.random.default_rng(99))
        z = np.random.default_rng(99).standard_normal((5, 2))
        np.testing.assert_array_equal(Y, (z * f.scales) @ f.basis.T)

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
