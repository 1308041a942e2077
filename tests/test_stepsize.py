import math
from dataclasses import replace

import numpy as np
import pytest

from tpcma.engine import CONTROLLERS
from tpcma.params import default_params
from tpcma.sampler import EIGENVALUE_FLOOR, decompose, sample_population
from tpcma.stepsize import (
    csa_stall_indicator,
    csa_update,
    expected_normal_norm,
    tpa_test_points,
    tpa_update,
)

DEFAULTS = default_params(10)
LEGACY = replace(DEFAULTS, **CONTROLLERS["tpa_legacy"])


class TestTestPoints:
    def test_basic_placement(self):
        plus, minus = tpa_test_points(np.zeros(2), 1.0, np.array([1.0, 0.0]), DEFAULTS)
        np.testing.assert_array_equal(plus, [0.5, 0.0])
        np.testing.assert_array_equal(minus, [-0.5, 0.0])

    def test_midpoint_is_mean(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal(5)
        step = rng.standard_normal(5)
        plus, minus = tpa_test_points(m, 1.7, step, DEFAULTS)
        np.testing.assert_allclose((plus + minus) / 2.0, m, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("params", [DEFAULTS, LEGACY], ids=["tpa", "tpa_legacy"])
    def test_rows_equal_reference_formula_exactly(self, params):
        rng = np.random.default_rng(8)
        m, step = rng.standard_normal(10), rng.standard_normal(10)
        points = tpa_test_points(m, 0.7, step, params)
        a = params.alpha_test
        a_down = a / (1.0 + a) if params.mode == "tpa_legacy" else a
        assert points.shape == (2, 10)
        np.testing.assert_array_equal(points[0], m + a * (0.7 * step))
        np.testing.assert_array_equal(points[1], m - a_down * (0.7 * step))

    def test_asymmetric_minus_width(self):
        m = np.zeros(1)
        plus, minus = tpa_test_points(m, 1.0, np.array([1.0]), LEGACY)
        assert plus[0] == pytest.approx(0.8)
        assert minus[0] == pytest.approx(-0.4444444444444445, rel=1e-12)


class TestTpaUpdate:
    def test_increase_branch(self):
        alpha_s, mult = tpa_update(0.0, 1.0, 2.0, DEFAULTS)  # f+ wins
        assert alpha_s == pytest.approx(0.15, rel=1e-15)
        assert mult == pytest.approx(1.161834242728283, rel=1e-14)

    def test_decrease_branch(self):
        alpha_s, mult = tpa_update(0.0, 2.0, 1.0, DEFAULTS)  # f- wins
        assert alpha_s == pytest.approx(-0.15, rel=1e-15)
        assert mult == pytest.approx(0.8607079764250578, rel=1e-14)

    def test_noise_bias_shrinks_decrease(self):
        params = replace(DEFAULTS, beta_bias=0.1)
        alpha_s, _ = tpa_update(0.0, 2.0, 1.0, params)
        assert alpha_s == pytest.approx(0.3 * -0.4, rel=1e-15)

    def test_tie_takes_increase_branch(self):
        alpha_s, _ = tpa_update(0.0, 1.5, 1.5, DEFAULTS)
        assert alpha_s == pytest.approx(0.15)

    def test_single_infinite_value_is_ordinary_comparison(self):
        alpha_s, _ = tpa_update(0.0, math.inf, 1.0, DEFAULTS)
        assert alpha_s < 0.0
        alpha_s, _ = tpa_update(0.0, 1.0, math.inf, DEFAULTS)
        assert alpha_s > 0.0

    def test_both_infinite_decreases_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            alpha_s, mult = tpa_update(0.0, math.inf, math.inf, DEFAULTS)
        assert alpha_s == pytest.approx(-0.15)
        assert mult < 1.0
        assert any("infeasible" in r.message for r in caplog.records)

    def test_both_minus_infinite_is_a_tie(self, caplog):
        # -inf is a fitness, not a failure: the pair ties and sigma grows
        with caplog.at_level("WARNING"):
            alpha_s, mult = tpa_update(0.0, -math.inf, -math.inf, DEFAULTS)
        assert alpha_s == pytest.approx(0.15)
        assert mult > 1.0
        assert not caplog.records

    def test_multipliers_are_log_symmetric(self):
        # reaching +a and -a gives exactly reciprocal multipliers
        for a in (0.1, 0.25, 0.45):
            _, up = tpa_update((a - 0.15) / 0.7, 1.0, 2.0, DEFAULTS)
            _, down = tpa_update(-(a - 0.15) / 0.7, 2.0, 1.0, DEFAULTS)
            assert up * down == pytest.approx(1.0, abs=1e-15)

    def test_signal_stays_in_reachable_band(self):
        alpha_s = 0.0
        rng = np.random.default_rng(0)
        for _ in range(2000):
            f = rng.standard_normal(2)
            alpha_s, _ = tpa_update(alpha_s, f[0], f[1], DEFAULTS)
            assert abs(alpha_s) <= 0.5

    def test_sign_agreement_after_one_update_at_half_smoothing(self):
        params = replace(DEFAULTS, c_alpha=0.5)
        # reachable signals are strictly inside (-alpha, alpha)
        for alpha_s in np.linspace(-0.4999, 0.4999, 1001):
            up, _ = tpa_update(alpha_s, 1.0, 2.0, params)
            down, _ = tpa_update(alpha_s, 2.0, 1.0, params)
            assert up > 0.0
            assert down < 0.0


class TestLegacyParams:
    def test_constants_and_flags(self):
        assert LEGACY.alpha_test == 0.8
        assert LEGACY.alpha_change == pytest.approx(math.log(1.8), rel=1e-15)
        assert LEGACY.beta_bias == 0.0
        assert LEGACY.c_alpha == 1.0
        assert LEGACY.mode == "tpa_legacy"

    def test_single_generation_multiplier(self):
        _, up = tpa_update(0.0, 1.0, 2.0, LEGACY)
        _, down = tpa_update(0.0, 2.0, 1.0, LEGACY)
        assert up == pytest.approx(1.8, rel=1e-13)
        assert down == pytest.approx(1.0 / 1.8, rel=1e-13)

    def test_smoothing_disabled(self):
        alpha_s, _ = tpa_update(0.123, 1.0, 2.0, LEGACY)
        assert alpha_s == pytest.approx(math.log(1.8), rel=1e-15)


class TestCsa:
    def test_zero_path_zero_step_shrinks(self):
        p = DEFAULTS
        p_sigma, mult = csa_update(np.zeros(10), np.zeros(10), p)
        np.testing.assert_array_equal(p_sigma, np.zeros(10))
        assert mult == pytest.approx(math.exp(-p.c_sigma / p.d_sigma), rel=1e-14)
        assert mult < 1.0

    def test_stationary_at_expected_norm(self):
        p = DEFAULTS
        target = expected_normal_norm(10) / (1.0 - p.c_sigma)
        _, mult = csa_update(np.r_[target, np.zeros(9)], np.zeros(10), p)
        assert mult == pytest.approx(1.0, abs=1e-12)

    def test_path_formula_single_parent(self):
        p = default_params(10, lam=2)  # mu_w = 1
        step = np.r_[1.0, np.zeros(9)]
        p_sigma, _ = csa_update(np.zeros(10), step, p)
        expected = math.sqrt(p.c_sigma * (2.0 - p.c_sigma))
        np.testing.assert_allclose(p_sigma, expected * step, rtol=1e-14)

    def test_path_norm_equals_linalg_norm_exactly(self):
        rng = np.random.default_rng(12)
        p = DEFAULTS
        new, mult = csa_update(rng.standard_normal(10), rng.standard_normal(10), p)
        ratio = float(np.linalg.norm(new)) / expected_normal_norm(10)
        assert mult == math.exp((p.c_sigma / p.d_sigma) * (ratio - 1.0))

    @pytest.mark.parametrize("n", [2, 10, 50])
    @pytest.mark.parametrize("floored", [False, True], ids=["cholesky", "repaired"])
    def test_path_length_equals_inverse_square_root_whitening(self, n, floored):
        # the mean of the selected draws is A^(-1) <y>, a rotation of
        # C^(-1/2) <y> with C = A A^T, so the path length is the textbook one
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = np.geomspace(1e-6, 1.0, n)
        if floored:
            eigenvalues[0] = -1e-6
        C = (q * eigenvalues) @ q.T
        C = (C + C.T) / 2.0
        factor = decompose(C)
        assert factor.repaired == floored
        p = default_params(n)
        _, Y, Z = sample_population(np.zeros(n), 1.0, factor, p.lam, rng)
        mean_z, mean_y = p.weights @ Z[: p.mu], p.weights @ Y[: p.mu]
        # C^(-1/2) of the matrix sampled from, floor included, formed from eigh
        values, basis = np.linalg.eigh(C)
        inv_sqrt = (basis / np.sqrt(np.maximum(values, EIGENVALUE_FLOOR * values[-1]))) @ basis.T
        solved = np.linalg.solve(factor.transform, mean_y)
        assert np.linalg.norm(solved - mean_z) <= 1e-8 * np.linalg.norm(mean_z)
        new, mult = csa_update(np.zeros(n), mean_z, p)
        cs = p.c_sigma
        expected = math.sqrt(cs * (2.0 - cs) * p.mu_w) * (inv_sqrt @ mean_y)
        assert np.linalg.norm(new) == pytest.approx(np.linalg.norm(expected), rel=1e-8)
        ratio = float(np.linalg.norm(expected)) / expected_normal_norm(n)
        assert mult == pytest.approx(math.exp((cs / p.d_sigma) * (ratio - 1.0)), rel=1e-8)

    def test_inputs_not_written(self):
        rng = np.random.default_rng(4)
        inputs = (rng.standard_normal(10), rng.standard_normal(10))
        inputs_before = [x.copy() for x in inputs]
        new, _ = csa_update(inputs[0], inputs[1], DEFAULTS)
        assert new is not inputs[0]
        for x, before in zip(inputs, inputs_before):
            np.testing.assert_array_equal(x, before)

    def test_stall_indicator(self):
        p = DEFAULTS
        assert csa_stall_indicator(np.zeros(10), 1, p) == 1
        huge = np.full(10, 100.0)
        assert csa_stall_indicator(huge, 1, p) == 0


class TestExpectedNorm:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 40])
    def test_matches_exact_chi_mean(self, n):
        exact = math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
        assert expected_normal_norm(n) == pytest.approx(exact, rel=5e-3)
