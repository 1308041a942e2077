import math
from dataclasses import replace

import numpy as np
import pytest

from tpcma.covariance import (
    initial_covariance_state,
    stall_indicator,
    update_covariance,
    update_path,
)
from tpcma.params import default_params
from tpcma.recombine import rank

DEFAULTS = default_params(10)


def selected_from(ys, fitnesses, mu):
    """The mu best steps, best first, as the engine selects them."""
    return np.asarray(ys, float)[rank(fitnesses)[:mu]]


class TestStallIndicator:
    def test_zero_signal_never_stalls(self):
        for g in (1, 2, 10, 1000):
            assert stall_indicator(0.0, g, DEFAULTS) == 1

    def test_first_generation_threshold(self):
        # (1 - 0.7^9)(1 - 0.7^1) * 0.5
        threshold = (1.0 - 0.7**9) * (1.0 - 0.7) * 0.5
        assert threshold == pytest.approx(0.14394695895, rel=1e-12)
        assert stall_indicator(0.15, 1, DEFAULTS) == 0
        assert stall_indicator(threshold, 1, DEFAULTS) == 1  # strict inequality

    def test_asymptotic_threshold(self):
        limit = (1.0 - 0.7**9) * 0.5
        assert limit == pytest.approx(0.4798231965, rel=1e-12)
        assert stall_indicator(0.45, 10_000, DEFAULTS) == 1
        assert stall_indicator(0.48, 10_000, DEFAULTS) == 0

    def test_negative_signal_never_stalls(self):
        assert stall_indicator(-0.49, 1, DEFAULTS) == 1

    def test_rejects_nonpositive_generation(self):
        with pytest.raises(ValueError):
            stall_indicator(0.0, 0, DEFAULTS)


class TestUpdatePath:
    def test_zero_path_accumulates_step(self):
        p = default_params(10, lam=2)  # mu_w = 1, c_c = 4/14
        state = initial_covariance_state(10)
        step = np.r_[1.0, np.zeros(9)]
        new = update_path(state, step, 1, p)
        coeff = math.sqrt(p.c_c * (2.0 - p.c_c) * p.mu_w)
        assert coeff == pytest.approx(0.6998542122237652, rel=1e-12)
        np.testing.assert_allclose(new.p_c, coeff * step, rtol=1e-14)

    def test_stall_branch_is_pure_decay(self):
        p = default_params(3)
        state = initial_covariance_state(3)
        state = update_path(state, np.ones(3), 1, p)
        decayed = update_path(state, np.full(3, 9.9), 0, p)
        np.testing.assert_allclose(decayed.p_c, (1.0 - p.c_c) * state.p_c, rtol=1e-15)

    def test_covariance_untouched(self):
        state = initial_covariance_state(4)
        new = update_path(state, np.ones(4), 1, default_params(4))
        np.testing.assert_array_equal(new.C, state.C)


class TestUpdateCovariance:
    def test_no_learning_keeps_covariance(self):
        p = replace(default_params(4), c_1=0.0, c_mu=0.0)
        state = initial_covariance_state(4)
        Y_sel = selected_from(np.eye(4), [1.0, 2.0, 3.0, 4.0], p.mu)
        new = update_covariance(state, Y_sel, p.weights, p)
        np.testing.assert_array_equal(new.C, state.C)

    def test_single_dyad(self):
        p = default_params(2, lam=2)  # mu = 1, weights [1]
        state = initial_covariance_state(2)
        Y_sel = selected_from([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0], p.mu)
        new = update_covariance(state, Y_sel, p.weights, p)
        expected = (1.0 - p.c_1 - p.c_mu) * np.eye(2)
        expected[0, 0] += p.c_mu
        np.testing.assert_allclose(new.C, expected, rtol=1e-14)

    def test_rank_one_rate_example(self):
        mu_cov = 1.4597898888525862
        p = default_params(10, lam=4)  # mu = 2, so mu_cov = mu_w = 1.4597...
        assert p.mu_cov == pytest.approx(mu_cov, rel=1e-14)
        assert p.c_1 == pytest.approx(2.0 / ((10 + 1.3) ** 2 + mu_cov), rel=1e-14)
        assert p.c_1 == pytest.approx(0.015485894338048995, rel=1e-12)

    def test_trace_identity(self):
        # trace(C') = (1-c1-cmu) trace(C) + c1 |p_c|^2 + cmu sum w_i |y_i|^2
        rng = np.random.default_rng(17)
        p = default_params(6)
        a = rng.standard_normal((6, 6))
        state = initial_covariance_state(6)
        state = type(state)(C=a @ a.T + np.eye(6), p_c=rng.standard_normal(6))
        ys = rng.standard_normal((p.lam, 6))
        f = rng.standard_normal(p.lam)
        new = update_covariance(state, selected_from(ys, f, p.mu), p.weights, p)
        selected = ys[np.argsort(f, kind="stable")[: p.mu]]
        oracle = (
            (1.0 - p.c_1 - p.c_mu) * np.trace(state.C)
            + p.c_1 * np.sum(state.p_c**2)
            + p.c_mu * float(p.weights @ np.sum(selected**2, axis=1))
        )
        assert np.trace(new.C) == pytest.approx(oracle, rel=1e-10)

    def test_symmetric_output(self):
        rng = np.random.default_rng(3)
        p = default_params(5)
        state = initial_covariance_state(5)
        for _ in range(50):
            Y_sel = selected_from(rng.standard_normal((p.lam, 5)), rng.standard_normal(p.lam), p.mu)
            state = update_path(state, rng.standard_normal(5), 1, p)
            state = update_covariance(state, Y_sel, p.weights, p)
            np.testing.assert_array_equal(state.C, state.C.T)

    def test_random_selection_keeps_identity_shape(self):
        # y ~ N(0, I) with random ranking: the time-averaged C estimates E[C] = a I
        rng = np.random.default_rng(23)
        p = default_params(5)
        state = initial_covariance_state(5)
        generations = 10_000
        c_sum = np.zeros((5, 5))
        for _ in range(generations):
            ys = rng.standard_normal((p.lam, 5))
            f = rng.permutation(p.lam).astype(float)
            Y_sel = selected_from(ys, f, p.mu)
            step = p.weights @ ys[np.argsort(f, kind="stable")[: p.mu]]
            state = update_path(state, step, 1, p)
            state = update_covariance(state, Y_sel, p.weights, p)
            c_sum += state.C
        c_mean = c_sum / generations
        mask = ~np.eye(5, dtype=bool)
        assert np.abs(c_mean[mask]).mean() < 5.0 / math.sqrt(generations)
        assert np.diag(c_mean).mean() == pytest.approx(1.0, abs=0.2)

    def test_path_sign_destroyed_without_cumulation(self):
        # with c_c = 1 and p_c = 0 the update cannot distinguish +step from -step
        p = replace(default_params(4), c_c=1.0)
        state = initial_covariance_state(4)
        ys = np.random.default_rng(9).standard_normal((p.lam, 4))
        f = np.arange(p.lam, dtype=float)
        step = p.weights @ ys[: p.mu]

        def final_C(step_vec, Y_sel):
            st = update_path(state, step_vec, 1, p)
            return update_covariance(st, Y_sel, p.weights, p).C

        positive = final_C(step, selected_from(ys, f, p.mu))
        negative = final_C(-step, selected_from(-ys, f, p.mu))
        np.testing.assert_allclose(negative, positive, rtol=1e-14)
