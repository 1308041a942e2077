import math
import tracemalloc

import numpy as np
import pytest

from tpcma import covariance
from tpcma.covariance import stall_indicator, update_covariance, update_path
from tpcma.params import default_params
from tpcma.recombine import rank

DEFAULTS = default_params(10)
# the largest n whose decayed C is added in one block
SINGLE_BLOCK = math.isqrt(covariance._BLOCK_ENTRIES)


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


class TestUpdatePath:
    def test_zero_path_accumulates_step(self):
        p = default_params(10, lam=2)  # mu_w = 1, c_c = 4/14
        step = np.r_[1.0, np.zeros(9)]
        p_c = update_path(np.zeros(10), step, 1, p)
        coeff = math.sqrt(p.c_c * (2.0 - p.c_c) * p.mu_w)
        assert coeff == pytest.approx(0.6998542122237652, rel=1e-12)
        np.testing.assert_allclose(p_c, coeff * step, rtol=1e-14)

    def test_stall_branch_is_pure_decay(self):
        p = default_params(3)
        p_c = update_path(np.zeros(3), np.ones(3), 1, p)
        decayed = update_path(p_c, np.full(3, 9.9), 0, p)
        np.testing.assert_allclose(decayed, (1.0 - p.c_c) * p_c, rtol=1e-15)

    def test_inputs_not_written(self):
        rng = np.random.default_rng(8)
        p_c, step = rng.standard_normal(4), rng.standard_normal(4)
        p_c_before, step_before = p_c.copy(), step.copy()
        new = update_path(p_c, step, 1, default_params(4))
        assert new is not p_c
        np.testing.assert_array_equal(p_c, p_c_before)
        np.testing.assert_array_equal(step, step_before)


class TestUpdateCovariance:
    def test_single_dyad(self):
        p = default_params(2, lam=2)  # mu = 1, weights [1]
        Y_sel = selected_from([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0], p.mu)
        new = update_covariance(np.eye(2), np.zeros(2), Y_sel, p)
        expected = (1.0 - p.c_1 - p.c_mu) * np.eye(2)
        expected[0, 0] += p.c_mu
        np.testing.assert_allclose(new, expected, rtol=1e-14)

    def test_rank_one_rate_example(self):
        mu_w = 1.4597898888525862
        p = default_params(10, lam=4)  # mu = 2, so mu_w = 1.4597...
        assert p.mu_w == pytest.approx(mu_w, rel=1e-14)
        assert p.c_1 == pytest.approx(2.0 / ((10 + 1.3) ** 2 + mu_w), rel=1e-14)
        assert p.c_1 == pytest.approx(0.015485894338048995, rel=1e-12)

    def test_trace_identity(self):
        # trace(C') = (1-c1-cmu) trace(C) + c1 |p_c|^2 + cmu sum w_i |y_i|^2
        rng = np.random.default_rng(17)
        p = default_params(6)
        a = rng.standard_normal((6, 6))
        C, p_c = a @ a.T + np.eye(6), rng.standard_normal(6)
        ys = rng.standard_normal((p.lam, 6))
        f = rng.standard_normal(p.lam)
        new = update_covariance(C, p_c, selected_from(ys, f, p.mu), p)
        selected = ys[np.argsort(f, kind="stable")[: p.mu]]
        oracle = (
            (1.0 - p.c_1 - p.c_mu) * np.trace(C)
            + p.c_1 * np.sum(p_c**2)
            + p.c_mu * float(p.weights @ np.sum(selected**2, axis=1))
        )
        assert np.trace(new) == pytest.approx(oracle, rel=1e-10)

    @staticmethod
    def _inputs(n, lam, seed):
        rng = np.random.default_rng(seed)
        p = default_params(n, lam=lam)
        a = rng.standard_normal((n, n))
        C, p_c = a @ a.T, rng.standard_normal(n)
        return p, C, p_c, rng.standard_normal((p.mu, n))

    @staticmethod
    def _stacked_inputs(n, k, seed):
        p, C, _, _ = TestUpdateCovariance._inputs(n, None, seed)
        rng = np.random.default_rng(seed + 1)
        return p, C, rng.standard_normal((k, n)), rng.standard_normal((k, p.mu, n))

    @pytest.mark.parametrize("n", [1, 7, SINGLE_BLOCK - 1, SINGLE_BLOCK, SINGLE_BLOCK + 1, 300, 400])
    @pytest.mark.parametrize("lam", [None, 320])
    def test_equals_stacked_formula_exactly(self, n, lam):
        p, C, p_c, Y_sel = self._inputs(n, lam, 5)
        inputs_before = [x.copy() for x in (C, p_c, Y_sel)]
        new = update_covariance(C, p_c, Y_sel, p)
        V = np.vstack([math.sqrt(p.c_1) * p_c, np.sqrt(p.c_mu * p.weights)[:, None] * Y_sel])
        np.testing.assert_array_equal(new, V.T @ V + (1.0 - p.c_1 - p.c_mu) * C)
        for x, before in zip((C, p_c, Y_sel), inputs_before):  # no input is written
            np.testing.assert_array_equal(x, before)

    def test_allocates_only_the_result(self):
        # the decayed C is added in blocks, so no second n x n array is made, also
        # not when 19 generations at n=400 (lam 21) are folded before a refresh
        n = 400
        p, C, p_c, Y_sel = self._inputs(n, None, 3)
        _, _, folded_p_c, folded_Y_sel = self._stacked_inputs(n, 19, 3)
        folded_rows = folded_p_c.size + folded_Y_sel.size
        for p_c, Y_sel, rows in ((p_c, Y_sel, 0), (folded_p_c, folded_Y_sel, folded_rows)):
            update_covariance(C, p_c, Y_sel, p)  # warm-up
            tracemalloc.start()
            try:
                update_covariance(C, p_c, Y_sel, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 8 * n * n + 8 * rows  # plus the stacked rows

    @pytest.mark.parametrize("n", [7, 400])
    @pytest.mark.parametrize("k", [2, 5, 19])
    def test_stacked_generations_agree_with_sequential_updates(self, n, k):
        p, C, p_c, Y_sel = self._stacked_inputs(n, k, n + k)
        C = (C + C.T) / 2.0
        inputs_before = [x.copy() for x in (C, p_c, Y_sel)]
        folded = update_covariance(C, p_c, Y_sel, p)
        sequential = C
        for j in range(k):  # oldest first
            sequential = update_covariance(sequential, p_c[j], Y_sel[j], p)
        assert np.linalg.norm(folded - sequential) <= 1e-14 * np.linalg.norm(sequential)
        np.testing.assert_array_equal(folded, folded.T)
        for x, before in zip((C, p_c, Y_sel), inputs_before):
            np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("n,lam", [(2, None), (7, None), (10, 80), (100, None)])
    def test_agrees_with_three_term_formula(self, n, lam):
        p, C, p_c, Y_sel = self._inputs(n, lam, n)
        new = update_covariance(C, p_c, Y_sel, p)
        reference = (
            (1.0 - p.c_1 - p.c_mu) * C
            + p.c_1 * np.outer(p_c, p_c)
            + p.c_mu * (Y_sel * p.weights[:, None]).T @ Y_sel
        )
        assert np.linalg.norm(new - reference) <= 1e-14 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 400])
    @pytest.mark.parametrize("lam", [None, 320])  # 320: the widest rastrigin_restarts batch
    def test_exactly_symmetric_and_inputs_kept(self, n, lam):
        p, C, p_c, Y_sel = self._inputs(n, lam, 11)
        C = (C + C.T) / 2.0  # exactly symmetric, as the engine's C always is
        inputs_before = [x.copy() for x in (C, p_c, Y_sel)]
        new = update_covariance(C, p_c, Y_sel, p)
        assert new is not C
        np.testing.assert_array_equal(new, new.T)
        for x, before in zip((C, p_c, Y_sel), inputs_before):
            np.testing.assert_array_equal(x, before)

    def test_symmetric_output(self):
        rng = np.random.default_rng(3)
        p = default_params(5)
        C, p_c = np.eye(5), np.zeros(5)
        for _ in range(50):
            Y_sel = selected_from(rng.standard_normal((p.lam, 5)), rng.standard_normal(p.lam), p.mu)
            p_c = update_path(p_c, rng.standard_normal(5), 1, p)
            C = update_covariance(C, p_c, Y_sel, p)
            np.testing.assert_array_equal(C, C.T)

    def test_random_selection_keeps_identity_shape(self):
        # y ~ N(0, I) with random ranking: the time-averaged C estimates E[C] = a I
        rng = np.random.default_rng(23)
        p = default_params(5)
        C, p_c = np.eye(5), np.zeros(5)
        generations = 10_000
        c_sum = np.zeros((5, 5))
        for _ in range(generations):
            ys = rng.standard_normal((p.lam, 5))
            f = rng.permutation(p.lam).astype(float)
            Y_sel = selected_from(ys, f, p.mu)
            step = p.weights @ ys[np.argsort(f, kind="stable")[: p.mu]]
            p_c = update_path(p_c, step, 1, p)
            C = update_covariance(C, p_c, Y_sel, p)
            c_sum += C
        c_mean = c_sum / generations
        mask = ~np.eye(5, dtype=bool)
        assert np.abs(c_mean[mask]).mean() < 5.0 / math.sqrt(generations)
        assert np.diag(c_mean).mean() == pytest.approx(1.0, abs=0.2)

    def test_path_sign_destroyed_without_cumulation(self):
        # from p_c = 0 the update cannot distinguish +step from -step: the
        # rank-one term is p_c p_c^T
        p = default_params(4)
        ys = np.random.default_rng(9).standard_normal((p.lam, 4))
        f = np.arange(p.lam, dtype=float)
        step = p.weights @ ys[: p.mu]

        def final_C(step_vec, Y_sel):
            p_c = update_path(np.zeros(4), step_vec, 1, p)
            return update_covariance(np.eye(4), p_c, Y_sel, p)

        positive = final_C(step, selected_from(ys, f, p.mu))
        negative = final_C(-step, selected_from(-ys, f, p.mu))
        np.testing.assert_allclose(negative, positive, rtol=1e-14)
