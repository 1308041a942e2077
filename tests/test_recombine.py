import numpy as np

from tpcma.recombine import rank, update_mean, weighted_mean_step


def selected(ys, fitnesses, mu):
    """The mu best steps, best first, as the engine selects them."""
    return np.asarray(ys, float)[rank(fitnesses)[:mu]]


class TestRank:
    def test_basic_order(self):
        assert rank([3.0, 1.0, 2.0]).tolist() == [1, 2, 0]

    def test_ties_keep_sampling_order(self):
        assert rank([5.0, 5.0, 5.0]).tolist() == [0, 1, 2]

    def test_infeasible_ranks_last(self):
        order = rank([1.0, np.inf, 0.0])
        assert order.tolist() == [2, 0, 1]

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(12)
        base = rank(f)
        for transform in (np.exp, lambda v: 3.0 * v + 7.0, lambda v: v**3):
            other = rank(transform(f))
            assert other.tolist() == base.tolist()


class TestWeightedMeanStep:
    def test_single_parent(self):
        Y_sel = selected([[1.0, 0.0], [0.0, 2.0]], [4.0, 1.0], 1)
        step = weighted_mean_step(Y_sel, np.array([1.0]))
        np.testing.assert_array_equal(step, [0.0, 2.0])

    def test_two_parent_combination(self):
        Y_sel = selected([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0], 2)
        step = weighted_mean_step(Y_sel, np.array([0.8, 0.2]))
        np.testing.assert_allclose(step, [0.8, 0.2], rtol=1e-15)

    def test_equal_weights_match_plain_average(self):
        rng = np.random.default_rng(8)
        ys = rng.standard_normal((10, 4))
        f = rng.standard_normal(10)
        mu = 4
        step = weighted_mean_step(selected(ys, f, mu), np.full(mu, 1.0 / mu))
        best = ys[np.argsort(f, kind="stable")[:mu]]
        np.testing.assert_allclose(step, best.mean(axis=0), rtol=1e-12)


class TestUpdateMean:
    def test_zero_mean(self):
        v = np.array([0.3, -0.7])
        np.testing.assert_array_equal(update_mean(np.zeros(2), 1.0, v), v)

    def test_scaled_shift(self):
        m = update_mean(np.array([1.0, 1.0]), 2.0, np.array([0.5, -0.5]))
        np.testing.assert_array_equal(m, [2.0, 0.0])

    def test_matches_weighted_candidate_mean(self):
        # the mean update in y-space equals recombining the x_k directly
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, lam, mu = 5, 9, 4
            m0 = rng.standard_normal(n)
            sigma = float(rng.uniform(0.1, 3.0))
            ys = rng.standard_normal((lam, n))
            xs = m0 + sigma * ys
            f = rng.standard_normal(lam)
            w = np.array([0.4, 0.3, 0.2, 0.1])
            m_new = update_mean(m0, sigma, weighted_mean_step(selected(ys, f, mu), w))
            oracle = w @ xs[np.argsort(f, kind="stable")[:mu]]
            np.testing.assert_allclose(m_new, oracle, rtol=1e-12, atol=1e-14)
