import copy
import dataclasses
import math
import pickle
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tpcma import engine, sampler, stepsize
from tpcma.engine import CONTROLLERS, CmaEs, RunAborted, RunConfig, TerminationCriteria, run
from tpcma.objectives import ObjectiveSpec, evaluate_population
from tpcma.params import StrategyParams, default_params


def sphere_config(n, seed=0, **criteria):
    return RunConfig(
        objective=ObjectiveSpec("sphere", n),
        seed=seed,
        m0=3.0,
        sigma0=2.0,
        criteria=TerminationCriteria(**criteria),
    )


class TestStepAccounting:
    def test_tpa_generation_costs_lam_plus_two(self):
        params = default_params(2)  # lam = 6
        opt = CmaEs(params, np.array([1.0, 0.0]), 0.5, rng=np.random.default_rng(1))
        spec = ObjectiveSpec("sphere", 2)
        for _ in range(2):  # population round, then test-point round
            xs = opt.ask()
            opt.tell(evaluate_population(spec, np.asarray(xs)))
        assert opt.generation == 1
        assert opt.evals == params.lam + 2 == 8

    def test_csa_generation_costs_lam(self):
        params = replace(default_params(2), mode="csa")
        opt = CmaEs(params, np.array([1.0, 0.0]), 0.5, rng=np.random.default_rng(1))
        spec = ObjectiveSpec("sphere", 2)
        xs = opt.ask()
        opt.tell(evaluate_population(spec, np.asarray(xs)))
        assert opt.generation == 1
        assert opt.evals == params.lam == 6

    def test_budget_invariant_over_many_generations(self):
        config = sphere_config(3, max_evals=900)
        result = run(config)
        lam = default_params(3).lam
        assert result.evals == result.generations * (lam + 2)

        config = RunConfig(
            objective=ObjectiveSpec("sphere", 3),
            controller="csa",
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=900),
        )
        result = run(config)
        assert result.evals == result.generations * lam

    def test_no_step_size_change_freezes_sigma(self):
        params = replace(default_params(3), alpha_change=0.0)
        opt = CmaEs(params, np.zeros(3), 1.0, rng=np.random.default_rng(5))
        spec = ObjectiveSpec("sphere", 3)
        m_before = opt.m.copy()
        for _ in range(6):
            xs = opt.ask()
            opt.tell(evaluate_population(spec, np.asarray(xs)))
        assert opt.generation == 3
        assert opt.sigma == 1.0
        assert opt.alpha_s == 0.0
        assert not np.array_equal(opt.m, m_before)


class TestAskTellProtocol:
    def test_two_phase_shapes(self):
        params = default_params(4)
        opt = CmaEs(params, np.zeros(4), 1.0, rng=np.random.default_rng(0))
        first = opt.ask()
        assert len(first) == params.lam
        opt.tell([float(i) for i in range(params.lam)])
        second = opt.ask()
        assert len(second) == 2
        np.testing.assert_allclose((second[0] + second[1]) / 2.0, opt.m, rtol=1e-12, atol=1e-12)

    def test_out_of_order_calls_rejected(self):
        opt = CmaEs(default_params(2), np.zeros(2), 1.0, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            opt.tell([0.0] * 6)
        opt.ask()
        with pytest.raises(RuntimeError):
            opt.ask()

    @pytest.mark.parametrize(
        "fitness,message",
        [
            ([1.0, 2.0], r"shape \(6,\), got \(2,\)"),
            ([1.0] * 7, r"shape \(6,\), got \(7,\)"),
            ([], r"shape \(6,\), got \(0,\)"),
            (1.0, r"shape \(6,\), got \(\)"),
            # the right number of values in the wrong shape
            (np.zeros((6, 1)), r"shape \(6,\), got \(6, 1\)"),
            (np.zeros((1, 6)), r"shape \(6,\), got \(1, 6\)"),
        ],
        ids=["too-few", "too-many", "empty", "scalar", "column", "row"],
    )
    def test_wrong_fitness_count_rejected(self, fitness, message):
        opt = CmaEs(default_params(2), np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        with pytest.raises(ValueError, match=message):
            opt.tell(fitness)

    def test_too_many_infeasible_aborts_with_the_optimizer(self):
        params = default_params(2)  # lam 6, mu 3
        opt = CmaEs(params, np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        with pytest.raises(RunAborted) as exc_info:
            opt.tell([math.inf] * 4 + [1.0, 2.0])
        assert exc_info.value.optimizer is opt
        assert opt.generation == opt.evals == 0

    def test_aborted_run_carries_its_optimizer(self, monkeypatch):
        # from the fourth batch on every evaluation fails: the third
        # generation's population has no finite value to select
        spec = ObjectiveSpec("sphere", 2)  # lam 6
        batches = []

        def failing_from_the_fourth_batch(objective, X, rng=None):
            batches.append(len(X))
            f = evaluate_population(objective, X, rng)
            return f if len(batches) < 4 else np.full(len(X), math.inf)

        monkeypatch.setattr(engine.obj_mod, "evaluate_population", failing_from_the_fourth_batch)
        with pytest.raises(RunAborted, match="6 of 6 evaluations infeasible") as exc_info:
            run(sphere_config(2, seed=3))
        opt = exc_info.value.optimizer
        assert batches == [6, 2, 6, 2, 6]
        assert opt.generation == len(opt.trace) == 2
        assert opt.evals == opt.trace[-1].evals == 16
        assert opt.best_f == opt.trace[-1].best_f == evaluate_population(spec, opt.best_x[None])[0]
        assert opt.C.shape == (2, 2) and np.isfinite(opt.C).all()

    @pytest.mark.parametrize("controller", ["tpa_legacy", "csa"])
    def test_aborted_run_survives_a_pickle_round_trip(self, controller):
        # as a RunAborted crosses a process pool
        config = replace(sphere_config(3), controller=controller)
        opt = CmaEs(config.build_params(), config.m0, config.sigma0,
                    rng=np.random.default_rng(0))
        while opt.generation < 3:
            opt.tell(evaluate_population(config.objective, opt.ask()))
        opt.ask()
        with pytest.raises(RunAborted, match="7 of 7 evaluations infeasible") as exc_info:
            opt.tell([math.inf] * opt.params.lam)
        copied = pickle.loads(pickle.dumps(exc_info.value))
        assert type(copied) is RunAborted
        assert str(copied) == str(exc_info.value)
        assert copied.optimizer is not opt
        assert copied.optimizer.params.mode == opt.params.mode == controller
        assert copied.optimizer.generation == opt.generation == 3
        assert copied.optimizer.m.tobytes() == opt.m.tobytes()

    def test_minus_infinite_fitness_is_not_infeasible(self):
        params = default_params(4)  # lam 8, mu 4
        opt = CmaEs(params, np.zeros(4), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        opt.tell([-math.inf] * params.lam)
        assert opt.best_f == -math.inf
        assert opt.evals == params.lam

    def test_rejected_test_point_tell_changes_nothing(self):
        # n=3: lam = 7, so one generation costs 9 evaluations
        spec = ObjectiveSpec("sphere", 3)
        opt = CmaEs(default_params(3), np.zeros(3), 1.0, rng=np.random.default_rng(4))
        opt.tell(evaluate_population(spec, opt.ask()))
        points = opt.ask()
        with pytest.raises(ValueError, match="NaN"):
            opt.tell([math.nan, 1.0])
        assert opt.evals == 7
        with pytest.raises(RuntimeError):
            opt.ask()  # the ask is still pending
        opt.tell(evaluate_population(spec, points))
        assert opt.generation == 1
        assert opt.evals == 9

    @pytest.mark.parametrize(
        "bad", [[1.0] * 6, [1.0] * 6 + [math.nan]], ids=["wrong_length", "nan"]
    )
    def test_rejected_population_tell_keeps_the_sample(self, bad):
        # a rejected tell must not discard the population: resampling would
        # consume random state and silently fork the seeded trajectory
        spec = ObjectiveSpec("sphere", 3)
        opt, ref = (
            CmaEs(default_params(3), np.zeros(3), 1.0, rng=np.random.default_rng(4))
            for _ in range(2)
        )
        X = opt.ask()
        np.testing.assert_array_equal(X, ref.ask())
        with pytest.raises(ValueError):
            opt.tell(bad)
        assert opt.evals == 0
        f = evaluate_population(spec, X)
        opt.tell(f)
        ref.tell(f)
        np.testing.assert_array_equal(opt.ask(), ref.ask())
        assert opt.evals == ref.evals == 7

    @pytest.mark.parametrize("mode", ["tpa", "tpa_legacy", "csa"])
    @pytest.mark.parametrize("infeasible", [2, 5], ids=["selectable", "too-many-inf"])
    @pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
    def test_nan_beside_infinities_is_rejected_in_the_population_round(
        self, mode, infeasible, where
    ):
        # NaN is judged on the ranked order, where it ranks after +inf, and
        # before the +inf count: 5 of 7 infeasible alone would abort the run
        spec = ObjectiveSpec("sphere", 3)  # lam 7, mu 3
        opt = CmaEs(replace(default_params(3), mode=mode), np.zeros(3), 1.0,
                    rng=np.random.default_rng(4))
        X = opt.ask()
        others = [-math.inf] + [math.inf] * infeasible + [1.0, 2.0, 0.5][: 5 - infeasible]
        bad = others[:where] + [math.nan] + others[where:]
        with pytest.raises(ValueError, match="^NaN fitness; map failed evaluations to"):
            opt.tell(bad)
        assert (opt.evals, opt.generation, opt.best_f) == (0, 0, math.inf)
        with pytest.raises(RuntimeError, match="twice"):
            opt.ask()  # the ask is still pending
        opt.tell(evaluate_population(spec, X))
        assert opt.evals == 7

    @pytest.mark.parametrize("mode", ["tpa", "tpa_legacy"])
    @pytest.mark.parametrize(
        "bad",
        [[math.nan, math.inf], [math.inf, math.nan], [math.nan, -math.inf],
         [-math.inf, math.nan], [math.nan, math.nan]],
        ids=["first+inf", "last+inf", "first-inf", "last-inf", "both"],
    )
    def test_nan_beside_infinities_is_rejected_in_the_test_point_round(self, mode, bad):
        spec = ObjectiveSpec("sphere", 3)  # lam 7
        opt = CmaEs(replace(default_params(3), mode=mode), np.zeros(3), 1.0,
                    rng=np.random.default_rng(4))
        opt.tell(evaluate_population(spec, opt.ask()))
        points = opt.ask()
        before = (opt.sigma, opt.alpha_s, opt.best_f, opt.m.tobytes(), opt.p_c.tobytes())
        with pytest.raises(ValueError, match="^NaN fitness; map failed evaluations to"):
            opt.tell(bad)
        assert (opt.evals, opt.generation) == (7, 0)
        assert (opt.sigma, opt.alpha_s, opt.best_f, opt.m.tobytes(), opt.p_c.tobytes()) == before
        with pytest.raises(RuntimeError, match="twice"):
            opt.ask()  # the ask is still pending
        opt.tell(evaluate_population(spec, points))
        assert (opt.evals, opt.generation) == (9, 1)

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    @pytest.mark.parametrize("n", [2, 3, 10])  # (lam, mu): (6, 3), (7, 3), (10, 5)
    def test_selection_runs_on_with_mu_feasible_values_and_aborts_below(self, mode, n):
        params = replace(default_params(n), mode=mode)
        lam, mu = params.lam, params.mu
        rng = np.random.default_rng(n)
        for k in range(lam - mu, lam + 1):
            opt = CmaEs(params, np.zeros(n), 1.0, rng=np.random.default_rng(0))
            opt.ask()
            fitness = rng.permutation(np.r_[-math.inf, np.arange(1.0, lam)])
            fitness[rng.permutation(lam)[:k]] = math.inf  # -inf is feasible
            if k == lam - mu:
                opt.tell(fitness)
                assert opt.evals == lam
                continue
            message = (f"^{k} of {lam} evaluations infeasible; "
                       f"selection needs at least {mu} finite values$")
            with pytest.raises(RunAborted, match=message) as exc_info:
                opt.tell(fitness)
            assert exc_info.value.optimizer is opt
            assert (opt.evals, opt.generation) == (0, 0)

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    def test_both_modes_sample_from_the_cholesky_factor(self, mode):
        params = replace(default_params(3), mode=mode)
        opt = CmaEs(params, np.zeros(3), 1.0, rng=np.random.default_rng(2))
        spec = ObjectiveSpec("sphere", 3)
        for _ in range(10):
            xs = opt.ask()
            opt.tell(evaluate_population(spec, np.asarray(xs)))
            if mode == "tpa":
                opt.tell(evaluate_population(spec, opt.ask()))
            assert not opt._factor.repaired
            np.testing.assert_array_equal(np.tril(opt._factor.transform), opt._factor.transform)


class TestFactorRefresh:
    """The optimizer starts with the factor of C = I and decomposes C once
    every max(1, n // lam) generations after that, about once per n
    offspring."""

    @staticmethod
    def _run(monkeypatch, params, mode, generations):
        n = params.n
        opt = CmaEs(replace(params, mode=mode), np.zeros(n), 1.0, rng=np.random.default_rng(3))
        # factors: the initial one, then one per refresh
        refreshed_at, factors, sampled_with, whitened = [], [opt._factor], [], []
        decompose, sample, csa_update = (
            sampler.decompose, sampler.sample_population, stepsize.csa_update
        )

        def counting_decompose(C):
            refreshed_at.append(opt.generation)
            factors.append(decompose(C))
            return factors[-1]

        def recording_sample(m, sigma, factor, lam, rng):
            sampled_with.append(factor)
            return sample(m, sigma, factor, lam, rng)

        def recording_csa_update(p_sigma, mean_z, params):
            # the whitened step and the mean step it whitens
            whitened.append((mean_z, (opt.m - m_before[-1]) / sigma_before[-1]))
            return csa_update(p_sigma, mean_z, params)

        monkeypatch.setattr(sampler, "decompose", counting_decompose)
        monkeypatch.setattr(sampler, "sample_population", recording_sample)
        monkeypatch.setattr(stepsize, "csa_update", recording_csa_update)
        spec = ObjectiveSpec("ellipsoid", n)
        m_before, sigma_before = [], []
        while opt.generation < generations:
            m_before.append(opt.m)
            sigma_before.append(opt.sigma)
            opt.tell(evaluate_population(spec, opt.ask()))
        return opt, refreshed_at, factors, sampled_with, whitened

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    def test_every_generation_at_n10(self, monkeypatch, mode):
        _, refreshed_at, *_ = self._run(monkeypatch, default_params(10), mode, 12)
        assert refreshed_at == list(range(1, 12))

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    @pytest.mark.parametrize("n, gap", [(19, 1), (20, 2)])
    def test_gap_starts_at_twice_lam(self, monkeypatch, mode, n, gap):
        _, refreshed_at, *_ = self._run(monkeypatch, default_params(n, lam=10), mode, 6)
        assert refreshed_at == list(range(gap, 6, gap))

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    def test_every_tenth_generation_at_n200(self, monkeypatch, mode):
        params = default_params(200)
        assert params.lam == 19
        opt, refreshed_at, factors, sampled_with, whitened = self._run(
            monkeypatch, params, mode, 25
        )
        assert refreshed_at == [10, 20]
        # generations 0-9 sample from the initial factor, factors[0]
        assert all(sampled_with[g] is factors[g // 10] for g in range(25))
        # the trace and csa's whitening read the factor that sampled the generation
        assert [row.axis_ratio for row in opt.trace] == [f.axis_ratio for f in sampled_with]
        if mode == "csa":
            assert len(whitened) == 25
            for (mean_z, mean_step), factor in zip(whitened, sampled_with):
                np.testing.assert_allclose(factor.transform @ mean_z, mean_step, rtol=1e-9,
                                           atol=1e-12 * np.abs(mean_step).max())

    @pytest.mark.parametrize("n", [1, 2, 10, 400])
    def test_the_initial_factor_is_that_of_the_identity(self, monkeypatch, n):
        expected = sampler.decompose(np.eye(n))
        opt = CmaEs(default_params(n), np.zeros(n), 1.0, rng=np.random.default_rng(n))
        factor = opt._factor

        def no_decompose(C):
            raise AssertionError("generation 0 decomposed C")

        monkeypatch.setattr(sampler, "decompose", no_decompose)
        spec = ObjectiveSpec("ellipsoid", n)
        opt.tell(evaluate_population(spec, opt.ask()))
        opt.tell(evaluate_population(spec, opt.ask()))  # the test points
        assert opt.generation == 1
        for name in ("transform", "scales"):
            got, want = getattr(factor, name), getattr(expected, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                            want.tobytes())
        assert factor.repaired is expected.repaired is False
        assert factor.axis_ratio == expected.axis_ratio
        assert opt.trace[0].axis_ratio == expected.axis_ratio
        assert opt.trace[0].trace_C == float((expected.scales**2).sum())
        assert factor.trace == expected.trace == opt.trace[0].trace_C == float(n)

    def test_each_restart_segment_starts_factored(self, monkeypatch):
        calls = []
        decompose = sampler.decompose
        monkeypatch.setattr(sampler, "decompose", lambda C: calls.append(1) or decompose(C))
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 5),  # gap 1 at every lam
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=3000, target_f=1e-8, tol_fun=1e-10),
            max_restarts=3,
        )
        result = run(config)
        assert len(result.segments) > 1
        assert len(calls) == result.generations - len(result.segments)


class TestDeferredCovariance:
    """A generation keeps only its p_c and selected steps; they are folded
    into C once per gap, before the refresh reads it."""

    @staticmethod
    def _optimizer(n, controller):
        config = RunConfig(objective=ObjectiveSpec("ellipsoid", n), controller=controller)
        return CmaEs(config.build_params(), np.full(n, 3.0), 2.0, rng=np.random.default_rng(n))

    @staticmethod
    def _advance(opt, generations, read_C=False):
        spec, end = ObjectiveSpec("ellipsoid", opt.params.n), opt.generation + generations
        while opt.generation < end:
            opt.tell(evaluate_population(spec, opt.ask()))
            if read_C:
                _ = opt.C  # formed from the kept generations

    @pytest.mark.parametrize("controller", ["tpa", "csa"])
    def test_reading_C_leaves_the_trajectory_bit_identical(self, controller):
        # n=400, lam 21: folds at generations 19 and 38, and reads between them
        read, unread = self._optimizer(400, controller), self._optimizer(400, controller)
        self._advance(read, 40, read_C=True)
        self._advance(unread, 40)
        assert np.array(read.trace).tobytes() == np.array(unread.trace).tobytes()
        assert read.C.tobytes() == unread.C.tobytes()
        assert read.m.tobytes() == unread.m.tobytes()

    @pytest.mark.parametrize("n", [10, 100])  # a fold every generation, every 5th
    def test_C_is_read_only(self, n):
        opt = self._optimizer(n, "tpa")
        for generations in (0, 1, 1):  # at generation 0, 1 and 2
            self._advance(opt, generations)
            with pytest.raises(ValueError, match="read-only"):
                opt.C[0, 0] = 5.0

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("controller", ["tpa", "csa"])
    def test_tol_x_reads_the_diagonal_of_the_kept_generations(self, controller, n):
        opt = self._optimizer(n, controller)
        for _ in range(7):  # at n=100: 1 to 4 generations kept, none at 5, then 1 and 2 again
            self._advance(opt, 1)
            threshold = opt.sigma * math.sqrt(np.max(np.diag(opt.C)))
            opt.criteria = TerminationCriteria(tol_x=threshold * (1.0 + 1e-12))
            assert opt.should_stop() == "tol_x"
            opt.criteria = TerminationCriteria(tol_x=threshold * (1.0 - 1e-12))
            assert opt.should_stop() is None

    @pytest.mark.parametrize("n", [10, 400])  # a fold every generation, every 19th
    def test_a_non_finite_C_aborts_at_the_next_fold(self, monkeypatch, n):
        opt = self._optimizer(n, "tpa")
        spec = ObjectiveSpec("ellipsoid", n)
        self._advance(opt, 1)
        update_covariance = engine.cov_mod.update_covariance

        def non_finite_update(*args):
            C = update_covariance(*args)
            C[0, 0] = math.inf
            return C

        monkeypatch.setattr(engine.cov_mod, "update_covariance", non_finite_update)
        with pytest.raises(RunAborted, match="covariance matrix became non-finite") as exc:
            while opt.generation < 30:
                points = opt.ask()  # the refresh folds, judges and factors C
                opt.tell(evaluate_population(spec, points))
        assert exc.traceback[-1].name == "ask"
        assert exc.value.optimizer is opt
        assert not np.isfinite(exc.value.optimizer.C).all()  # the judged C stays readable
        with pytest.raises(RunAborted, match="covariance matrix became non-finite"):
            opt.ask()  # the optimizer does not go on with the last factor
        assert opt.generation % opt._refresh_gap == 0
        assert opt.generation == (1 if n == 10 else 19)
        assert len(opt.trace) == opt.generation


@pytest.mark.parametrize("controller", ["tpa", "csa"])
def test_best_f_is_a_python_float(controller):
    config = RunConfig(
        objective=ObjectiveSpec("sphere", 4),
        controller=controller,
        m0=3.0,
        sigma0=2.0,
        criteria=TerminationCriteria(max_evals=500),
    )
    result = run(config)
    assert type(result.best_f) is float
    assert all(type(row.best_f) is float for row in result.trace)
    assert all(type(seg.best_f) is float for seg in result.segments)


@pytest.mark.parametrize("restarts", [0, 2])
@pytest.mark.parametrize("controller", ["tpa", "tpa_noise", "tpa_legacy", "csa"])
def test_trace_rows_hold_python_numbers(controller, restarts):
    # the CSV writer formats rows with %r, which would print np.float64(...)
    config = RunConfig(
        objective=ObjectiveSpec("rastrigin", 3),
        controller=controller,
        m0=3.0,
        sigma0=2.0,
        criteria=TerminationCriteria(max_evals=3000, target_f=-1.0, tol_fun=1e-8),
        max_restarts=restarts,
    )
    result = run(config)
    assert (len(result.segments) > 1) == (restarts > 0)  # rows were stitched
    for row in result.trace:
        assert [type(value) for value in row] == [int, int] + [float] * 5


class TestEngineOutput:
    """The layer functions take the engine's state as given, unchecked, so
    that state must stay valid after every generation, also under stress."""

    @pytest.mark.parametrize("n", [2, 10, 100, 400])
    @pytest.mark.parametrize("controller", ["tpa", "tpa_noise", "tpa_legacy", "csa"])
    def test_state_valid_after_every_generation(self, controller, n):
        config = RunConfig(objective=ObjectiveSpec("ellipsoid", n), controller=controller)
        params = config.build_params()
        interval = 1.0 / (10.0 * n * (params.c_1 + params.c_mu))
        if n == 100:  # the factor is reused for a second generation
            assert 1.0 < interval < 2.0
        if n == 400:  # and up to a fourth, beside the covariance update at full size
            assert 3.0 < interval < 4.0
        opt = CmaEs(params, np.full(n, 3.0), 2.0, rng=np.random.default_rng(n))
        while opt.generation < (10 if n == 400 else 30):  # checked after every round
            opt.tell(evaluate_population(config.objective, opt.ask()))
            assert np.array_equal(opt.C, opt.C.T)
            assert np.isfinite(opt.C).all()
            assert math.isfinite(opt.sigma) and opt.sigma > 0.0
            assert np.isfinite(opt.m).all()

    STRESS = [
        (condition, 1e12, sigma0, 3000)
        for condition in (1e10, 1e14, 1e18)
        for sigma0 in (1e-12, 1e12)
    ] + [(1e18, 3.0, 2.0, 20_000)]  # reaches the eigenvalue floor's 1e7 axis ratio

    @pytest.mark.parametrize("controller", ["tpa", "tpa_legacy", "csa"])
    @pytest.mark.parametrize("condition,m0,sigma0,budget", STRESS)
    def test_ill_conditioned_runs_end_cleanly(self, controller, condition, m0, sigma0, budget):
        config = RunConfig(
            objective=ObjectiveSpec("ellipsoid", 10, condition=condition),
            controller=controller,
            m0=m0,
            sigma0=sigma0,
            criteria=TerminationCriteria(max_evals=budget),
        )
        try:
            result = run(config)
        except RunAborted as exc:
            assert isinstance(exc.optimizer, CmaEs)
            return
        assert result.termination == "max_evals"
        columns = np.array(result.trace, dtype=float)
        if budget == 20_000:
            assert max(row.axis_ratio for row in result.trace) > 0.99e7
        if controller == "csa":  # alpha_s is NaN by design
            columns = np.delete(columns, engine.RunRecord._fields.index("alpha_s"), axis=1)
        assert np.isfinite(columns).all()

    @pytest.mark.parametrize("objective,controller",
                             [("sphere", "tpa"), ("ellipsoid", "tpa_legacy")])
    def test_an_error_leaves_no_generation_without_its_row(self, objective, controller):
        # C underflows to subnormals by generation 5000 or so, and the factor's
        # axis ratio divides by a zero scale; the warning, turned error, must
        # escape before a generation starts, not after it was counted
        config = RunConfig(objective=ObjectiveSpec(objective, 2), controller=controller, m0=3.0,
                           sigma0=2.0, criteria=TerminationCriteria(max_evals=60_000))
        rng = np.random.default_rng(config.seed)
        opt = CmaEs(config.build_params(), config.m0, config.sigma0,
                    criteria=config.criteria, rng=rng)
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="divide by zero"):
            warnings.simplefilter("error")
            while opt.should_stop() is None:
                opt.tell(evaluate_population(config.objective, opt.ask(), rng))
        assert len(opt.trace) == opt.generation

    def test_two_point_factor_falls_back_to_eigh_on_a_random_fitness(self, monkeypatch):
        # c4's run shape: with fitness independent of x, C drifts to a ratio
        # Cholesky cannot factor, and the floored eigendecomposition stands in
        params = default_params(2)
        opt = CmaEs(params, np.zeros(2), 1.0, rng=np.random.default_rng(1))
        spec = ObjectiveSpec("random_fitness", 2)
        decompose, factors = sampler.decompose, []

        def recording_decompose(C):
            factors.append(decompose(C))
            return factors[-1]

        monkeypatch.setattr(sampler, "decompose", recording_decompose)
        while opt.generation < 2000:
            opt.tell(evaluate_population(spec, opt.ask(), opt.rng))
        repaired = [f for f in factors if f.repaired]
        assert repaired
        for f in factors:  # a Cholesky factor is lower triangular, a repaired one is not
            assert np.array_equal(np.tril(f.transform), f.transform) != f.repaired
        assert np.isfinite(np.array(opt.trace, dtype=float)).all()


class TestCriteriaValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_evals", -1),
            ("max_evals", math.nan),
            ("max_evals", math.inf),
            ("max_evals", 2.5),
            ("max_evals", True),
            ("target_f", math.nan),
            ("target_f", math.inf),
            ("tol_x", -1.0),
            ("tol_x", math.nan),
            ("tol_x", math.inf),
            ("tol_fun", -1.0),
            ("tol_fun", math.nan),
            ("tol_fun", math.inf),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TerminationCriteria(**{field: value})

    @pytest.mark.parametrize(
        "field, value, bound",
        [("target_f", None, "finite or -inf"), ("tol_x", "x", ">= 0 and finite"),
         ("tol_fun", "x", ">= 0 and finite")],
    )
    def test_a_non_number_is_listed_beside_the_others(self, field, value, bound):
        # these used to raise a bare TypeError from the bound's comparison
        with pytest.raises(ValueError) as info:
            TerminationCriteria(max_evals=-1, **{field: value})
        assert str(info.value) == (
            f"max_evals must be an integer >= 0, got -1; {field} must be {bound}, got {value!r}")

    def test_names_every_bad_field(self):
        with pytest.raises(ValueError) as info:
            TerminationCriteria(max_evals=-5, tol_x=-1.0)
        assert "max_evals" in str(info.value) and "tol_x" in str(info.value)

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(TerminationCriteria)]
        assert names == ["max_evals", "target_f", "tol_x", "tol_fun"]


class TestTermination:
    def test_zero_budget_stops_immediately(self):
        result = run(sphere_config(4, max_evals=0))
        assert result.termination == "max_evals"
        assert result.evals == 0
        assert result.generations == 0

    def test_tiny_sigma_with_tol_x_stops_immediately(self):
        config = RunConfig(
            objective=ObjectiveSpec("sphere", 4),
            m0=3.0,
            sigma0=1e-12,
            criteria=TerminationCriteria(max_evals=1000, tol_x=1e-6),
        )
        result = run(config)
        assert result.termination == "tol_x"
        assert result.evals == 0

    @pytest.mark.parametrize("controller", ["tpa", "tpa_noise", "tpa_legacy", "csa"])
    def test_default_criteria_run_the_whole_budget(self, controller):
        # target_f=-inf, tol_x=0 and tol_fun=0 stay off even where each would fire
        config = replace(sphere_config(4, max_evals=3000), controller=controller)
        result = run(config)
        assert result.termination == "max_evals"
        assert 3000 <= result.evals <= 3000 + config.build_params(config.lam).lam + 2
        assert result.best_f < 1e-12

    @pytest.mark.parametrize("controller", ["tpa", "tpa_legacy"])
    def test_a_reported_stop_fires_only_between_generations(self, controller):
        config = replace(sphere_config(3, max_evals=30), controller=controller)
        opt = CmaEs(config.build_params(), config.m0, config.sigma0,
                    criteria=config.criteria, rng=np.random.default_rng(0))
        spec = config.objective
        while opt.should_stop() is None:
            opt.tell(evaluate_population(spec, opt.ask()))
        assert opt.should_stop() == "max_evals"
        opt.tell(evaluate_population(spec, opt.ask()))  # a caller going on past the stop
        assert opt.should_stop() is None  # while the test round is pending
        opt.tell(evaluate_population(spec, opt.ask()))
        assert opt.should_stop() == "max_evals"

    def test_sphere_reaches_target(self):
        result = run(sphere_config(10, max_evals=100_000, target_f=1e-10))
        assert result.termination == "target_f"
        assert result.best_f < 1e-10
        assert result.evals < 10_000

    @pytest.mark.parametrize("controller", ["tpa", "tpa_noise", "tpa_legacy", "csa"])
    def test_sphere_reaches_target_with_a_reused_factor(self, controller):
        config = replace(sphere_config(60, max_evals=20_000, target_f=1e-9), controller=controller)
        params = config.build_params()
        assert params.n // params.lam == 3  # each factor samples three generations
        result = run(config)
        assert result.termination == "target_f"
        assert result.best_f < 1e-9

    def test_tol_fun_detects_stagnation(self):
        # a trapped rastrigin run freezes its best fitness
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 5),
            seed=3,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=50_000, target_f=1e-8, tol_fun=1e-12),
        )
        result = run(config)
        assert result.termination in ("tol_fun", "target_f")

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-3, 1.0])
    def test_tol_fun_stops_where_the_window_spans_less_than_it(self, mode, tol):
        # should_stop() takes the window's span only when its newest two are
        # within tol; each generation it must decide as max(w) - min(w) < tol
        # does, over seeded generation-bests with -inf, ties, near ties and
        # windows where only old entries differ
        params = replace(default_params(2), mode=mode)  # lam 6: a window of 20
        size = 10 + math.ceil(30 * 2 / params.lam)
        seen = {"fired": 0, "old_entries_differ": 0}
        for seed in range(30):
            rng = np.random.default_rng(seed)
            opt = CmaEs(params, np.zeros(2), 1.0, criteria=TerminationCriteria(tol_fun=tol),
                        rng=np.random.default_rng(seed))
            bests, level = [], 0.0
            for _ in range(3 * size):
                kind = rng.integers(10)
                if kind == 0:
                    level = float(rng.normal() * 10.0 ** rng.integers(-2, 3))
                best = (-math.inf if kind == 1 else level + tol * rng.uniform(-0.6, 0.6)
                        if kind < 4 else level)
                fitness = best + 1.0 + rng.random(params.lam)
                fitness[rng.integers(params.lam)] = best
                opt.ask()
                opt.tell(fitness)
                if mode != "csa":
                    opt.ask()
                    opt.tell([0.0, 1.0])
                bests.append(best)
                window = bests[-size:]
                stops = len(window) == size and max(window) - min(window) < tol
                assert (opt.should_stop() == "tol_fun") == stops, (seed, len(bests))
                seen["fired"] += stops
                seen["old_entries_differ"] += (
                    not stops and len(window) == size and abs(window[-1] - window[-2]) < tol
                )
        assert seen["fired"] and seen["old_entries_differ"]

    @pytest.mark.parametrize(
        "settings",
        [
            # sigma * exp(alpha_s) overflows after a few forced increases
            {"alpha_change": 1000.0},
            # the legacy mean is committed with the overflowed sigma
            {"alpha_change": 700.0, "c_alpha": 1.0, "mode": "tpa_legacy"},
            # exp(alpha_s) itself overflows on the first test-point tell
            {"alpha_change": 1000.0, "c_alpha": 1.0},
            {"alpha_change": 1000.0, "c_alpha": 1.0, "mode": "tpa_legacy"},
        ],
        ids=["sigma-overflow", "legacy-sigma-overflow", "exp-overflow", "legacy-exp-overflow"],
    )
    def test_nonfinite_sigma_aborts_with_the_optimizer(self, settings):
        params = replace(default_params(2), **settings)
        opt = CmaEs(params, np.zeros(2), 1.0, rng=np.random.default_rng(0))
        with pytest.raises(RunAborted, match="step-size became inf") as exc_info:
            for _ in range(4):
                opt.ask()
                opt.tell(list(range(params.lam)))  # population round
                opt.ask()
                opt.tell([0.0, 1.0])  # upward point wins: increase branch
        assert exc_info.value.optimizer is opt
        assert opt.sigma == math.inf
        assert len(opt.trace) == opt.generation  # the aborted generation is not counted

    # where the first overflow falls: the test points, a later sample, the first sample;
    # tpa_legacy's test points straddle the updated mean while opt.m stays the old one
    @pytest.mark.parametrize(
        "controller, seed",
        [("tpa", 21), ("tpa", 0), ("tpa", 2), ("tpa_legacy", 21)],
        ids=["21", "0", "2", "tpa_legacy-21"],
    )
    def test_mean_leaving_the_float_range_aborts_before_a_point_is_handed_out(
        self, controller, seed
    ):
        params = replace(default_params(2), **engine.CONTROLLERS[controller])
        opt = CmaEs(params, np.zeros(2), 1e308, rng=np.random.default_rng(seed))
        with warnings.catch_warnings(), pytest.raises(RunAborted, match="floating-point") as exc:
            warnings.simplefilter("error")
            for _ in range(10):
                assert np.isfinite(opt.ask()).all()
                opt.tell(list(range(params.lam)))
                assert np.isfinite(opt.ask()).all()
                opt.tell([1.0, 0.0])  # downward point wins
        assert exc.traceback[-1].name == "ask"
        assert exc.value.optimizer is opt
        assert len(opt.trace) == opt.generation
        if seed == 21:  # the overflow falls on generation 0's test points
            assert opt.generation == 0 and opt._test_round is not None
            m_new, _ = opt._test_round
            assert np.isfinite(m_new).all() and np.isfinite(opt.m).all()


class TestDeterminism:
    def test_equal_seed_equal_trace(self):
        a = run(sphere_config(5, seed=7, max_evals=2000))
        b = run(sphere_config(5, seed=7, max_evals=2000))
        assert a.best_f == b.best_f
        assert np.array_equal(a.best_x, b.best_x)
        assert a.trace == b.trace

    def test_different_seed_different_trace(self):
        a = run(sphere_config(5, seed=1, max_evals=2000))
        b = run(sphere_config(5, seed=2, max_evals=2000))
        assert a.trace != b.trace

    @pytest.mark.parametrize("mode", ["tpa", "csa"])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_ulp_in_C_moves_the_population_by_rounding_only(self, monkeypatch, mode, seed):
        # a factor whose basis follows the last bit of C (eigh's, for nearly
        # equal eigenvalues) would send the next population elsewhere
        spec = ObjectiveSpec("sphere", 10)
        update_covariance = engine.cov_mod.update_covariance
        populations = []
        for scale in (1.0, 1.0 + 2.2e-16):
            opt = CmaEs(replace(default_params(10), mode=mode), np.full(10, 3.0), 2.0,
                        rng=np.random.default_rng(seed))
            while opt.generation < 1:
                opt.tell(evaluate_population(spec, opt.ask()))
            # the next ask() folds generation 1 (gap 1 at n=10) and factors the scaled C
            monkeypatch.setattr(engine.cov_mod, "update_covariance",
                                lambda *args, scale=scale: update_covariance(*args) * scale)
            populations.append(opt.ask() - opt.m)
        assert not np.array_equal(*populations)
        moved = np.linalg.norm(populations[1] - populations[0])
        assert moved <= 1e-14 * np.linalg.norm(populations[0])


class TestInvariance:
    def test_translation_leaves_state_trajectory_identical(self):
        n, gens = 5, 40
        params = default_params(n)
        budget = gens * (params.lam + 2)
        shift = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        criteria = TerminationCriteria(max_evals=budget)

        def drive(m0, f):
            opt = CmaEs(params, m0, 0.5, criteria=criteria, rng=np.random.default_rng(11))
            while opt.should_stop() is None:
                xs = opt.ask()
                opt.tell([f(x) for x in xs])
            return opt

        base = drive(np.full(n, 0.5), lambda x: float(np.sum(x * x)))
        moved = drive(np.full(n, 0.5) + shift, lambda x: float(np.sum((x - shift) ** 2)))
        for r0, r1 in zip(base.trace, moved.trace):
            assert (r0.generation, r0.evals, r0.sigma, r0.alpha_s, r0.axis_ratio, r0.trace_C) == (
                r1.generation, r1.evals, r1.sigma, r1.alpha_s, r1.axis_ratio, r1.trace_C,
            )
        np.testing.assert_allclose(moved.m - shift, base.m, rtol=0, atol=1e-9)

    def test_monotone_transform_leaves_trajectory_identical(self):
        n, gens = 5, 40
        params = default_params(n)
        criteria = TerminationCriteria(max_evals=gens * (params.lam + 2))

        def drive(f):
            opt = CmaEs(params, np.full(n, 0.5), 0.5, criteria=criteria,
                        rng=np.random.default_rng(13))
            while opt.should_stop() is None:
                xs = opt.ask()
                opt.tell([f(x) for x in xs])
            return opt

        base = drive(lambda x: float(np.sum(x * x)))
        warped = drive(lambda x: float(np.exp(np.sum(x * x))))
        assert np.array_equal(base.m, warped.m)
        assert base.sigma == warped.sigma
        np.testing.assert_array_equal(base.C, warped.C)


class TestAnAbortIsFinal:
    """After any abort every ask() and tell() raises RunAborted with its message; each of
    these three used to leave an optimizer that ran on."""

    @staticmethod
    def assert_final(opt, message, state):
        for call in (opt.ask, lambda: opt.tell(np.ones(opt.params.lam)), lambda: opt.tell([1, 0])):
            with pytest.raises(RunAborted) as info:
                call()
            assert str(info.value) == message and info.value.optimizer is opt
        assert (opt.generation, opt.evals, len(opt.trace)) == state

    def test_after_a_population_without_mu_finite_values(self):
        opt = CmaEs(default_params(2), np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        message = "6 of 6 evaluations infeasible; selection needs at least 3 finite values"
        with pytest.raises(RunAborted, match=message):
            opt.tell([math.inf] * 6)
        self.assert_final(opt, message, (0, 0, 0))  # a second tell was accepted: evals 0 -> 6

    def test_after_a_point_leaves_the_float_range(self):
        opt = CmaEs(default_params(1), 1.7e308, 1e308, rng=np.random.default_rng(0))
        message = "a point to evaluate left the floating-point range"
        with pytest.raises(RunAborted, match=message):
            opt.ask()
        state = opt.rng.bit_generator.state
        self.assert_final(opt, message, (0, 0, 0))  # the third ask() handed out finite points
        assert opt.rng.bit_generator.state == state  # no call draws again

    def test_after_the_step_size_reaches_zero(self):
        params = replace(default_params(2), alpha_change=800.0, c_alpha=1.0)
        opt = CmaEs(params, np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        opt.tell(list(range(params.lam)))
        opt.ask()
        with pytest.raises(RunAborted, match="step-size became 0.0"):
            opt.tell([1.0, 0.0])  # the upward test point loses
        # the generation's evaluations and sigma are applied; its count and row are not
        assert opt.sigma == 0.0
        self.assert_final(opt, "step-size became 0.0", (0, 8, 0))  # ask() gave 6 points at m


class TestRestarts:
    def test_population_doubles_across_restarts(self):
        # stagnation on each segment forces the restart path
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 10),
            seed=0,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=200_000, target_f=-1.0, tol_fun=1e-12),
            max_restarts=2,
        )
        result = run(config)
        assert [seg.lam for seg in result.segments] == [10, 20, 40]
        assert result.termination == result.segments[-1].termination == "tol_fun"
        assert result.evals == sum(seg.evals for seg in result.segments)

    def test_unused_restart_allowance_changes_nothing(self):
        # the first segment reaches the target, so no restart is made
        config = sphere_config(4, seed=5, max_evals=3000, target_f=1e-9)
        plain, allowed = run(config), run(replace(config, max_restarts=3))
        assert plain.termination == "target_f" and len(plain.segments) == 1
        assert allowed.trace == plain.trace
        assert allowed.segments == plain.segments
        np.testing.assert_array_equal(allowed.best_x, plain.best_x)
        assert (allowed.best_f, allowed.termination, allowed.evals, allowed.generations) == (
            plain.best_f, plain.termination, plain.evals, plain.generations)

    @pytest.mark.parametrize("controller", ["tpa", "csa"])
    @pytest.mark.parametrize("max_restarts", [0, 3])
    def test_run_totals_are_the_segments(self, monkeypatch, controller, max_restarts):
        optimizers = []

        class Recorded(CmaEs):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(engine, "CmaEs", Recorded)
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 5),
            controller=controller,
            seed=1,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=40_000, target_f=-1.0, tol_fun=1e-10),
            max_restarts=max_restarts,
        )
        result = run(config)
        segments = result.segments
        assert len(optimizers) == len(segments) == (4 if max_restarts else 1)
        assert result.generations == len(result.trace) == sum(s.generations for s in segments)
        assert [row.generation for row in result.trace] == list(range(1, result.generations + 1))
        assert result.evals == sum(s.evals for s in segments)
        assert result.termination == segments[-1].termination
        best = min(range(len(segments)), key=lambda k: segments[k].best_f)  # the earliest on a tie
        assert result.best_f == segments[best].best_f == optimizers[best].best_f
        np.testing.assert_array_equal(result.best_x, optimizers[best].best_x)

    def test_no_segment_starts_once_the_budget_is_spent(self):
        # the first segment ends at max_evals with the budget spent to the evaluation, so
        # no restart is made; with ">" for ">=" in run() three segments of 0 evaluations follow
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 2),
            controller="csa",
            seed=0,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=102, tol_fun=1e-3),
            max_restarts=3,
        )
        result = run(config)
        assert [(seg.lam, seg.evals) for seg in result.segments] == [(6, 102)]
        assert (result.termination, result.evals) == ("max_evals", 102)

    def test_budget_is_global_across_segments(self):
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 5),
            seed=1,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=6000, target_f=1e-8, tol_fun=1e-12),
            max_restarts=10,
        )
        result = run(config)
        assert result.evals <= 6000 + default_params(5, lam=10 * 2**10).lam + 2
        assert result.evals == sum(seg.evals for seg in result.segments)
        # trace rows carry cumulative counters and the run's best so far
        evals = [row.evals for row in result.trace]
        assert evals == sorted(evals)
        best = [row.best_f for row in result.trace]
        assert best == sorted(best, reverse=True)
        assert best[-1] == result.best_f

    @pytest.mark.parametrize("controller", ["tpa", "csa"])
    @pytest.mark.parametrize("m0", [3.0, [1.0, -2.0, 0.5]], ids=["scalar", "vector"])
    def test_every_segment_starts_from_the_configured_start(self, monkeypatch, m0, controller):
        starts = []

        class Recorded(CmaEs):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                start = {name: copy.deepcopy(getattr(self, name))
                         for name in ("m", "sigma", "C", "p_c", "alpha_s", "p_sigma")}
                starts.append((start, self.params.lam, self.rng, self.rng.bit_generator.state))

        monkeypatch.setattr(engine, "CmaEs", Recorded)
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 3),
            controller=controller,
            seed=0,
            m0=m0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=20_000, target_f=-1.0, tol_fun=1e-10),
            max_restarts=3,
        )
        result = run(config)
        assert len(starts) == len(result.segments) == 4
        lam0 = config.build_params().lam
        run_rng = starts[0][2]
        assert starts[0][3] == np.random.default_rng(config.seed).bit_generator.state
        for k, (start, lam, rng, _) in enumerate(starts):
            np.testing.assert_array_equal(start["m"], np.broadcast_to(config.m0, 3))
            assert start["sigma"] == 2.0
            np.testing.assert_array_equal(start["C"], np.eye(3))
            np.testing.assert_array_equal(start["p_c"], np.zeros(3))
            if controller == "tpa":
                assert start["alpha_s"] == 0.0 and start["p_sigma"] is None
            else:
                assert math.isnan(start["alpha_s"])
                np.testing.assert_array_equal(start["p_sigma"], np.zeros(3))
            assert lam == result.segments[k].lam == lam0 * 2**k
            # one generator for the whole run: each segment draws on where the last stopped
            assert rng is run_rng

    @pytest.mark.parametrize(
        "value", [-1, 1.5, math.nan, True], ids=["negative", "fraction", "nan", "bool"]
    )
    def test_rejects_bad_max_restarts(self, value):
        with pytest.raises(ValueError, match="max_restarts must be an integer >= 0"):
            replace(sphere_config(2), max_restarts=value)
        # judged with the config's other settings: both problems are listed at once
        with pytest.raises(ValueError) as info:
            replace(sphere_config(2), seed=-1, max_restarts=value)
        problems = str(info.value).split("; ")
        assert problems == [
            "seed must be an integer >= 0, got -1",
            f"max_restarts must be an integer >= 0, got {value!r}",
        ]

    def test_restart_adapter_matches_run(self):
        """perfbench/workloads.py drives its restart workload through the
        two-argument form, so it must stay the very run that run() makes."""
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 5),
            seed=1,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=6000, target_f=1e-8, tol_fun=1e-10),
        )
        adapted = engine.run_with_restarts(config, engine.RestartPolicy(max_restarts=3))
        direct = run(replace(config, max_restarts=3))
        assert len(direct.segments) > 1
        assert adapted.trace == direct.trace
        assert adapted.segments == direct.segments
        np.testing.assert_array_equal(adapted.best_x, direct.best_x)
        assert (adapted.best_f, adapted.termination, adapted.evals) == (
            direct.best_f, direct.termination, direct.evals)

    def test_an_abort_keeps_the_run_so_far(self, monkeypatch):
        # every evaluation fails from segment 1's 31st generation on; the abort used to carry
        # segment 1's optimizer alone, and segment 0's rows, best and entry were lost
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 10),
            controller="csa",
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=100_000, target_f=1e-9, tol_fun=1e-12),
            max_restarts=5,
        )
        first = run(replace(config, max_restarts=0))  # segment 0 alone
        batches = []  # csa evaluates one batch per generation

        def failing_in_segment_1(objective, X, rng=None):
            batches.append(len(X))
            f = evaluate_population(objective, X, rng)
            return np.full(len(X), math.inf) if len(batches) > first.generations + 30 else f

        monkeypatch.setattr(engine.obj_mod, "evaluate_population", failing_in_segment_1)
        with pytest.raises(RunAborted, match="20 of 20 evaluations infeasible") as info:
            run(config)
        result, opt = info.value.result, info.value.optimizer
        assert (opt.params.lam, opt.generation, opt.evals) == (20, 30, 600)
        assert [(s.lam, s.generations, s.evals, s.termination) for s in result.segments] == [
            (10, 499, 4990, "tol_fun"), (20, 30, 600, "aborted")]
        assert result.segments[0] == first.segments[0]
        assert result.segments[1].best_f == opt.best_f
        assert result.termination == "aborted"
        assert result.evals == result.trace[-1].evals == first.evals + opt.evals
        assert result.generations == len(result.trace) == first.generations + opt.generation
        np.testing.assert_array_equal(np.array(result.trace[: first.generations]),
                                      np.array(first.trace))
        best = first if first.best_f <= opt.best_f else opt  # the earliest on a tie
        assert result.best_f == best.best_f == min(row.best_f for row in result.trace)
        np.testing.assert_array_equal(result.best_x, best.best_x)

        copied = pickle.loads(pickle.dumps(info.value))
        assert str(copied) == str(info.value)
        assert copied.optimizer.generation == opt.generation
        assert copied.result.segments == result.segments
        np.testing.assert_array_equal(np.array(copied.result.trace), np.array(result.trace))
        assert (copied.result.best_f, copied.result.evals) == (result.best_f, result.evals)
        np.testing.assert_array_equal(copied.result.best_x, result.best_x)

    def test_an_abort_outside_run_carries_no_result(self):
        opt = CmaEs(default_params(2), np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        with pytest.raises(RunAborted) as info:
            opt.tell([math.inf] * 6)
        assert info.value.result is None

    def test_restarts_solve_rastrigin_more_often(self):
        # paired-seed comparison on a multimodal function
        seeds = range(20)
        wins_plain, wins_restart = 0, 0
        for seed in seeds:
            config = RunConfig(
                objective=ObjectiveSpec("rastrigin", 5),
                seed=seed,
                m0=3.0,
                sigma0=2.0,
                criteria=TerminationCriteria(max_evals=25_000, target_f=1e-8, tol_fun=1e-12),
            )
            wins_plain += run(config).best_f < 1e-8
            wins_restart += run(replace(config, max_restarts=8)).best_f < 1e-8
        assert wins_restart > wins_plain


class TestRunConfig:
    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError):
            RunConfig(objective=ObjectiveSpec("sphere", 2), controller="simulated_annealing")

    @pytest.mark.parametrize(
        "m0,sigma0,message",
        [
            ([1.0, 2.0, 3.0], 1.0, r"m0 must have shape \(2,\), got \(3,\)"),
            (math.nan, 1.0, "m0 must be finite"),
            (0.0, 0.0, "sigma0 must be positive and finite, got 0.0"),
            (0.0, math.nan, "sigma0 must be positive and finite, got nan"),
            (0.0, math.inf, "sigma0 must be positive and finite, got inf"),
        ],
        ids=["m0-shape", "m0-nan", "sigma0-zero", "sigma0-nan", "sigma0-inf"],
    )
    def test_rejects_bad_start(self, m0, sigma0, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(objective=ObjectiveSpec("sphere", 2), m0=m0, sigma0=sigma0)
        with pytest.raises(ValueError, match=message):
            CmaEs(default_params(2), np.broadcast_to(m0, np.shape(m0) or (2,)), sigma0)

    @pytest.mark.parametrize(
        "changes, problem",
        [
            ({"sigma0": "a"}, "sigma0 must be positive and finite, got 'a'"),
            ({"m0": 1 + 2j}, "m0 must be a float or a sequence of floats, got (1+2j)"),
            ({"m0": [1.0, "a"]}, "m0 must be a float or a sequence of floats, got [1.0, 'a']"),
            ({"controller": ["tpa"]},
             f"controller must be one of {tuple(CONTROLLERS)}, got ['tpa']"),
        ],
        ids=["sigma0-text", "m0-complex", "m0-text", "controller-list"],
    )
    def test_a_value_of_the_wrong_type_is_listed_beside_the_others(self, changes, problem):
        # these used to raise a bare TypeError, or numpy's own ValueError for text
        with pytest.raises(ValueError) as info:
            RunConfig(objective=ObjectiveSpec("sphere", 2), lam=1, **changes)
        assert str(info.value).split("; ") == [problem, "lam must be an integer >= 2, got 1"]

    SEED_PROBLEM = "seed must be an integer >= 0, got -1"
    LAM_PROBLEM = "lam must be an integer >= 2, got 1"

    @pytest.mark.parametrize(
        "changes, expected",
        [
            ({"objective": "sphere"},
             ["objective must be an ObjectiveSpec, got 'sphere'", SEED_PROBLEM, LAM_PROBLEM]),
            ({"criteria": "x"},
             [SEED_PROBLEM, "criteria must be a TerminationCriteria, got 'x'", LAM_PROBLEM]),
            ({"criteria": None},
             [SEED_PROBLEM, "criteria must be a TerminationCriteria, got None", LAM_PROBLEM]),
        ],
        ids=["objective-text", "criteria-text", "criteria-none"],
    )
    def test_a_wrong_typed_objective_or_criteria_is_listed_beside_the_others(self, changes,
                                                                              expected):
        # a text objective raised a bare AttributeError; such criteria built, and run() then
        # raised AttributeError on max_evals
        values = {"objective": ObjectiveSpec("sphere", 2), "seed": -1, "lam": 1, **changes}
        with pytest.raises(ValueError) as info:
            RunConfig(**values)
        assert str(info.value).split("; ") == expected

    def test_a_sequence_m0_is_not_judged_against_a_wrong_typed_objective(self):
        with pytest.raises(ValueError) as info:
            RunConfig(objective=None, m0=[1.0, 2.0, 3.0])
        assert str(info.value) == "objective must be an ObjectiveSpec, got None"

    @pytest.mark.parametrize("m0", ["a", 1 + 2j, [1.0, "a"], [[1.0], [2.0, 3.0]], 10**400],
                             ids=["text", "complex", "text-entry", "ragged", "beyond-float"])
    def test_the_optimizer_lists_the_m0_problem_the_config_lists(self, m0):
        # CmaEs used to raise numpy's bare ValueError or TypeError here
        problem = f"m0 must be a float or a sequence of floats, got {m0!r}"
        with pytest.raises(ValueError) as config_info:
            RunConfig(objective=ObjectiveSpec("sphere", 2), m0=m0)
        with pytest.raises(ValueError) as opt_info:
            CmaEs(default_params(2), m0, 1.0)
        assert str(opt_info.value) == str(config_info.value) == problem

    @pytest.mark.parametrize("controller", ["tpa", "tpa_legacy", "csa"])
    def test_a_float_m0_runs_as_its_n_vector(self, controller):
        spec = ObjectiveSpec("ellipsoid", 5)
        params = RunConfig(spec, controller).build_params()

        def trace(m0):
            opt = CmaEs(params, m0, 2.0, rng=np.random.default_rng(4),
                        criteria=TerminationCriteria(max_evals=600))
            while opt.should_stop() is None:
                opt.tell(evaluate_population(spec, opt.ask()))
            return np.array(opt.trace).tobytes() + opt.m.tobytes()

        assert trace(3.0) == trace(np.full(5, 3.0)) == trace([3.0] * 5)

    def test_judging_a_large_dimension_allocates_no_mean(self):
        tracemalloc.start()
        try:
            RunConfig(ObjectiveSpec("sphere", 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # an n-vector of floats alone takes 7.6 MiB

    def test_names_every_bad_setting_when_built(self):
        # the strategy settings are judged with no preset when the name is unknown
        with pytest.raises(ValueError) as info:
            RunConfig(objective=ObjectiveSpec("sphere", 2), controller="nope", sigma0=0.0,
                      lam=1, beta_bias=math.nan, c_alpha=2.0)
        problems = [problem.split()[0] for problem in str(info.value).split("; ")]
        assert problems == ["sigma0", "controller", "lam", "beta_bias", "c_alpha"]

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, True, np.float64(2.0)])
    def test_rejects_bad_seed(self, seed):
        # these used to construct, then fail in np.random.default_rng
        message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            RunConfig(objective=ObjectiveSpec("sphere", 2), seed=seed)

    def test_accepts_numpy_integer_seed(self):
        config = sphere_config(2, seed=np.int64(5), max_evals=100)
        assert run(config).trace == run(sphere_config(2, seed=5, max_evals=100)).trace

    @pytest.mark.parametrize("controller", ["tpa", "csa"])
    def test_rejects_non_integer_lambda(self, controller):
        with pytest.raises(ValueError, match="lam must be an integer >= 2, got 6.5"):
            RunConfig(objective=ObjectiveSpec("sphere", 4), controller=controller, lam=6.5)

    def test_controller_aliases(self):
        # a preset holds StrategyParams settings only, the step-size rule among them
        settable = {f.name for f in dataclasses.fields(StrategyParams) if f.init}
        assert all(set(preset) <= settable for preset in engine.CONTROLLERS.values())
        assert set(engine.CONTROLLERS) == {"tpa", "tpa_noise", "tpa_legacy", "csa"}

        base = RunConfig(objective=ObjectiveSpec("sphere", 2))
        params = base.build_params()
        assert params.mode == "tpa" and params.beta_bias == 0.0

        noisy = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_noise")
        params = noisy.build_params()
        assert params.mode == "tpa" and params.beta_bias == 0.1

        legacy = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_legacy")
        params = legacy.build_params()
        assert params.mode == "tpa_legacy" and params.beta_bias == 0.0

        csa = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="csa")
        assert csa.build_params().mode == "csa"

    def test_explicit_beta_overrides_alias(self):
        config = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_noise",
                           beta_bias=0.25)
        params = config.build_params()
        assert params.beta_bias == 0.25

    def test_explicit_c_alpha_overrides_legacy_preset(self):
        config = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_legacy",
                           c_alpha=0.5)
        params = config.build_params()
        assert params.c_alpha == 0.5
        assert params.mode == "tpa_legacy" and params.alpha_test == 0.8


class TestLegacyGeometry:
    @staticmethod
    def first_generation():
        """A legacy optimizer after its population round, the mean it was
        sampled around, and sigma times the realized mean step, computed
        from the asked points and their fitness."""
        config = RunConfig(objective=ObjectiveSpec("sphere", 3), controller="tpa_legacy")
        params = config.build_params()
        opt = CmaEs(params, np.full(3, 2.0), 1.5, rng=np.random.default_rng(8))
        m_old = opt.m.copy()
        X = opt.ask()
        f = evaluate_population(ObjectiveSpec("sphere", 3), X)
        opt.tell(f)
        shift = params.weights @ X[np.argsort(f, kind="stable")[: params.mu]] - m_old
        return opt, m_old, shift

    def test_legacy_test_points_about_the_old_mean(self):
        # both legacy test points are plain multiples of the mean shift from
        # the old mean: (1 + a') and 1/(1 + a') times sigma * <y>
        opt, m_old, shift = self.first_generation()
        plus, minus = opt.ask()
        np.testing.assert_allclose(plus, m_old + 1.8 * shift, rtol=1e-12)
        np.testing.assert_allclose(minus, m_old + shift / 1.8, rtol=1e-12)

    def test_legacy_commits_mean_with_new_sigma(self):
        opt, m_old, shift = self.first_generation()
        sigma_old = opt.sigma
        assert np.array_equal(opt.m, m_old)  # not committed yet
        xs = opt.ask()
        opt.tell(evaluate_population(ObjectiveSpec("sphere", 3), xs))
        assert opt.sigma != sigma_old
        np.testing.assert_allclose(opt.m, m_old + (opt.sigma / sigma_old) * shift, rtol=1e-12)
