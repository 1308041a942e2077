import math
from dataclasses import replace

import numpy as np
import pytest

from tpcma.engine import (
    CmaEs,
    RestartPolicy,
    RunAborted,
    RunConfig,
    TerminationCriteria,
    run,
    run_with_restarts,
)
from tpcma.objectives import ObjectiveSpec, evaluate_population
from tpcma.params import default_params


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
        params = default_params(2)
        opt = CmaEs(params, np.array([1.0, 0.0]), 0.5, mode="csa", rng=np.random.default_rng(1))
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

    def test_all_adaptation_disabled_freezes_sigma_and_covariance(self):
        params = replace(default_params(3), c_1=0.0, c_mu=0.0, alpha_change=0.0)
        opt = CmaEs(params, np.zeros(3), 1.0, rng=np.random.default_rng(5))
        spec = ObjectiveSpec("sphere", 3)
        m_before = opt.m.copy()
        for _ in range(6):
            xs = opt.ask()
            opt.tell(evaluate_population(spec, np.asarray(xs)))
        assert opt.generation == 3
        assert opt.sigma == 1.0
        assert opt.alpha_s == 0.0
        np.testing.assert_array_equal(opt.cov.C, np.eye(3))
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

    def test_wrong_fitness_count_rejected(self):
        opt = CmaEs(default_params(2), np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        with pytest.raises(ValueError):
            opt.tell([1.0, 2.0])

    def test_too_many_infeasible_aborts_with_snapshot(self):
        params = default_params(2)  # lam 6, mu 3
        opt = CmaEs(params, np.zeros(2), 1.0, rng=np.random.default_rng(0))
        opt.ask()
        with pytest.raises(RunAborted) as exc_info:
            opt.tell([math.inf] * 4 + [1.0, 2.0])
        assert exc_info.value.state is not None
        assert exc_info.value.state.g == 0

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

    def test_tpa_mode_never_whitens(self):
        opt = CmaEs(default_params(3), np.zeros(3), 1.0, rng=np.random.default_rng(2))
        spec = ObjectiveSpec("sphere", 3)
        for _ in range(10):
            xs = opt.ask()
            opt.tell(evaluate_population(spec, np.asarray(xs)))
            assert opt._factor.inv_sqrt is None

    def test_csa_mode_whitens(self):
        opt = CmaEs(default_params(3), np.zeros(3), 1.0, mode="csa", rng=np.random.default_rng(2))
        spec = ObjectiveSpec("sphere", 3)
        xs = opt.ask()
        opt.tell(evaluate_population(spec, np.asarray(xs)))
        assert opt._factor.inv_sqrt is not None


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

    def test_sphere_reaches_target(self):
        result = run(sphere_config(10, max_evals=100_000, target_f=1e-10))
        assert result.termination == "target_f"
        assert result.best_f < 1e-10
        assert result.evals < 10_000

    def test_sigma_ratio_bounds(self):
        config = RunConfig(
            objective=ObjectiveSpec("sphere", 4),
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=100_000, sigma_ratio_min=1e-3),
        )
        result = run(config)
        assert result.termination == "sigma_min"

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

    def test_sigma_max_bound(self):
        # starting far below the optimal step length forces sigma to inflate
        config = RunConfig(
            objective=ObjectiveSpec("sphere", 4),
            m0=3.0,
            sigma0=1e-6,
            criteria=TerminationCriteria(max_evals=100_000, sigma_ratio_max=100.0),
        )
        result = run(config)
        assert result.termination == "sigma_max"

    def test_max_axis_ratio_bound(self):
        # adapting to a badly conditioned ellipsoid stretches the covariance
        config = RunConfig(
            objective=ObjectiveSpec("ellipsoid", 3, condition=1e6),
            seed=1,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=100_000, max_axis_ratio=10.0),
        )
        result = run(config)
        assert result.termination == "max_axis_ratio"

    def test_nonfinite_sigma_aborts_with_snapshot(self):
        # an absurd change factor overflows sigma after a few forced increases
        params = replace(default_params(2), alpha_change=1000.0)
        opt = CmaEs(params, np.zeros(2), 1.0, rng=np.random.default_rng(0))
        with pytest.raises(RunAborted, match="step-size") as exc_info:
            for _ in range(4):
                opt.ask()
                opt.tell(list(range(params.lam)))  # population round
                opt.ask()
                opt.tell([0.0, 1.0])  # upward point wins: increase branch
        assert exc_info.value.state is not None


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
        np.testing.assert_array_equal(base.cov.C, warped.cov.C)


class TestRestarts:
    def test_population_doubles_across_restarts(self):
        # stagnation on each segment forces the restart path
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 10),
            seed=0,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=200_000, target_f=-1.0, tol_fun=1e-12),
        )
        result = run_with_restarts(config, RestartPolicy(lam_multiplier=2.0, max_restarts=2))
        assert [seg.lam for seg in result.segments] == [10, 20, 40]
        assert result.termination == result.segments[-1].termination == "tol_fun"
        assert result.evals == sum(seg.evals for seg in result.segments)

    def test_zero_restarts_identical_to_plain_run(self):
        config = sphere_config(4, seed=5, max_evals=3000, target_f=1e-9)
        plain = run(config)
        restarted = run_with_restarts(config, RestartPolicy(max_restarts=0))
        assert plain.trace == restarted.trace
        assert plain.best_f == restarted.best_f
        assert plain.termination == restarted.termination

    def test_budget_is_global_across_segments(self):
        config = RunConfig(
            objective=ObjectiveSpec("rastrigin", 5),
            seed=1,
            m0=3.0,
            sigma0=2.0,
            criteria=TerminationCriteria(max_evals=6000, target_f=1e-8, tol_fun=1e-12),
        )
        result = run_with_restarts(config, RestartPolicy(max_restarts=10))
        assert result.evals <= 6000 + default_params(5, lam=10 * 2**10).lam + 2
        assert result.evals == sum(seg.evals for seg in result.segments)
        # trace rows carry cumulative counters
        evals = [row.evals for row in result.trace]
        assert evals == sorted(evals)

    def test_restart_mean_redraw_within_bounds(self):
        config = RunConfig(
            objective=ObjectiveSpec("sphere", 3),
            seed=2,
            m0=3.0,
            sigma0=1.0,
            criteria=TerminationCriteria(max_evals=100_000, target_f=-1.0, tol_fun=1e-10),
        )
        policy = RestartPolicy(max_restarts=1, bounds=(np.full(3, -5.0), np.full(3, 5.0)))
        result = run_with_restarts(config, policy)
        assert len(result.segments) == 2

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
            wins_restart += (
                run_with_restarts(config, RestartPolicy(max_restarts=8)).best_f < 1e-8
            )
        assert wins_restart > wins_plain


class TestRunConfig:
    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError):
            RunConfig(objective=ObjectiveSpec("sphere", 2), controller="simulated_annealing")

    def test_controller_aliases(self):
        base = RunConfig(objective=ObjectiveSpec("sphere", 2))
        params, mode = base.build_params()
        assert mode == "tpa" and params.beta_bias == 0.0

        noisy = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_noise")
        params, mode = noisy.build_params()
        assert mode == "tpa" and params.beta_bias == 0.1

        legacy = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_legacy")
        params, mode = legacy.build_params()
        assert mode == "tpa" and params.mean_uses_new_sigma and params.asymmetric_minus_point

        csa = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="csa")
        _, mode = csa.build_params()
        assert mode == "csa"

    def test_explicit_beta_overrides_alias(self):
        config = RunConfig(objective=ObjectiveSpec("sphere", 2), controller="tpa_noise",
                           beta_bias=0.25)
        params, _ = config.build_params()
        assert params.beta_bias == 0.25


class TestLegacyGeometry:
    @staticmethod
    def first_generation():
        """A legacy optimizer after its population round, the mean it was
        sampled around, and sigma times the realized mean step, computed
        from the asked points and their fitness."""
        config = RunConfig(objective=ObjectiveSpec("sphere", 3), controller="tpa_legacy")
        params, mode = config.build_params()
        opt = CmaEs(params, np.full(3, 2.0), 1.5, mode=mode, rng=np.random.default_rng(8))
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
