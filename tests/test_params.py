import math
import pickle
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from tpcma.engine import CmaEs, RunConfig, TerminationCriteria
from tpcma.objectives import ObjectiveSpec
from tpcma.params import StrategyParams, default_params, raise_problems

SETTINGS = ("n", "lam", "alpha_test", "alpha_change", "beta_bias", "c_alpha", "mode")
DERIVED = ("mu_prime", "mu", "weights", "mu_w", "c_c", "c_1", "c_mu", "c_sigma", "d_sigma",
           "rank_mu_scales", "test_widths")
ARRAYS = ("weights", "rank_mu_scales", "test_widths")


def weights_oracle(mu_prime, mu):
    # direct high-precision evaluation of the log-rank weight formula
    raw = [math.log(mu_prime + 0.5) - math.log(i) for i in range(1, mu + 1)]
    total = sum(raw)
    return [r / total for r in raw]


class TestDefaults:
    @pytest.mark.parametrize("n,lam", [(1, 4), (2, 6), (10, 10), (20, 12), (100, 17)])
    def test_default_population_size(self, n, lam):
        assert default_params(n).lam == lam

    def test_n10_defaults(self):
        p = default_params(10)
        assert p.lam == 10
        assert p.mu_prime == 5.0
        assert p.mu == 5
        assert p.c_c == pytest.approx(4.0 / 14.0, rel=1e-15)
        assert p.c_1 == pytest.approx(2.0 / ((10 + 1.3) ** 2 + p.mu_w), rel=1e-15)
        assert p.alpha_test == 0.5
        assert p.alpha_change == 0.5
        assert p.beta_bias == 0.0
        assert p.c_alpha == 0.3
        assert p.mode == "tpa"

    def test_single_parent_degenerate(self):
        p = default_params(1, lam=2)
        assert p.mu_prime == 1.0
        assert p.mu == 1
        assert p.weights.tolist() == [1.0]
        assert p.mu_w == 1.0

    def test_rejects_bad_dimension_and_lambda(self):
        with pytest.raises(ValueError):
            default_params(0)
        with pytest.raises(ValueError):
            default_params(5, lam=1)

    @pytest.mark.parametrize(
        "n,lam,message",
        [
            (2.5, None, "n must be an integer >= 1, got 2.5"),
            (4.0, None, "n must be an integer >= 1, got 4.0"),
            (4, 6.5, "lam must be an integer >= 2, got 6.5"),
            (4, math.nan, "lam must be an integer >= 2, got nan"),
            (True, None, "n must be an integer >= 1, got True"),
            (4, True, "lam must be an integer >= 2, got True"),
        ],
    )
    def test_rejects_non_integer_dimension_and_lambda(self, n, lam, message):
        # these used to construct, then fail with TypeError in ask() or np.full
        with pytest.raises(ValueError, match=message):
            default_params(n, lam=lam)

    def test_accepts_numpy_integers(self):
        p = default_params(np.int64(4), lam=np.int32(6))
        assert (p.n, p.lam) == (4, 6)

    def test_numpy_integers_derive_python_numbers(self):
        # an np.float64 constant would print as "np.float64(...)" in a trace CSV header
        p = default_params(np.int64(10), lam=np.int64(6))
        assert [type(getattr(p, name)) for name in ("n", "lam", "mu")] == [int] * 3
        floats = [name for name in DERIVED if name != "mu" and name not in ARRAYS]
        assert [type(getattr(p, name)) for name in floats] == [float] * len(floats)

    def test_overrides_validated_not_clamped(self):
        p = replace(default_params(10), beta_bias=0.1, c_alpha=0.5)
        assert p.beta_bias == 0.1
        assert p.c_alpha == 0.5
        with pytest.raises(ValueError, match="c_alpha"):
            replace(default_params(10), c_alpha=1.5)
        with pytest.raises(ValueError, match="beta_bias"):
            replace(default_params(10), beta_bias=-0.1)
        with pytest.raises(ValueError, match="c_1 is declared with init=False"):
            replace(default_params(10), c_1=0.9, c_mu=0.9)

    def test_only_the_settings_can_be_set(self):
        assert tuple(f.name for f in fields(StrategyParams) if f.init) == SETTINGS
        for name in DERIVED:
            with pytest.raises(ValueError, match=f"{name} is declared with init=False"):
                replace(default_params(10), **{name: getattr(default_params(10), name)})
            with pytest.raises(TypeError, match=name):
                StrategyParams(n=10, lam=10, **{name: getattr(default_params(10), name)})

    @pytest.mark.parametrize("changes", [{"lam": 50}, {"n": 200}, {"n": 3, "lam": 7}])
    def test_replace_derives_the_constants_again(self, changes):
        # lam=10 is the default at n=10; it stays when only n changes
        p = replace(default_params(10), c_alpha=0.5, **changes)
        fresh = replace(default_params(changes.get("n", 10), changes.get("lam", 10)), c_alpha=0.5)
        assert p.mu == fresh.lam // 2
        for name in SETTINGS + DERIVED:
            np.testing.assert_array_equal(getattr(p, name), getattr(fresh, name), err_msg=name)

    def test_lists_every_bad_setting(self):
        with pytest.raises(ValueError) as info:
            StrategyParams(n=0, lam=1, alpha_test=0.0, alpha_change=-1.0, beta_bias=math.nan,
                           c_alpha=2.0, mode="cma")
        names = [problem.split()[0] for problem in str(info.value).split("; ")]
        assert names == ["n", "lam", "alpha_test", "alpha_change", "beta_bias", "c_alpha", "mode"]

    def test_a_bad_mode_is_judged_with_the_other_settings(self):
        with pytest.raises(ValueError) as info:
            replace(default_params(2), mode="cma", c_alpha=2.0)
        assert str(info.value) == (
            "c_alpha must be in (0, 1], got 2.0; "
            "mode must be 'tpa', 'tpa_legacy' or 'csa', got 'cma'"
        )

    @pytest.mark.parametrize("value", ["0.5", None, 0.5j, [0.5]], ids=repr)
    @pytest.mark.parametrize(
        "name, bound",
        [("alpha_test", "positive and finite"), ("alpha_change", ">= 0 and finite"),
         ("beta_bias", ">= 0 and finite"), ("c_alpha", "in (0, 1]")],
    )
    def test_a_non_number_setting_is_listed_beside_the_others(self, name, bound, value):
        # these used to raise a bare TypeError from the bound's comparison
        with pytest.raises(ValueError) as info:
            replace(default_params(2), mode="cma", **{name: value})
        assert str(info.value) == (f"{name} must be {bound}, got {value!r}; "
                                   "mode must be 'tpa', 'tpa_legacy' or 'csa', got 'cma'")

    def test_bool_settings_stay_accepted(self):
        p = replace(default_params(2), alpha_test=True, alpha_change=False, beta_bias=True,
                    c_alpha=True)
        assert (p.alpha_test, p.alpha_change, p.beta_bias, p.c_alpha) == (1, 0, 1, 1)

    @pytest.mark.parametrize("mode", ["no", "legacy", "TPA", "", True, None, 1])
    def test_rejects_every_mode_but_the_three_rules(self, mode):
        # a truthy flag used to run the legacy geometry; no value is taken for one now
        with pytest.raises(ValueError, match=f"mode must be .* got {re.escape(repr(mode))}$"):
            replace(default_params(2), mode=mode)

    def test_an_array_mode_is_listed(self):
        # comparing it with each rule used to raise numpy's "truth value ... is ambiguous"
        mode = np.array(["tpa", "csa"])
        with pytest.raises(ValueError) as info:
            replace(default_params(2), mode=mode)
        assert info.value.problems == [f"mode must be 'tpa', 'tpa_legacy' or 'csa', got {mode!r}"]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("beta_bias", math.nan),
            ("beta_bias", math.inf),
            ("alpha_test", math.nan),
            ("alpha_test", math.inf),
            ("alpha_change", math.nan),
            ("c_alpha", math.nan),
            ("d_sigma", math.inf),
            ("weights", np.full(5, math.nan)),
        ],
    )
    def test_rejects_nonfinite_values(self, field, value):
        # a setting is checked; a derived field cannot be set at all
        match = f"{field} is declared with init=False" if field in DERIVED else f"{field} must be"
        with pytest.raises(ValueError, match=match):
            replace(default_params(10), **{field: value})


class TestDerivedColumns:
    # each column replaces an expression the layers evaluated every generation;
    # the trajectories stay bit-identical only if it is that expression's value

    @staticmethod
    def assert_same_bits(actual, expected):
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
        assert actual.tobytes() == expected.tobytes()

    def check(self, p):
        # sqrt(c_mu w) as a column, once in covariance.update_covariance
        self.assert_same_bits(p.rank_mu_scales, np.sqrt(p.c_mu * p.weights)[:, None])
        # the widths stepsize.tpa_test_points passed to np.multiply.outer
        a = p.alpha_test
        a_down = a / (1.0 + a) if p.mode == "tpa_legacy" else a
        self.assert_same_bits(p.test_widths, np.array((a, -a_down), dtype=float)[:, None])
        shift = np.random.default_rng(p.lam).standard_normal(p.n)
        self.assert_same_bits(p.test_widths * shift, np.multiply.outer((a, -a_down), shift))
        for name in ARRAYS:
            assert not getattr(p, name).flags.writeable, name

    @pytest.mark.parametrize("mode", ["tpa", "tpa_legacy", "csa"])
    @pytest.mark.parametrize("n,lam", [(1, 2), (2, None), (10, None), (20, 7), (400, None)])
    def test_equal_the_expressions_they_replace(self, mode, n, lam):
        self.check(replace(default_params(n, lam), mode=mode))

    @pytest.mark.parametrize("mode", ["tpa", "tpa_legacy", "csa"])
    @pytest.mark.parametrize(
        "changes",
        [{"alpha_test": 0.8}, {"alpha_test": 1e-300}, {"alpha_test": 3}, {"lam": 50},
         {"mode": "tpa"}, {"mode": "tpa_legacy"}, {"mode": "csa"},
         {"mode": "tpa_legacy", "alpha_test": 2.5, "lam": 4}],
    )
    def test_a_replaced_setting_derives_them_again(self, mode, changes):
        p = replace(replace(default_params(10), mode=mode), **changes)
        self.check(p)
        fresh = StrategyParams(n=10, lam=changes.get("lam", 10), mode=changes.get("mode", mode),
                               alpha_test=changes.get("alpha_test", 0.5))
        for name in ("rank_mu_scales", "test_widths"):
            self.assert_same_bits(getattr(p, name), getattr(fresh, name))


class TestRounding:
    # mu is lam/2 rounded to the nearest integer, with ties going down
    @pytest.mark.parametrize("value,expected", [(1.5, 1), (2.5, 2), (5.0, 5), (4.5, 4)])
    def test_mu_rounds_ties_down(self, value, expected):
        p = default_params(10, lam=int(2 * value))
        assert p.mu_prime == value
        assert p.mu == expected


class TestWeights:
    def test_two_parent_weights(self):
        w = default_params(10, lam=4).weights
        expected = weights_oracle(2.0, 2)
        assert w == pytest.approx(expected, rel=1e-13)
        # frozen from the oracle
        assert w[0] == pytest.approx(0.8041628599327295, rel=1e-12)
        assert w[1] == pytest.approx(0.19583714006727054, rel=1e-12)

    def test_single_weight_normalizes(self):
        assert default_params(1, lam=2).weights.tolist() == [1.0]

    def test_five_parent_first_weight(self):
        w = default_params(10, lam=10).weights
        assert w[0] == pytest.approx(0.45627264690340597, rel=1e-12)
        assert w == pytest.approx(weights_oracle(5.0, 5), rel=1e-13)


class TestVarianceEffectiveMass:
    def test_single_weight(self):
        assert default_params(1, lam=2).mu_w == 1.0

    def test_two_weight_value(self):
        w = weights_oracle(2.0, 2)
        oracle = 1.0 / sum(x * x for x in w)
        mu_w = default_params(10, lam=4).mu_w
        assert mu_w == pytest.approx(oracle, rel=1e-13)
        assert mu_w == pytest.approx(1.4597898888525862, rel=1e-12)


class TestInvariants:
    def test_weight_invariants_all_dimensions(self):
        # every bound that the derived constants are known to keep
        for n in range(1, 101):
            for lam in (None, 2, 3, 4, 5, 10, 17, 50, 101, 400):
                p = default_params(n, lam)
                where = f"n={n}, lam={p.lam}"
                assert 1 <= p.mu <= p.lam, where
                assert p.weights.shape == (p.mu,), where
                assert np.all(p.weights > 0.0), where
                assert np.all(np.diff(p.weights) < 0.0), where
                assert abs(p.weights.sum() - 1.0) <= 1e-12, where
                assert 1.0 - 1e-9 <= p.mu_w <= p.mu + 1e-9, where
                assert 0.0 < p.c_c <= 1.0, where
                assert 0.0 <= p.c_1 < 1.0 and 0.0 <= p.c_mu < 1.0, where
                assert p.c_1 + p.c_mu <= 1.0, where
                assert 0.0 < p.c_sigma < 1.0, where
                assert 0.0 < p.d_sigma < math.inf, where

    @pytest.mark.parametrize("lam", [10, 100])
    def test_leading_weights_sum_near_half(self, lam):
        p = default_params(10, lam=lam)
        k = round(0.2 * p.mu_prime)
        assert 0.35 <= p.weights[:k].sum() <= 0.60

    def test_params_immutable(self):
        p = default_params(5)
        with pytest.raises(AttributeError):
            p.lam = 20
        with pytest.raises(ValueError):
            p.weights[0] = 0.9


# one call per settings judge, each breaking two rules
JUDGES = {
    "StrategyParams": lambda: StrategyParams(n=0, lam=1),
    "ObjectiveSpec": lambda: ObjectiveSpec("wat", 0),
    "TerminationCriteria": lambda: TerminationCriteria(max_evals=-1, tol_x=math.nan),
    "RunConfig": lambda: RunConfig(ObjectiveSpec("sphere", 2), controller="x", lam=1),
    "CmaEs": lambda: CmaEs(default_params(2), (1.0,), 0.0),
}


class TestRaiseProblems:
    @pytest.mark.parametrize("build", JUDGES.values(), ids=JUDGES)
    def test_each_judge_raises_its_problems_as_a_list(self, build):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError
        assert len(info.value.problems) == 2
        assert info.value.problems == str(info.value).split("; ")

    def test_a_settings_error_keeps_its_message_and_list_through_pickle(self):
        # as it crosses a process pool
        with pytest.raises(ValueError) as info:
            StrategyParams(n=0, lam=1)
        copied = pickle.loads(pickle.dumps(info.value))
        assert type(copied) is ValueError
        assert str(copied) == str(info.value)
        assert copied.problems == info.value.problems == [
            "n must be an integer >= 1, got 0", "lam must be an integer >= 2, got 1"]

    def test_no_problem_raises_nothing(self):
        assert raise_problems([]) is None

    def test_a_problem_holding_the_separator_stays_whole(self):
        with pytest.raises(ValueError) as info:
            raise_problems(["kind got 'a; b'", "c"])
        assert str(info.value) == "kind got 'a; b'; c"
        assert info.value.problems == ["kind got 'a; b'", "c"]
