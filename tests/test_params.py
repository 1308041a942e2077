import math
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tpcma.cli import ExperimentConfig
from tpcma.engine import CONTROLLERS, CmaEs, RunConfig, TerminationCriteria
from tpcma.objectives import OBJECTIVE_KINDS, ObjectiveSpec
from tpcma.params import (MAX_ENTRIES, StrategyParams, default_params, integer, is_real,
                          nonnegative, positive, rule)

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

    @pytest.mark.parametrize("n, lam", [(10, 10), (2, 24)], ids=["term-zero", "term-positive"])
    def test_csa_constants(self, n, lam):
        # c_sigma = (mu_w + 2) / (n + mu_w + 3), and the damping d_sigma = 1 + 2 max(0, sqrt(
        # (mu_w - 1) / (n + 1)) - 1) + c_sigma of Hansen's tutorial (arXiv:1604.00772), whose
        # max(0, ...) term is positive only where mu_w > n + 2
        mu_w = 1.0 / sum(w * w for w in weights_oracle(lam / 2, lam // 2))
        term = math.sqrt((mu_w - 1) / (n + 1)) - 1
        assert (term > 0) == (n == 2)
        c_sigma = (mu_w + 2) / (n + mu_w + 3)
        p = StrategyParams(n=n, lam=lam, mode="csa")
        assert p.c_sigma == pytest.approx(c_sigma, rel=1e-14)
        assert p.d_sigma == pytest.approx(1 + 2 * max(0, term) + c_sigma, rel=1e-14)

    def test_single_parent_degenerate(self):
        p = default_params(1, lam=2)
        assert p.mu_prime == 1.0
        assert p.mu == 1
        assert p.weights.tolist() == [1.0]
        assert p.mu_w == 1.0

    def test_numpy_integers_derive_python_numbers(self):
        # an np.float64 constant would print as "np.float64(...)" in a trace CSV header
        p = default_params(np.int64(10), lam=np.int64(6))
        assert [type(getattr(p, name)) for name in ("n", "lam", "mu")] == [int] * 3
        floats = [name for name in DERIVED if name != "mu" and name not in ARRAYS]
        assert [type(getattr(p, name)) for name in floats] == [float] * len(floats)

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


# the values every rule maker is run against, by name
VALUES = {"-1": -1, "0": 0, "1": 1, "2": 2, "0.5": 0.5, "2.5": 2.5, "4.0": 4.0, "nan": math.nan,
          "inf": math.inf, "-inf": -math.inf, "True": True, "False": False,
          "np.int64(2)": np.int64(2), "np.float64(2.0)": np.float64(2.0), "10**400": 10**400,
          "'1'": "1", "None": None, "1j": 1j, "[1]": [1], "array": np.array([1, 2])}

# each rule maker: the bound it reports, the values it keeps and those beyond its "at most 2"
RULE_MAKERS = {
    "integer(0)": (integer(0), "an integer >= 0", "0 1 2 np.int64(2) 10**400", ""),
    "integer(1, most=2)": (integer(1, most=2), "an integer >= 1", "1 2 np.int64(2)", "10**400"),
    "nonnegative": (nonnegative, ">= 0 and finite",
                    "0 1 2 0.5 2.5 4.0 True False np.int64(2) np.float64(2.0)", ""),
    "positive": (positive, "positive and finite",
                 "1 2 0.5 2.5 4.0 True np.int64(2) np.float64(2.0)", ""),
    "rule(is_real)": (rule("real", is_real), "real", "-1 0 1 2 0.5 2.5 4.0 nan inf -inf True False "
                      "np.int64(2) np.float64(2.0)", ""),
}


@pytest.mark.parametrize("maker, name", [(maker, name) for maker in RULE_MAKERS for name in VALUES])
def test_each_rule_maker_keeps_only_its_values(maker, name):
    check, bound, kept, beyond = RULE_MAKERS[maker]
    expected = None if name in kept.split() else "at most 2" if name in beyond.split() else bound
    assert check(VALUES[name]) == expected


# each judge built with one setting given, the others valid
BUILD = {
    StrategyParams: lambda n=2, lam=None, **given: replace(default_params(n, lam), **given),
    ObjectiveSpec: lambda kind="sphere", n=2, **given: ObjectiveSpec(kind, n, **given),
    TerminationCriteria: TerminationCriteria,
    RunConfig: lambda objective=ObjectiveSpec("sphere", 2), **given: RunConfig(objective, **given),
    ExperimentConfig: ExperimentConfig,
}

# each declared bound once, as (judge, field, label, bound, values that break it, values kept);
# a field whose rule a rule maker made breaks it once here, and on RULE_MAKERS' values there
DECLARED = [
    (StrategyParams, "n", "n", "an integer >= 1", (0,), (np.int64(4),)),
    (StrategyParams, "n", "n", f"at most {MAX_ENTRIES}", (10**400,), ()),
    (StrategyParams, "lam", "lam", "an integer >= 2", (1,), (np.int32(6),)),
    (StrategyParams, "lam", "lam", f"at most {MAX_ENTRIES}", (MAX_ENTRIES + 1,), ()),
    (StrategyParams, "alpha_test", "alpha_test", "positive and finite", (0,), ()),
    (StrategyParams, "alpha_change", "alpha_change", ">= 0 and finite", (-1,), ()),
    (StrategyParams, "beta_bias", "beta_bias", ">= 0 and finite", (-0.1,), (0.1,)),
    (StrategyParams, "c_alpha", "c_alpha", "in (0, 1]", (0, 1.5, 2.0, math.nan, 10**400, "0.5"),
     (1, 0.5, True)),
    (StrategyParams, "mode", "mode", "'tpa', 'tpa_legacy' or 'csa'",
     ("cma", "no", "legacy", "TPA", "", True, None, 1, np.array(["tpa", "csa"])),
     ("tpa", "tpa_legacy", "csa")),
    (ObjectiveSpec, "kind", "objective kind", f"one of {OBJECTIVE_KINDS}",
     ("banana", ["sphere"], np.array(["sphere", "x"])), OBJECTIVE_KINDS),
    (ObjectiveSpec, "n", "dimension", "an integer >= 1", (0,), (np.int64(2),)),
    (ObjectiveSpec, "noise_level", "noise_level", ">= 0 and finite", (-1,), ()),
    (ObjectiveSpec, "condition", "condition", "positive and finite", (0,), ()),
    (TerminationCriteria, "max_evals", "max_evals", "an integer >= 0", (-1,), ()),
    (TerminationCriteria, "target_f", "target_f", "finite or -inf",
     (math.nan, math.inf, None, 10**400), (-math.inf, 0)),
    (TerminationCriteria, "tol_x", "tol_x", ">= 0 and finite", (-1,), ()),
    (TerminationCriteria, "tol_fun", "tol_fun", ">= 0 and finite", (-1,), ()),
    (RunConfig, "objective", "objective", "an ObjectiveSpec", ("sphere", None), ()),
    (RunConfig, "controller", "controller", f"one of {tuple(CONTROLLERS)}",
     ("simulated_annealing", ["tpa"]), tuple(CONTROLLERS)),
    (RunConfig, "seed", "seed", "an integer >= 0", (-1,), (np.int64(5),)),
    (RunConfig, "sigma0", "sigma0", "positive and finite", (0.0,), ()),
    (RunConfig, "criteria", "criteria", "a TerminationCriteria", ("x", None), ()),
    (RunConfig, "max_restarts", "max_restarts", "an integer >= 0", (-1,), ()),
    (ExperimentConfig, "out", "out", "a str or os.PathLike", (None, 3, b"x"), ("x", Path("x"))),
    (ExperimentConfig, "workers", "workers", "an integer >= 1", (0,), ()),
    (ExperimentConfig, "timestamp", "timestamp", "a bool", ("no", None, 1), (False,)),
]


def declared(kept):
    # one case per (row, value) of the column of values that break the rule, or that it keeps
    return [pytest.param(judge, field, label, bound, value, id=f"{judge.__name__}.{field}-" + (
                repr(value) if len(repr(value)) < 24 else f"{repr(value)[:20]}..."))
            for judge, field, label, bound, *columns in DECLARED for value in columns[kept]]


@pytest.mark.parametrize("judge, field, label, bound, value", declared(False))
def test_each_declared_bound_is_judged_with_its_label(judge, field, label, bound, value):
    with pytest.raises(ValueError) as info:
        BUILD[judge](**{field: value})
    assert info.value.problems == [f"{label} must be {bound}, got {value!r}"]


@pytest.mark.parametrize("judge, field, label, bound, value", declared(True))
def test_each_declared_field_keeps_a_valid_value_as_given(judge, field, label, bound, value):
    assert getattr(BUILD[judge](**{field: value}), field) == value  # not clamped


# one call per judge breaking each field it judges, and the problems listed, in field order
JUDGES = {
    "StrategyParams": (
        lambda: replace(default_params(2), n=0, lam=1, alpha_test="0.5", alpha_change=-1.0,
                        beta_bias=math.nan, c_alpha=2.0, mode="cma"),
        ["n must be an integer >= 1, got 0", "lam must be an integer >= 2, got 1",
         "alpha_test must be positive and finite, got '0.5'",
         "alpha_change must be >= 0 and finite, got -1.0",
         "beta_bias must be >= 0 and finite, got nan", "c_alpha must be in (0, 1], got 2.0",
         "mode must be 'tpa', 'tpa_legacy' or 'csa', got 'cma'"]),
    # a problem holding the separator stays whole
    "ObjectiveSpec": (
        lambda: ObjectiveSpec("a; b", 0, noise_level="x", condition=math.inf),
        [f"objective kind must be one of {OBJECTIVE_KINDS}, got 'a; b'",
         "dimension must be an integer >= 1, got 0", "noise_level must be >= 0 and finite, got 'x'",
         "condition must be positive and finite, got inf"]),
    "TerminationCriteria": (
        lambda: TerminationCriteria(max_evals=-5, target_f=None, tol_x="x", tol_fun=math.nan),
        ["max_evals must be an integer >= 0, got -5", "target_f must be finite or -inf, got None",
         "tol_x must be >= 0 and finite, got 'x'", "tol_fun must be >= 0 and finite, got nan"]),
    # the start first, then its own fields, then the strategy settings, with no preset
    "RunConfig": (
        lambda: RunConfig("sphere", "nope", seed=-1, m0=1 + 2j, sigma0="a", lam=6.5,
                          beta_bias=math.nan, c_alpha=2.0, criteria=None, max_restarts=True),
        ["m0 must be a float or a sequence of floats, got (1+2j)",
         "sigma0 must be positive and finite, got 'a'",
         "objective must be an ObjectiveSpec, got 'sphere'",
         f"controller must be one of {tuple(CONTROLLERS)}, got 'nope'",
         "seed must be an integer >= 0, got -1", "criteria must be a TerminationCriteria, got None",
         "max_restarts must be an integer >= 0, got True", "lam must be an integer >= 2, got 6.5",
         "beta_bias must be >= 0 and finite, got nan", "c_alpha must be in (0, 1], got 2.0"]),
    # without an objective's dimension, a sequence m0 has no shape to break
    "RunConfig-no-dimension": (
        lambda: RunConfig(None, "csa", m0=[1.0, 2.0, 3.0], lam=1),
        ["objective must be an ObjectiveSpec, got None", "lam must be an integer >= 2, got 1"]),
    "CmaEs": (lambda: CmaEs(default_params(2), (1.0,), 0.0),
              ["m0 must have shape (2,), got (1,)", "sigma0 must be positive and finite, got 0.0"]),
}


@pytest.mark.parametrize("build, problems", JUDGES.values(), ids=JUDGES)
def test_each_judge_lists_every_problem_in_field_order_through_pickle(build, problems):
    with pytest.raises(ValueError) as info:
        build()
    copied = pickle.loads(pickle.dumps(info.value))  # as it crosses a process pool
    for error in (info.value, copied):
        assert type(error) is ValueError
        assert (str(error), error.problems) == ("; ".join(problems), problems)
