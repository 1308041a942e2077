import math
from dataclasses import replace

import numpy as np
import pytest

from tpcma.params import (
    StrategyParams,
    compute_weights,
    default_params,
    nearest_int_half_down,
    variance_effective_mass,
)


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
        assert not p.legacy

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

    def test_overrides_validated_not_clamped(self):
        p = replace(default_params(10), beta_bias=0.1, c_alpha=0.5)
        assert p.beta_bias == 0.1
        assert p.c_alpha == 0.5
        with pytest.raises(ValueError, match="c_alpha"):
            replace(default_params(10), c_alpha=1.5)
        with pytest.raises(ValueError, match="beta_bias"):
            replace(default_params(10), beta_bias=-0.1)
        with pytest.raises(ValueError, match="c_1"):
            replace(default_params(10), c_1=0.9, c_mu=0.9)


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
        with pytest.raises(ValueError, match=field):
            replace(default_params(10), **{field: value})


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(1.5, 1), (2.5, 2), (1.4, 1), (1.6, 2), (5.0, 5), (0.5, 0), (4.5, 4)],
    )
    def test_nearest_int_half_down(self, value, expected):
        assert nearest_int_half_down(value) == expected


class TestWeights:
    def test_two_parent_weights(self):
        w = compute_weights(2.0, 2)
        expected = weights_oracle(2.0, 2)
        assert w == pytest.approx(expected, rel=1e-13)
        # frozen from the oracle
        assert w[0] == pytest.approx(0.8041628599327295, rel=1e-12)
        assert w[1] == pytest.approx(0.19583714006727054, rel=1e-12)

    def test_single_weight_normalizes(self):
        assert compute_weights(1.0, 1).tolist() == [1.0]

    def test_five_parent_first_weight(self):
        w = compute_weights(5.0, 5)
        assert w[0] == pytest.approx(0.45627264690340597, rel=1e-12)
        assert w == pytest.approx(weights_oracle(5.0, 5), rel=1e-13)

    def test_rejects_nonpositive_last_weight(self):
        with pytest.raises(ValueError):
            compute_weights(1.0, 2)  # ln(1.5) - ln(2) < 0
        with pytest.raises(ValueError):
            compute_weights(2.0, 0)


class TestVarianceEffectiveMass:
    def test_equal_weights_give_mu(self):
        for mu in (1, 2, 4, 7):
            w = np.full(mu, 1.0 / mu)
            assert variance_effective_mass(w) == pytest.approx(mu, rel=1e-12)

    def test_single_weight(self):
        assert variance_effective_mass([1.0]) == 1.0

    def test_two_weight_value(self):
        w = weights_oracle(2.0, 2)
        oracle = 1.0 / sum(x * x for x in w)
        assert variance_effective_mass(w) == pytest.approx(oracle, rel=1e-13)
        assert variance_effective_mass(w) == pytest.approx(1.4597898888525862, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            variance_effective_mass([])
        with pytest.raises(ValueError):
            variance_effective_mass([0.7, 0.2])  # does not sum to 1
        with pytest.raises(ValueError):
            variance_effective_mass([1.2, -0.2])


class TestInvariants:
    def test_weight_invariants_all_dimensions(self):
        for n in range(1, 101):
            p = default_params(n)
            assert abs(p.weights.sum() - 1.0) <= 1e-12
            if p.mu > 1:
                assert np.all(np.diff(p.weights) < 0.0), f"weights not strictly decreasing, n={n}"
            assert p.c_1 + p.c_mu <= 1.0
            assert 1.0 - 1e-9 <= p.mu_w <= p.mu + 1e-9

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
