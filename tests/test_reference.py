"""One generation written out from the equations, against the engine.

The golden digests pin the engine against itself.  This module pins it
against an independent transcription of one generation: two-point
step-size adaptation as in Hansen, "CMA-ES with Two-Point Step-Size
Adaptation" (arXiv:0805.0231) -- the test points along the realized mean
shift, the win/lose signal, its smoothing and the legacy geometry of
evolutionary gradient search -- and the cumulative baseline as in Hansen's
CMA-ES tutorial (arXiv:1604.00772).  The reference uses plain loops,
one matrix-vector product per offspring and ``np.outer``, and takes from
the package only the strategy constants.

Each generation starts from the engine's own state, so rounding differences
cannot grow over the run.  The reference is given the engine's
standard-normal draws and the matrix A its factor samples with (y = A z):
the engine's own factor, or one forced to an eigendecomposition, a Cholesky
factor or a floored eigendecomposition of C.  The cumulative baseline
whitens the mean step with that A, A^(-1) <y>.  At n=60 (lam 16) the
factor is refreshed every third generation and at n=400 (lam 21) every
19th, so A comes from the last refresh while the update acts on the
current C.
"""

import copy
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from tpcma import sampler
from tpcma.engine import CONTROLLERS, CmaEs
from tpcma.params import StrategyParams, default_params

RTOL = 1e-12
GENERATIONS = 50


@functools.cache
def ellipsoid_scales(n):
    return tuple(1e6 ** (i / (n - 1)) if n > 1 else 1.0 for i in range(n))


def ellipsoid(x):
    total = 0.0
    for scale, value in zip(ellipsoid_scales(len(x)), x.tolist()):
        total += scale * value**2
    return total


def reference_generation(p: StrategyParams, state, z, A, f):
    """The state after one generation sampled from m + sigma A z_k."""
    m, sigma, C, p_c, alpha_s, p_sigma, g = state
    n, lam, mu, w = p.n, p.lam, p.mu, p.weights

    ys = [A @ z[k] for k in range(lam)]
    fitness = [f(m + sigma * y) for y in ys]
    order = sorted(range(lam), key=lambda k: fitness[k])  # stable: ties keep draw order
    selected = [ys[k] for k in order[:mu]]
    y_w = np.zeros(n)
    for i in range(mu):
        y_w = y_w + w[i] * selected[i]
    m_new = m + sigma * y_w

    if p.mode != "csa":
        if p.mode == "tpa_legacy":  # step lengths zeta sigma and sigma / zeta along y_w, from the old mean
            zeta = 1.0 + p.alpha_test
            x_plus, x_minus = m + zeta * sigma * y_w, m + sigma * y_w / zeta
        else:  # symmetric about the new mean
            step = p.alpha_test * sigma * y_w
            x_plus, x_minus = m_new + step, m_new - step
        if f(x_minus) < f(x_plus):
            alpha_act = -p.alpha_change + p.beta_bias
        else:
            alpha_act = p.alpha_change
        alpha_s = (1.0 - p.c_alpha) * alpha_s + p.c_alpha * alpha_act
        sigma = sigma * math.exp(alpha_s)
        if p.mode == "tpa_legacy":  # the mean moves with the new step-size
            m_new = m + sigma * y_w
        decay = 1.0 - p.c_alpha
        threshold = (1.0 - decay**9) * (1.0 - decay ** (g + 1)) * p.alpha_change
        h_sigma = 0 if alpha_s > threshold else 1
    else:
        # whitened with the matrix sampled from, which may lag C: A^(-1) is
        # (A A^T)^(-1/2) up to a rotation, so the path length is unchanged
        c_s = p.c_sigma
        whitened = np.linalg.solve(A, y_w)
        p_sigma = (1.0 - c_s) * p_sigma + math.sqrt(c_s * (2.0 - c_s) * p.mu_w) * whitened
        chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
        length = math.sqrt(sum(v * v for v in p_sigma))
        sigma = sigma * math.exp(c_s / p.d_sigma * (length / chi_n - 1.0))
        bias_free = length / math.sqrt(1.0 - (1.0 - c_s) ** (2 * (g + 1)))
        h_sigma = 1 if bias_free < (1.4 + 2.0 / (n + 1.0)) * chi_n else 0

    c_c, c_1, c_mu = p.c_c, p.c_1, p.c_mu
    p_c = (1.0 - c_c) * p_c + h_sigma * math.sqrt(c_c * (2.0 - c_c) * p.mu_w) * y_w
    C = (1.0 - c_1 - c_mu) * C + c_1 * np.outer(p_c, p_c)
    for i in range(mu):
        C = C + c_mu * w[i] * np.outer(selected[i], selected[i])
    return m_new, sigma, C, p_c, alpha_s, p_sigma


class _UnitDraws:
    """Draws the identity matrix, so that sampling with it yields A^T."""

    @staticmethod
    def standard_normal(shape):
        return np.eye(*shape)


def sampling_matrix(factor, n):
    """The matrix A with y = A z that the factor samples with."""
    _, Y, _ = sampler.sample_population(np.zeros(n), 1.0, factor, n, _UnitDraws())
    return Y.T


def forced_decompose(kind):
    """``sampler.decompose`` with the sampling matrix replaced by an
    eigendecomposition, a Cholesky factor or, marked ``repaired``, an
    eigendecomposition whose eigenvalues are raised to their median, a floor
    that bites whenever C is not isotropic."""
    decompose = sampler.decompose

    def forced(C):
        if kind == "cholesky":
            return replace(decompose(C), transform=np.linalg.cholesky(C))
        eigenvalues, basis = np.linalg.eigh(C)
        if kind == "floored":
            eigenvalues = np.maximum(eigenvalues, np.median(eigenvalues))
        A = basis * np.sqrt(eigenvalues)
        return replace(decompose(C), transform=A, repaired=kind == "floored")

    return forced


def assert_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert np.linalg.norm(actual - expected) <= RTOL * np.linalg.norm(expected)


def check_generations(controller, n, kind, generations):
    """Run the engine ``generations`` generations against the reference."""
    p = replace(default_params(n), **CONTROLLERS[controller])
    two_point = p.mode != "csa"
    # a small start makes the step-size ramp up, which the stall gates act on
    opt = CmaEs(p, np.full(n, 3.0), 1e-3, rng=np.random.default_rng(n))
    factors = []
    for _ in range(generations):
        state = (opt.m.copy(), opt.sigma, opt.C, opt.p_c, opt.alpha_s, opt.p_sigma,
                 opt.generation)
        draws = copy.deepcopy(opt.rng)
        X = opt.ask()
        z = draws.standard_normal((p.lam, n))  # offspring-major, as sample_population draws
        if not factors or opt._factor is not factors[-1]:  # A changes at a refresh only
            A = sampling_matrix(opt._factor, n)
        factors.append(opt._factor)
        opt.tell([ellipsoid(x) for x in X])
        if two_point:
            opt.tell([ellipsoid(x) for x in opt.ask()])

        m, sigma, C, p_c, alpha_s, p_sigma = reference_generation(p, state, z, A, ellipsoid)
        assert_close(opt.m, m)
        assert_close(opt.sigma, sigma)
        assert_close(opt.C, C)
        assert_close(opt.p_c, p_c)
        if two_point:
            assert_close(opt.alpha_s, alpha_s)
            assert opt.p_sigma is None
        else:
            assert math.isnan(opt.alpha_s)
            assert_close(opt.p_sigma, p_sigma)
    assert opt.generation == generations
    # one factor per gap of max(1, n // lam) generations, each sampling them all
    gap = max(1, n // p.lam)
    assert [id(f) for f in factors] == [id(factors[g - g % gap]) for g in range(generations)]
    assert len({id(f) for f in factors}) == math.ceil(generations / gap)
    assert any(f.repaired for f in factors) == (kind == "floored")


@pytest.mark.parametrize("kind", ["engine", "eigh", "cholesky", "floored"])
@pytest.mark.parametrize("n", [2, 10, 60])
@pytest.mark.parametrize("controller", list(CONTROLLERS))
def test_generation_matches_the_equations(controller, n, kind, monkeypatch):
    if kind != "engine":
        monkeypatch.setattr(sampler, "decompose", forced_decompose(kind))
    check_generations(controller, n, kind, GENERATIONS)


@pytest.mark.parametrize("controller", list(CONTROLLERS))
def test_generation_matches_the_equations_at_n400(controller):
    # lam 21: the factor is refreshed at generations 0 and 19, and the
    # covariance update adds the decayed C in more than one block
    check_generations(controller, 400, "engine", 25)
