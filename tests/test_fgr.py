"""Decay-rate evaluation and Frechet-gradient tests (finite-difference checked)."""
import numpy as np
import pytest

from pdp import fgr
from pdp.errors import ResonanceBelowCutoff, SolverFailure
from pdp.grid import (
    BetaMode,
    DesignParams,
    PotentialField,
    make_grid,
    sech_well,
)
from pdp.spectral import wronskian_at_zero


@pytest.fixture(scope="module")
def grid():
    return make_grid(-20, 20, 2001)


@pytest.fixture(scope="module")
def V(grid):
    return sech_well(1.5, 1.5, 12.0, grid)


@pytest.fixture(scope="module")
def params_equals_v():
    return DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V)


@pytest.fixture(scope="module")
def params_fixed(grid):
    beta = PotentialField(
        grid, np.where(np.abs(grid.x) <= 2.0, 1.0, 0.0), 12.0
    )
    return DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta=beta)


def directional_fd(func, V, w, eps=1e-3):
    """Central finite difference of a scalar functional along w."""
    fp = func(V.with_values(V.values + eps * w))
    fm = func(V.with_values(V.values - eps * w))
    return (fp - fm) / (2.0 * eps)


def bump_directions(grid, a, seed, count=3):
    """Smooth compactly supported perturbations with random centers."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(-0.6 * a, 0.6 * a)
        s = rng.uniform(0.5, 2.0)
        w = np.where(np.abs(grid.x) <= a, np.exp(-((grid.x - c) ** 2) / s), 0.0)
        out.append(w)
    return out


class TestGamma:
    def test_positive_and_reasonable(self, V, params_equals_v):
        res = fgr.gamma(V, params_equals_v)
        assert res.gamma > 0
        assert res.k_res == pytest.approx(np.sqrt(res.bound_state.lam + 2.0))
        assert 1e-4 < res.gamma < 1.0

    def test_matches_matrix_element_definition(self, V, params_equals_v):
        res = fgr.gamma(V, params_equals_v)
        assert res.gamma == pytest.approx(
            (abs(res.m_plus) ** 2 + abs(res.m_minus) ** 2) / (16 * res.k_res),
            rel=1e-14,
        )

    def test_jost_form_equivalence(self, V, params_equals_v, params_fixed):
        for p in (params_equals_v, params_fixed):
            res = fgr.gamma(V, p)
            assert fgr.gamma_jost_form(V, p) == pytest.approx(res.gamma, rel=1e-8)

    def test_jost_form_of_opaque_potential_raises(self, grid, V, params_fixed):
        # walls of height 3000 on 3 < |x| <= 11: t(k_res) underflows to 0
        wall = np.where((np.abs(grid.x) > 3.0) & (np.abs(grid.x) <= 11.0), 3000.0, 0.0)
        opaque = V.with_values(V.values + wall)
        res = fgr.gamma(opaque, params_fixed)
        assert res.scattering.t == 0.0 and res.gamma > 0.0
        with pytest.raises(SolverFailure):
            fgr.gamma_jost_form(opaque, params_fixed)

    def test_zero_beta_gives_zero_rate(self, grid, V):
        beta0 = PotentialField(grid, np.zeros(grid.n), 12.0)
        p = DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta=beta0)
        assert fgr.gamma(V, p).gamma == 0.0

    def test_resonance_below_cutoff(self, grid):
        # deep well: lambda ~ -3.3, mu = 1 leaves lambda + mu < 0
        Vd = sech_well(4.0, 1.0, 12.0, grid)
        p = DesignParams(a=12.0, b=1e3, mu=1.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V)
        with pytest.raises(ResonanceBelowCutoff):
            fgr.gamma(Vd, p)

    def test_diagnostics_keys(self, V, params_equals_v):
        d = fgr.gamma(V, params_equals_v).diagnostics()
        assert set(d) == {
            "gamma", "k_res", "lambda", "t_sq_at_k_res", "m_plus_sq", "m_minus_sq"
        }

    def test_cache_returns_same_object(self, V, params_equals_v):
        fgr.clear_cache()
        r1 = fgr.gamma(V, params_equals_v)
        r2 = fgr.gamma(V, params_equals_v)
        assert r1 is r2
        fgr.clear_cache()
        assert fgr.gamma(V, params_equals_v) is not r1

    def test_cache_distinguishes_mu(self, V, params_equals_v):
        p2 = DesignParams(
            a=12.0, b=1e3, mu=2.5, delta=1e-4, beta_mode=BetaMode.EQUALS_V
        )
        assert fgr.gamma(V, params_equals_v).gamma != fgr.gamma(V, p2).gamma


class TestGradientField:
    def test_pair_is_weighted_inner_product(self, grid, V):
        g = fgr.lambda_gradient(V)
        w = np.exp(-grid.x**2)
        assert g.pair(w) == pytest.approx(float(grid.weights @ (g.values * w)))

    def test_zero_outside_support(self, V, params_equals_v):
        for g in (
            fgr.lambda_gradient(V),
            fgr.k_gradient(V, params_equals_v),
            fgr.wronskian_gradient(V),
            fgr.gamma_gradient(V, params_equals_v),
        ):
            assert np.all(g.values[~V.support_mask] == 0.0)


class TestLambdaGradient:
    def test_finite_difference(self, grid, V):
        g = fgr.lambda_gradient(V)

        def lam(W):
            from pdp.spectral import solve_ground_state

            return solve_ground_state(W).lam

        for w in bump_directions(grid, 12.0, seed=10):
            fd = directional_fd(lam, V, w)
            assert fd == pytest.approx(g.pair(w), rel=1e-4)

    def test_symmetric_potential_gives_symmetric_field(self, V):
        g = fgr.lambda_gradient(V).values
        np.testing.assert_allclose(g, g[::-1], atol=1e-12)


class TestKGradient:
    def test_is_lambda_gradient_over_two_k(self, V, params_equals_v):
        res = fgr.gamma(V, params_equals_v)
        gk = fgr.k_gradient(V, params_equals_v).values
        gl = fgr.lambda_gradient(V, res.bound_state).values
        np.testing.assert_allclose(gk, gl / (2 * res.k_res), rtol=1e-13)

    def test_finite_difference(self, grid, V, params_equals_v):
        g = fgr.k_gradient(V, params_equals_v)

        def kres(W):
            return fgr.gamma(W, params_equals_v).k_res

        for w in bump_directions(grid, 12.0, seed=11):
            fd = directional_fd(kres, V, w)
            assert fd == pytest.approx(g.pair(w), rel=1e-4)


class TestWronskianGradient:
    def test_finite_difference(self, grid, V):
        g = fgr.wronskian_gradient(V)

        def w0(W):
            return wronskian_at_zero(W).w0

        for w in bump_directions(grid, 12.0, seed=12):
            fd = directional_fd(w0, V, w)
            assert fd == pytest.approx(g.pair(w), rel=1e-4)


class TestGammaGradient:
    @pytest.mark.parametrize("fix", ["equals_v", "fixed"])
    def test_finite_difference(self, grid, V, params_equals_v, params_fixed, fix):
        p = params_equals_v if fix == "equals_v" else params_fixed
        g = fgr.gamma_gradient(V, p)

        def rate(W):
            return fgr.gamma(W, p).gamma

        for w in bump_directions(grid, 12.0, seed=13):
            fd = directional_fd(rate, V, w)
            assert fd == pytest.approx(g.pair(w), rel=1e-3)

    def test_random_direction(self, grid, V, params_equals_v):
        rng = np.random.default_rng(14)
        raw = rng.standard_normal(grid.n)
        # smooth the noise so the finite difference is not dominated by
        # grid-scale components
        w = np.convolve(raw, np.ones(25) / 25, mode="same")
        w = np.where(np.abs(grid.x) <= 12.0, w, 0.0)
        g = fgr.gamma_gradient(V, params_equals_v)
        fd = directional_fd(lambda W: fgr.gamma(W, params_equals_v).gamma, V, w)
        assert fd == pytest.approx(g.pair(w), rel=1e-3)

    def test_symmetric_potential_gives_symmetric_field(self, V, params_equals_v):
        g = fgr.gamma_gradient(V, params_equals_v).values
        np.testing.assert_allclose(g, g[::-1], atol=1e-10 * np.max(np.abs(g)))
