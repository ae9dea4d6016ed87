"""Grid, potential container, and H1 norm tests."""
import re

import numpy as np
import pytest

from oracles import square_well
from pdp.grid import (
    BetaMode,
    DesignParams,
    PotentialField,
    h1_gradient,
    h1_norm_sq,
    make_grid,
    sech_well,
    trapz,
)
from pdp import fgr
from pdp.spectral import solve_ground_state


class TestGrid:
    def test_node_generation_is_deterministic(self):
        g1 = make_grid(-20, 20, 2001)
        g2 = make_grid(-20, 20, 2001)
        assert np.array_equal(g1.x, g2.x)
        assert g1.h == g2.h == 0.02

    def test_endpoints(self):
        g = make_grid(-15.0, 15.0, 1501)
        assert g.x[0] == pytest.approx(-15.0, abs=1e-12)
        assert g.x[-1] == pytest.approx(15.0, abs=1e-12)

    def test_symmetric_domain_nodes_antisymmetric(self):
        g = make_grid(-20, 20, 2001)
        assert np.array_equal(g.x, -g.x[::-1])

    def test_nodes_and_weights_are_built_once_read_only(self):
        g = make_grid(-3.0, 5.0, 101)
        center = 0.5 * (g.x_min + g.x_max)
        formula = center + g.h * (np.arange(g.n) - (g.n - 1) / 2.0)
        assert g.x.tobytes() == formula.tobytes()
        assert g.x is g.x and g.weights is g.weights
        w = np.full(g.n, g.h)
        w[0] = w[-1] = 0.5 * g.h
        assert g.weights.tobytes() == w.tobytes()
        for a in (g.x, g.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        # the kept arrays take no part in equality or hashing
        fresh = make_grid(-3.0, 5.0, 101)
        assert fresh == g and hash(fresh) == hash(g)
        assert {g: 1}[fresh] == 1

    def test_trapz_constant(self):
        g = make_grid(-3.0, 5.0, 101)
        assert trapz(g, np.ones(g.n)) == pytest.approx(8.0)

    def test_trapz_quadratic_converges(self):
        # int_{-1}^{1} x^2 dx = 2/3, trapezoid error O(h^2)
        g = make_grid(-1, 1, 2001)
        assert trapz(g, g.x**2) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_validation(self):
        for n in (2, 3):
            with pytest.raises(ValueError, match=f"n={n}"):
                make_grid(-1, 1, n)
        with pytest.raises(ValueError):
            make_grid(1, -1, 100)
        # numpy cannot size the 8n bytes of x; refused before x is read
        with pytest.raises(ValueError, match=f"n={1 << 62} is too many nodes"):
            make_grid(-1, 1, 1 << 62)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("well", [(-2.0, -3.0, -2.0), (-1.0, -3.0, -2.0)],
                             ids=["mirrored", "asymmetric"])
    def test_smallest_grids_solve(self, n, well):
        # the ground state of a well on the nodes with |x| < 2.5, against a
        # dense eigensolve of the interior rows
        g = make_grid(-3.0, 3.0, n)
        inner = np.abs(g.x) <= 2.0
        v = np.zeros(n)
        v[inner] = np.interp(g.x[inner], [-1.5, 0.0, 1.5], well)
        bs = solve_ground_state(PotentialField(g, v, 2.0))
        off = np.full(n - 3, -1.0 / g.h**2)
        H = np.diag(2.0 / g.h**2 + v[1:-1]) + np.diag(off, 1) + np.diag(off, -1)
        eig = np.linalg.eigvalsh(H)
        assert bs.lam == pytest.approx(eig[0], rel=1e-12)
        assert bs.count_negative_eigenvalues == np.count_nonzero(eig < 0) >= 1
        assert trapz(g, bs.psi**2) == pytest.approx(1.0, rel=1e-12)


class TestPotentialField:
    def test_support_enforced(self):
        g = make_grid(-10, 10, 201)
        vals = np.ones(g.n)
        with pytest.raises(ValueError):
            PotentialField(g, vals, 5.0)

    def test_support_must_be_inside_domain(self):
        g = make_grid(-10, 10, 201)
        with pytest.raises(ValueError):
            PotentialField(g, np.zeros(g.n), 10.0)
        # at the left end too: on [-10, 30] the well would not vanish at x = -10
        off = make_grid(-10.0, 30.0, 401)
        for build in (
            lambda: PotentialField(off, np.zeros(off.n), 12.0),
            lambda: sech_well(1.5, 1.5, 12.0, off),
            lambda: square_well(1.0, 2.0, 12.0, off),
        ):
            with pytest.raises(ValueError, match="strictly inside"):
                build()

    def test_values_must_match_the_grid(self):
        g = make_grid(-10, 10, 201)
        with pytest.raises(ValueError, match="values length does not match grid"):
            PotentialField(g, np.zeros(g.n - 1), 5.0)

    def test_values_read_only(self):
        g = make_grid(-10, 10, 201)
        V = PotentialField(g, np.zeros(g.n), 5.0)
        with pytest.raises(ValueError):
            V.values[3] = 1.0

    def test_with_values_masks_outside_support(self):
        g = make_grid(-10, 10, 201)
        V = PotentialField(g, np.zeros(g.n), 5.0)
        W = V.with_values(np.ones(g.n))
        assert np.all(W.values[np.abs(g.x) > 5.0] == 0.0)
        assert np.all(W.values[np.abs(g.x) <= 5.0] == 1.0)

    def test_sech_well_symmetric(self):
        g = make_grid(-20, 20, 2001)
        V = sech_well(1.5, 1.5, 12.0, g)
        assert np.array_equal(V.values, V.values[::-1])
        assert V.values.min() == pytest.approx(-1.5)

    @pytest.mark.parametrize("A, B", [(0.0, 1.5), (1.5, -1.0)], ids=["A", "B"])
    def test_sech_well_needs_positive_depth_and_rate(self, A, B):
        g = make_grid(-20, 20, 2001)
        with pytest.raises(ValueError, match="A and B must be positive"):
            sech_well(A, B, 12.0, g)

    def test_square_well_mean_value_at_jump(self):
        g = make_grid(-20, 20, 2001)
        V = square_well(1.3, 2.0, 15.0, g)
        at_jump = np.isclose(np.abs(g.x), 2.0)
        assert np.all(V.values[at_jump] == -0.65)


class TestDesignParams:
    def test_fixed_mode_requires_beta(self):
        with pytest.raises(ValueError):
            DesignParams(a=12, b=1e3, mu=2, delta=1e-4)

    def test_beta_values_equals_v(self):
        g = make_grid(-20, 20, 401)
        V = sech_well(1.0, 1.0, 12.0, g)
        p = DesignParams(a=12, b=1e3, mu=2, delta=1e-4, beta_mode=BetaMode.EQUALS_V)
        assert np.array_equal(p.beta_values(V), V.values)

    @pytest.mark.parametrize("domain, n", [((-30.0, 30.0), 2001), ((-20.0, 20.0), 1001)],
                             ids=["wider_domain", "even_half_rows"])
    def test_fixed_beta_on_another_grid_is_refused(self, domain, n):
        # the nodes of such a beta are not V's: Gamma used to come out
        # 0.0305 (a wider domain) or 7.6e-8 (c + 1 rows) at the headline
        # start, where it is 0.00626
        g = make_grid(-20, 20, 2001)
        other = make_grid(*domain, n)
        beta = PotentialField(other, np.where(np.abs(other.x) <= 2.0, 1.0, 0.0), 12.0)
        p = DesignParams(a=12, b=1e3, mu=2, delta=1e-4, beta=beta)
        V = sech_well(1.5, 1.5, 12.0, g)
        with pytest.raises(ValueError, match=rf"beta is sampled on {re.escape(repr(other))}, "
                                              rf"V on {re.escape(repr(g))}"):
            p.beta_values(V)
        fgr.clear_cache()
        with pytest.raises(ValueError, match="beta is sampled on"):
            fgr.gamma(V, p)
        own = PotentialField(g, np.where(np.abs(g.x) <= 2.0, 1.0, 0.0), 12.0)
        res = fgr.gamma(V, DesignParams(a=12, b=1e3, mu=2, delta=1e-4, beta=own))
        with pytest.raises(ValueError, match="beta is sampled on"):
            fgr.gamma_gradient(V, p, res)

    def test_positivity_validation(self):
        g = make_grid(-20, 20, 401)
        beta = PotentialField(g, np.zeros(g.n), 12.0)
        with pytest.raises(ValueError):
            DesignParams(a=-1, b=1e3, mu=2, delta=1e-4, beta=beta)

    @pytest.mark.parametrize("key", ["a", "b", "mu", "delta", "wronskian_tol"])
    def test_nan_is_rejected(self, key):
        # nan <= 0 is False, so a check written as x <= 0 let a NaN through
        g = make_grid(-20, 20, 401)
        beta = PotentialField(g, np.zeros(g.n), 12.0)
        bounds = {"a": 12.0, "b": 1e3, "mu": 2.0, "delta": 1e-4, key: float("nan")}
        with pytest.raises(ValueError, match="positive"):
            DesignParams(**bounds, beta=beta)


class TestH1Norm:
    def test_zero_potential(self):
        g = make_grid(-20, 20, 2001)
        V = PotentialField(g, np.zeros(g.n), 12.0)
        assert h1_norm_sq(V) == 0.0

    def test_sine_analytic_value(self):
        # V = sin(pi x) on [-1,1]: int sin^2 = 1, int (pi cos)^2 = pi^2
        g = make_grid(-4, 4, 4001)
        vals = np.where(np.abs(g.x) <= 1.0, np.sin(np.pi * g.x), 0.0)
        V = PotentialField(g, vals, 2.0)
        assert h1_norm_sq(V) == pytest.approx(1.0 + np.pi**2, rel=1e-3)

    def test_second_order_convergence_smooth(self):
        # smooth test function (Gaussian, tails below rounding at |x|=6);
        # reference value from adaptive quadrature
        from scipy.integrate import quad

        exact = sum(
            quad(f, -np.inf, np.inf)[0]
            for f in (
                lambda x: np.exp(-2 * x**2),
                lambda x: 4 * x**2 * np.exp(-2 * x**2),
            )
        )
        errs = []
        for n in (251, 501):
            g = make_grid(-8, 8, n)
            vals = np.where(np.abs(g.x) <= 6.0, np.exp(-g.x**2), 0.0)
            errs.append(abs(h1_norm_sq(PotentialField(g, vals, 6.0)) - exact))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_gradient_matches_finite_differences(self):
        g = make_grid(-10, 10, 501)
        rng = np.random.default_rng(5)
        vals = np.where(np.abs(g.x) <= 6.0, np.exp(-g.x**2), 0.0)
        V = PotentialField(g, vals, 6.0)
        grad = h1_gradient(V)
        w = np.where(np.abs(g.x) <= 6.0, rng.standard_normal(g.n), 0.0)
        eps = 1e-6
        fp = h1_norm_sq(PotentialField(g, np.where(np.abs(g.x) <= 6, vals + eps * w, 0), 6.0))
        fm = h1_norm_sq(PotentialField(g, np.where(np.abs(g.x) <= 6, vals - eps * w, 0), 6.0))
        fd = (fp - fm) / (2 * eps)
        assert fd == pytest.approx(grad @ w, rel=1e-8)
