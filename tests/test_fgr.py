"""Decay-rate evaluation and Frechet-gradient tests (finite-difference checked)."""
import dataclasses

import numpy as np
import pytest

import oracles
from pdp import fgr, kernels, spectral
from pdp.errors import ResonanceBelowCutoff, SolverFailure
from pdp.grid import (
    BetaMode,
    DesignParams,
    PotentialField,
    make_grid,
    sech_well,
    trapz,
)
from pdp.spectral import solve_ground_state, wronskian_at_zero


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


def pair(grid, g, w):
    """The directional derivative along w of the functional whose field is g."""
    return float(trapz(grid, g * w))


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

    def test_one_eigensolve_and_t_on_first_read(self, V, params_fixed, monkeypatch):
        # the ground state and its count come from one tridiagonal
        # eigensolve; the support recurrence for t waits for a read
        from pdp import kernels, spectral

        calls = {"eig": 0, "rec": 0}
        eig, rec = kernels._lowest_eigenpair, spectral._support_recurrence

        def counted_eig(*args):
            calls["eig"] += 1
            return eig(*args)

        def counted_rec(*args):
            calls["rec"] += 1
            return rec(*args)

        monkeypatch.setattr(kernels, "_lowest_eigenpair", counted_eig)
        monkeypatch.setattr(spectral, "_support_recurrence", counted_rec)
        fgr.clear_cache()
        st = fgr.gamma(V, params_fixed).scattering
        assert calls == {"eig": 1, "rec": 0}
        t = st.t
        assert st.t == t
        assert calls == {"eig": 1, "rec": 1}
        assert t == spectral.transmission(V, st.k)

    def test_resonance_above_lattice_cutoff_is_solver_failure(self):
        # h = 0.1 resolves k < 2/h = 20; mu = 500 puts k near 22.3
        coarse = make_grid(-20, 20, 401)
        Vc = sech_well(1.5, 1.5, 12.0, coarse)
        p = DesignParams(a=12.0, b=1e3, mu=500.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V)
        with pytest.raises(SolverFailure, match=r"k = 22\.3.*h = 0\.1"):
            fgr.gamma(Vc, p)

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

    @pytest.mark.parametrize("shift", [0.0, 2.5], ids=["symmetric", "shifted"])
    def test_sub_cutoff_wells_are_rejected_before_the_eigensolve(
        self, grid, shift, monkeypatch
    ):
        # wells with lambda + mu from -0.3 to +0.3: one pivot sweep of
        # H_V + mu rejects exactly those that the eigensolve puts at or
        # below the cutoff, and a rejected well costs no eigensolve
        solves = []
        solve = fgr.solve_ground_state
        monkeypatch.setattr(fgr, "solve_ground_state", lambda W: solves.append(1) or solve(W))
        for depth in (1.5, 3.0):
            v = np.where(np.abs(grid.x) <= 12.0, -depth / np.cosh(1.5 * (grid.x - shift)), 0.0)
            W = PotentialField(grid, v, 12.0)
            assert W.mirrored == (shift == 0.0)
            lam = spectral.solve_ground_state(W).lam
            for gap in (-0.3, -0.2, -0.1, -0.01, 0.01, 0.1, 0.2, 0.3):
                p = DesignParams(
                    a=12.0, b=1e3, mu=gap - lam, delta=1e-4, beta_mode=BetaMode.EQUALS_V
                )
                fgr.clear_cache()
                solves.clear()
                if lam + p.mu <= 0.0:
                    with pytest.raises(ResonanceBelowCutoff):
                        fgr.gamma(W, p)
                    assert solves == []
                else:
                    assert fgr.gamma(W, p).bound_state.lam == lam
                    assert solves == [1]

    def test_cutoff_is_checked_again_after_the_eigensolve(self, V, monkeypatch):
        # should the pivot sweep miss an eigenvalue at or below -mu, the
        # eigensolve's lambda (-0.67888 here, mu = 0.5) is checked again
        monkeypatch.setattr(fgr, "has_eigenvalue_at_or_below", lambda W, energy: False)
        p = DesignParams(a=12.0, b=1e3, mu=0.5, delta=1e-4, beta_mode=BetaMode.EQUALS_V)
        fgr.clear_cache()
        with pytest.raises(
            ResonanceBelowCutoff,
            match=r"^lambda \+ mu = -0\.178881 <= 0: forced state below the continuum$",
        ):
            fgr.gamma(V, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_non_finite_potential_raises_value_error(self, grid, params_fixed, bad, mirrored):
        v = sech_well(1.5, 1.5, 12.0, grid).values.copy()
        v[grid.n // 2 + 3] = bad
        if mirrored:
            v[grid.n // 2 - 3] = bad
        fgr.clear_cache()
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            fgr.gamma(PotentialField(grid, v, 12.0), params_fixed)

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


class TestLastPointMemo:
    """fgr.gamma keeps the last point it solved and nothing else."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        eig = kernels._lowest_eigenpair

        def counted(*args):
            calls.append(1)
            return eig(*args)

        monkeypatch.setattr(kernels, "_lowest_eigenpair", counted)
        fgr.clear_cache()
        return calls

    def test_repeat_with_rebuilt_potential_makes_no_solve(self, V, params_fixed, solves):
        res = fgr.gamma(V, params_fixed)
        W = V.with_values(V.values.copy())
        assert W is not V
        assert fgr.gamma(W, params_fixed) is res
        assert len(solves) == 1

    def test_equal_params_built_anew_solve_again(self, V, params_fixed, solves):
        fgr.gamma(V, params_fixed)
        fgr.gamma(V, dataclasses.replace(params_fixed))
        assert len(solves) == 2

    def test_only_the_last_point_is_kept(self, V, params_fixed, solves):
        V2 = V.with_values(1.01 * V.values)
        for W in (V, V2, V):
            fgr.gamma(W, params_fixed)
        assert len(solves) == 3

    def test_clear_cache_forces_a_solve(self, V, params_fixed, solves):
        fgr.gamma(V, params_fixed)
        fgr.clear_cache()
        fgr.gamma(V, params_fixed)
        assert len(solves) == 2


class TestFields:
    def test_arrays_on_every_node(self, V, params_equals_v):
        # the fields are not restricted to the support: the barrier
        # objective zeroes its gradient off [-a, a] (test_optimizer)
        res = fgr.gamma(V, params_equals_v)
        off = ~V.support_mask
        for g in (
            fgr.lambda_gradient(res.bound_state),
            fgr.k_gradient(res),
            fgr.wronskian_gradient(wronskian_at_zero(V)),
            fgr.gamma_gradient(V, params_equals_v, res),
        ):
            assert type(g) is np.ndarray and g.shape == (V.grid.n,)
            assert np.any(g[off] != 0.0)


class TestLambdaGradient:
    def test_finite_difference(self, grid, V):
        g = fgr.lambda_gradient(solve_ground_state(V))

        def lam(W):
            return solve_ground_state(W).lam

        for w in bump_directions(grid, 12.0, seed=10):
            fd = directional_fd(lam, V, w)
            assert fd == pytest.approx(pair(grid, g, w), rel=1e-4)

    def test_symmetric_potential_gives_symmetric_field(self, V):
        g = fgr.lambda_gradient(solve_ground_state(V))
        np.testing.assert_allclose(g, g[::-1], atol=1e-12)


class TestKGradient:
    def test_is_lambda_gradient_over_two_k(self, V, params_equals_v):
        res = fgr.gamma(V, params_equals_v)
        gk = fgr.k_gradient(res)
        gl = fgr.lambda_gradient(res.bound_state)
        np.testing.assert_allclose(gk, gl / (2 * res.k_res), rtol=1e-13)

    def test_finite_difference(self, grid, V, params_equals_v):
        g = fgr.k_gradient(fgr.gamma(V, params_equals_v))

        def kres(W):
            return fgr.gamma(W, params_equals_v).k_res

        for w in bump_directions(grid, 12.0, seed=11):
            fd = directional_fd(kres, V, w)
            assert fd == pytest.approx(pair(grid, g, w), rel=1e-4)


class TestWronskianGradient:
    def test_finite_difference(self, grid, V):
        g = fgr.wronskian_gradient(wronskian_at_zero(V))

        def w0(W):
            return wronskian_at_zero(W).w0

        for w in bump_directions(grid, 12.0, seed=12):
            fd = directional_fd(w0, V, w)
            assert fd == pytest.approx(pair(grid, g, w), rel=1e-4)


def walled_sech(grid):
    """a=12 sech well with a height-40 wall on 6 < x < 7 (psi not even)."""
    wall = np.where((grid.x > 6.0) & (grid.x < 7.0), 40.0, 0.0)
    return PotentialField(grid, sech_well(1.5, 1.5, 12.0, grid).values + wall, 12.0)


def gaussian_well(grid):
    vals = np.where(np.abs(grid.x) <= 10, -0.9 * np.exp(-grid.x**2 / 4), 0.0)
    return PotentialField(grid, vals, 10.0)


class TestWaveKPairings:
    # fgr._wave_k_pairings gives c_+- = trapz(beta psi de_+-/dk) from the
    # gradient's one outgoing solve, by adjointness; the oracle solves the
    # two tangent systems of the same discrete model.  Every well here and
    # its beta read the same reversed, so the even half's one pairing,
    # trapz(beta psi de_even/dk), is checked against (c_+ + c_-)/2 too
    @pytest.mark.parametrize(
        "n, a, build",
        [
            (2001, 12.0, lambda g: sech_well(1.5, 1.5, 12.0, g)),
            (3001, 12.0, lambda g: sech_well(1.5, 1.5, 12.0, g)),
            (2001, 10.0, gaussian_well),
        ],
        ids=["sech-2001", "sech-3001", "gaussian"],
    )
    @pytest.mark.parametrize("mode", ["equals_v", "fixed"])
    def test_matches_tangent_solves(self, n, a, build, mode):
        # at n = 3001 both paths are up to 5e-12 from a 40-digit evaluation
        # of the same float64 inputs, and from a tangent solve by banded LU;
        # with each other they agree to 2.4e-13 at most here.  The even
        # half's pairing is within 5e-12 of the oracle on the sech wells
        g = make_grid(-20.0, 20.0, n)
        W = build(g)
        if mode == "equals_v":
            p = DesignParams(a=a, b=1e3, mu=2.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V)
        else:
            beta = PotentialField(g, np.where(np.abs(g.x) <= 2.0, 1.0, 0.0), a)
            p = DesignParams(a=a, b=1e3, mu=2.0, delta=1e-4, beta=beta)
        res = fgr.gamma(W, p)
        src = p.beta_values(W) * res.bound_state.psi
        waves, rbp = spectral.distorted_plane_waves(res.scattering, src)
        c = fgr._wave_k_pairings(W, res.scattering, waves, src, rbp)
        a_p, a_m = oracles.scattering_k_derivative(W, res.k_res, waves)
        c_orc = [complex(trapz(g, src * a_orc)) for a_orc in (a_p, a_m)]
        for c_adj, c_o in zip(c, c_orc):
            assert abs(c_adj - c_o) <= 1e-12 * abs(c_o)
        rows = n // 2 + 1
        rbp = spectral.outgoing_resolvent_solve(W, res.k_res, src[:rows])
        (c_even,) = fgr._wave_k_pairings(W, res.scattering, res.waves, src[:rows], rbp)
        c_o = 0.5 * (c_orc[0] + c_orc[1])
        assert abs(c_even - c_o) <= 1e-11 * abs(c_o)

    def test_outgoing_matrix_is_complex_symmetric(self, V):
        # the adjoint identity uses A^T = A: one array is both off-diagonals
        q = spectral.lattice_wavenumber(1.1, V.grid.h)
        dl, d, du = spectral._robin_system(V, 1.1 * 1.1, np.exp(1j * q * V.grid.h))
        assert dl is du and np.iscomplexobj(d)


def complex_solve_shapes(V, params, monkeypatch):
    """The right-hand-side shape of each complex solve of gamma and its gradient."""
    calls = []
    gtsv = spectral._gtsv_solve

    def counted(dl, d, du, b, **kwargs):
        if np.iscomplexobj(d) or np.iscomplexobj(b):
            calls.append(np.shape(b))
        return gtsv(dl, d, du, b, **kwargs)

    monkeypatch.setattr(spectral, "_gtsv_solve", counted)
    fgr.clear_cache()
    res = fgr.gamma(V, params)
    fgr.gamma_gradient(V, params, res)
    return calls


class TestGammaGradient:
    def test_one_complex_solve_per_evaluation(self, V, params_fixed, monkeypatch):
        # V and beta read the same reversed: e_even and R(k)[beta psi] take
        # one two-column solve on nodes 0..c in gamma, and the gradient
        # none; the k-derivative of the waves takes none either (see
        # _wave_k_pairings).  The other solve is real: the reduced
        # resolvent
        assert complex_solve_shapes(V, params_fixed, monkeypatch) == [(V.grid.n // 2 + 1, 2)]

    def test_one_full_grid_complex_solve_without_symmetry(self, grid, params_fixed, monkeypatch):
        # e_+- and R(k)[beta psi] take one three-column solve in gamma (see
        # _wave_k_pairings for the k-derivative)
        W = walled_sech(grid)
        assert complex_solve_shapes(W, params_fixed, monkeypatch) == [(grid.n, 3)]

    @pytest.mark.parametrize("build", ["sech", "walled"])
    def test_same_bits_without_the_kept_response(self, grid, V, params_fixed, build):
        # an optimizer result keeps no waves and no R(k)[beta psi]; the
        # gradient then has gamma solve for them again, to the same bits
        from pdp.optimizer import OptOptions, optimize

        W = V if build == "sech" else walled_sech(grid)
        fgr.clear_cache()
        out = optimize(W, params_fixed, OptOptions(max_iters=1, tau_start=1e-2, tau_min=1e-2))
        assert out.result.waves is None and out.result.source_response is None
        fgr.clear_cache()
        res = fgr.gamma(out.V_opt, params_fixed)
        assert res.waves is not None and res.source_response is not None
        kept = fgr.gamma_gradient(out.V_opt, params_fixed, res)
        fgr.clear_cache()  # so that the gradient's gamma call solves
        solved = fgr.gamma_gradient(out.V_opt, params_fixed, out.result)
        assert kept.tobytes() == solved.tobytes()

    @pytest.mark.parametrize("fix", ["equals_v", "fixed"])
    def test_finite_difference(self, grid, V, params_equals_v, params_fixed, fix):
        p = params_equals_v if fix == "equals_v" else params_fixed
        g = fgr.gamma_gradient(V, p)

        def rate(W):
            return fgr.gamma(W, p).gamma

        for w in bump_directions(grid, 12.0, seed=13):
            fd = directional_fd(rate, V, w)
            assert fd == pytest.approx(pair(grid, g, w), rel=1e-3)

    def test_random_direction(self, grid, V, params_equals_v):
        rng = np.random.default_rng(14)
        raw = rng.standard_normal(grid.n)
        # smooth the noise so the finite difference is not dominated by
        # grid-scale components
        w = np.convolve(raw, np.ones(25) / 25, mode="same")
        w = np.where(np.abs(grid.x) <= 12.0, w, 0.0)
        g = fgr.gamma_gradient(V, params_equals_v)
        fd = directional_fd(lambda W: fgr.gamma(W, params_equals_v).gamma, V, w)
        assert fd == pytest.approx(pair(grid, g, w), rel=1e-3)

    @pytest.mark.parametrize("fix", ["equals_v", "fixed"])
    def test_finite_difference_without_symmetry(self, grid, params_equals_v, params_fixed, fix):
        # the wall makes psi and e_+- asymmetric, and |t(k_res)|^2 is 3e-6
        p = params_equals_v if fix == "equals_v" else params_fixed
        W = walled_sech(grid)
        g = fgr.gamma_gradient(W, p)
        for w in bump_directions(grid, 12.0, seed=15):
            fd = directional_fd(lambda U: fgr.gamma(U, p).gamma, W, w)
            assert fd == pytest.approx(pair(grid, g, w), rel=1e-3)

    def test_symmetric_potential_gives_symmetric_field(self, V, params_equals_v):
        g = fgr.gamma_gradient(V, params_equals_v)
        np.testing.assert_allclose(g, g[::-1], atol=1e-10 * np.max(np.abs(g)))


class TestZeroPivot:
    """The bordered solve of a well whose last pivot is exactly zero.

    On [-60, 60] with n = 3001, psi falls below rounding before the ends
    and A = H_V - lambda is singular to machine precision; for the bump
    pair below (mirrored, lambda = -0.6426177) ?gtsv meets an exactly zero
    pivot, and the solve is made again with the diagonal scaled by 1 + 4 eps.
    """

    A = 8.0
    CENTRE = 1.103823042477707

    @pytest.fixture(scope="class")
    def wide(self):
        return make_grid(-60.0, 60.0, 3001)

    @pytest.fixture(scope="class")
    def params(self, wide):
        beta = PotentialField(wide, np.where(np.abs(wide.x) <= 2.0, 1.0, 0.0), self.A)
        return DesignParams(a=self.A, b=10.0, mu=4.0, delta=1e-4, beta=beta)

    def bumps(self, grid):
        """The bump pair e^-(x-c)^2 + e^-(x+c)^2 on |x| <= a, zero outside."""
        x, c = grid.x, self.CENTRE
        return np.where(np.abs(x) <= self.A, np.exp(-((x - c) ** 2)) + np.exp(-((x + c) ** 2)), 0.0)

    def well(self, grid, amp):
        v = sech_well(1.5, 1.5, self.A, grid).values
        return PotentialField(grid, v + amp * self.bumps(grid), self.A)

    @staticmethod
    def real_solves(monkeypatch):
        """The diagonals of the real (reduced-resolvent) ?gtsv solves, and whether each failed."""
        calls, solve = [], spectral._gtsv_solve

        def recorded(dl, d, du, b, **kw):
            if np.isrealobj(d):
                calls.append([d.copy(), True])
            x = solve(dl, d, du, b, **kw)
            if np.isrealobj(d):
                calls[-1][1] = False
            return x

        monkeypatch.setattr(spectral, "_gtsv_solve", recorded)
        return calls

    def test_gradient_of_the_singular_well_matches_finite_differences(
        self, wide, params, monkeypatch
    ):
        W = self.well(wide, 0.04877152519534442)
        assert W.mirrored
        fgr.clear_cache()
        calls = self.real_solves(monkeypatch)
        g = fgr.gamma_gradient(W, params)
        monkeypatch.undo()
        assert fgr.gamma(W, params).bound_state.lam == pytest.approx(-0.6426177, abs=1e-7)
        # the first solve meets the zero pivot, the second has the nudged diagonal
        assert [failed for _, failed in calls] == [True, False]
        assert calls[1][0].tobytes() == (calls[0][0] * spectral._PIVOT_NUDGE).tobytes()
        for w in [*bump_directions(wide, self.A, seed=22), self.bumps(wide)]:
            fd = directional_fd(lambda U: fgr.gamma(U, params).gamma, W, w)
            assert fd == pytest.approx(pair(wide, g, w), rel=1e-3)

    def test_well_without_a_zero_pivot_makes_one_solve(self, wide, params, monkeypatch):
        # the retry never runs, so the field keeps the bits of the one solve
        W = self.well(wide, 0.04)
        fgr.clear_cache()
        calls = self.real_solves(monkeypatch)
        g = fgr.gamma_gradient(W, params)
        assert [failed for _, failed in calls] == [False]
        monkeypatch.setattr(spectral, "_PIVOT_NUDGE", 2.0)
        fgr.clear_cache()
        assert fgr.gamma_gradient(W, params).tobytes() == g.tobytes()


class TestOracle:
    """gamma against oracles.mp_gamma, the same discrete problem at 40 digits.

    BOUND is the relative error allowed in Gamma, lambda and m_+-.  The
    sech start agrees with the oracle to 7e-15 in Gamma (on this grid, as
    in ROADMAP item 17's prototype at n = 2001); BOUND leaves a margin of
    about 14 over that for the other wells and for another platform's
    rounding.  The two mirrored wells are solved on the even half of the
    grid, the asymmetric one on all n nodes; the oracle solves every well
    on all n nodes.
    """

    BOUND = 1e-13

    @pytest.fixture(scope="class")
    def small(self):
        return make_grid(-20.0, 20.0, 201)

    @staticmethod
    def well(grid, name):
        x = grid.x
        if name == "sech":
            v = -1.5 / np.cosh(1.5 * x)
        elif name == "mirrored_bumps":  # a sech core and a bump pair, as criterion 4 draws them
            bumps = np.exp(-((x - 3.0) ** 2) / 2.0) + np.exp(-((x + 3.0) ** 2) / 2.0)
            v = -1.2 / np.cosh(x) + 0.15 * bumps
        else:
            v = -1.5 / np.cosh(1.5 * (x - 0.7)) + 0.2 * np.exp(-((x + 3.0) ** 2) / 2.0)
        return PotentialField(grid, np.where(np.abs(x) <= 12.0, v, 0.0), 12.0)

    @pytest.mark.parametrize("name", ["sech", "mirrored_bumps", "asymmetric"])
    def test_gamma_lambda_and_m_are_within_the_bound(self, small, name):
        V = self.well(small, name)
        beta = PotentialField(small, np.where(np.abs(small.x) <= 2.0, 1.0, 0.0), 12.0)
        params = DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta=beta)
        fgr.clear_cache()
        res = fgr.gamma(V, params)
        assert len(res.waves) == (2 if name == "asymmetric" else 1)
        exact = oracles.mp_gamma(V, params, 40)
        got = (res.gamma, res.bound_state.lam, res.m_plus, res.m_minus)
        for g, e in zip(got, exact):
            assert abs(g - e) <= self.BOUND * abs(e)
