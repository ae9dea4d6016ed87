"""Barrier objective, L-BFGS direction, and descent-loop tests."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from pdp.errors import InfeasiblePoint, InfeasibleStart
from pdp.grid import BetaMode, DesignParams, PotentialField, make_grid, sech_well
from pdp import fgr, kernels, optimizer
from pdp.optimizer import (
    OptOptions,
    barrier_objective,
    classify_mechanism,
    lbfgs_direction,
    optimize,
)
from pdp.spectral import (
    ScatteringState,
    distorted_plane_waves,
    solve_ground_state,
    wronskian_at_zero,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(-20, 20, 2001)


@pytest.fixture(scope="module")
def V(grid):
    return sech_well(1.5, 1.5, 12.0, grid)


@pytest.fixture(scope="module")
def params():
    return DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V)


def walled(grid, H, b):
    """The headline sech well plus walls H exp(-((|x| - 8)/1.5)^2), and
    design parameters with b and beta the indicator of [-2, 2]."""
    V = sech_well(1.5, 1.5, 12.0, grid)
    V = V.with_values(V.values + H * np.exp(-(((np.abs(grid.x) - 8.0) / 1.5) ** 2)))
    beta = PotentialField(grid, np.where(np.abs(grid.x) <= 2.0, 1.0, 0.0), 12.0)
    return V, DesignParams(a=12.0, b=b, mu=2.0, delta=1e-4, beta=beta)


class TestLbfgsDirection:
    def test_empty_history_is_steepest_descent(self):
        g = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(lbfgs_direction([], g), -g)

    def test_nonpositive_curvature_pairs_skipped(self):
        g = np.array([1.0, 1.0])
        s = np.array([1.0, 0.0])
        y = -s  # s.y < 0
        np.testing.assert_array_equal(lbfgs_direction([(s, y)], g), -g)

    def test_descent_direction(self):
        rng = np.random.default_rng(0)
        n = 20
        history = []
        for _ in range(5):
            s = rng.standard_normal(n)
            y = s + 0.1 * rng.standard_normal(n)  # near-identity curvature
            if s @ y > 0:
                history.append((s, y))
        g = rng.standard_normal(n)
        d = lbfgs_direction(history, g)
        assert d @ g < 0

    def test_minimizes_quadratic(self):
        # with exact line searches, L-BFGS solves an n-dim quadratic in at
        # most n iterations; check fast convergence on a small SPD problem
        rng = np.random.default_rng(1)
        n = 8
        A = rng.standard_normal((n, n))
        A = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = np.zeros(n)
        history = []
        for _ in range(n + 1):
            g = A @ x - b
            d = lbfgs_direction(history, g)
            alpha = -(g @ d) / (d @ A @ d)
            s = alpha * d
            x_new = x + s
            y = A @ x_new - b - g
            history.append((s, y))
            x = x_new
        assert np.linalg.norm(A @ x - b) < 1e-8 * np.linalg.norm(b)


class TestBarrierObjective:
    def test_value_decomposition(self, V, params):
        tau = 1e-2
        ev = barrier_objective(V, params, tau)
        m1, m2, m3 = ev.margins
        assert ev.value == pytest.approx(
            ev.result.gamma - tau * (np.log(m1) + np.log(m2) + np.log(m3))
        )
        assert all(m > 0 for m in ev.margins)

    def test_value_approaches_gamma_as_tau_vanishes(self, V, params):
        ev = barrier_objective(V, params, 1e-14)
        assert ev.value == pytest.approx(ev.result.gamma, rel=1e-6)

    def test_nodal_gradient_finite_difference(self, grid, V, params):
        tau = 1e-2
        ev = barrier_objective(V, params, tau)
        rng = np.random.default_rng(2)
        for _ in range(3):
            c = rng.uniform(-7, 7)
            w = np.where(np.abs(grid.x) <= 12, np.exp(-((grid.x - c) ** 2)), 0.0)
            eps = 1e-3
            fp = barrier_objective(V.with_values(V.values + eps * w), params, tau).value
            fm = barrier_objective(V.with_values(V.values - eps * w), params, tau).value
            fd = (fp - fm) / (2 * eps)
            assert fd == pytest.approx(float(ev.gradient @ w), rel=1e-3)

    def test_gradient_vanishes_off_support(self, V, params):
        ev = barrier_objective(V, params, 1e-2)
        assert np.all(ev.gradient[~V.support_mask] == 0.0)

    def test_wronskian_beyond_1e100_takes_its_margin_in_log_space(self, grid):
        # walls of height 1000 make |W0| about 4e102: the margin is W0^2 -
        # delta as evaluate prints it, and the barrier takes 2 log|W0| for
        # log m2
        V, p = walled(grid, 1000.0, 1e4)
        tau = 1e-2
        ev = barrier_objective(V, p, tau)
        w0 = wronskian_at_zero(V, p.wronskian_tol).w0
        assert abs(w0) > 1e100
        m1, m2, m3 = ev.margins
        assert m2 == w0 * w0 - p.delta
        log_m = np.log(m1) + 2.0 * np.log(abs(w0)) + np.log(m3)
        assert ev.value == pytest.approx(ev.result.gamma - tau * log_m, rel=1e-14)
        # a bump over the well, where the Wronskian term dominates the
        # gradient and the walls' under-resolved march does not enter
        w = np.where(V.support_mask, np.exp(-((grid.x / 2.0) ** 2)), 0.0)
        eps = 1e-3
        fp = barrier_objective(V.with_values(V.values + eps * w), p, tau).value
        fm = barrier_objective(V.with_values(V.values - eps * w), p, tau).value
        assert (fp - fm) / (2 * eps) == pytest.approx(float(ev.gradient @ w), rel=1e-4)

    @pytest.mark.parametrize("centre", [8.0, -9.0])
    def test_gradient_matches_its_difference_across_the_walls(self, grid, centre):
        # the Wronskian field eta_+ eta_- is the exact derivative of the
        # discrete W, so the barrier's gradient holds along a bump on a
        # wall the grid does not resolve (h sqrt(V) about 0.6 on top)
        V, p = walled(grid, 1000.0, 1e4)
        tau = 1e-2
        ev = barrier_objective(V, p, tau)
        w = np.where(V.support_mask, np.exp(-((grid.x - centre) ** 2)), 0.0)
        eps = 1e-4
        fp = barrier_objective(V.with_values(V.values + eps * w), p, tau).value
        fm = barrier_objective(V.with_values(V.values - eps * w), p, tau).value
        assert (fp - fm) / (2 * eps) == pytest.approx(float(ev.gradient @ w), rel=1e-6)

    def test_overflowing_wronskian_is_infeasible(self, grid):
        # walls of height 20000 overflow the half-bound march (walls of
        # 9000 leave W0 near -4e288)
        V, p = walled(grid, 20000.0, 1e5)
        with pytest.raises(InfeasiblePoint, match="Wronskian"):
            barrier_objective(V, p, 1e-2)

    def test_h1_bound_violation_is_infeasible(self, grid):
        V = sech_well(1.5, 1.5, 12.0, grid)
        tight = DesignParams(
            a=12.0, b=0.5, mu=2.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V
        )
        with pytest.raises(InfeasiblePoint):
            barrier_objective(V, tight, 1e-2)

    def test_two_bound_states_is_infeasible(self, grid):
        V = sech_well(4.0, 0.8, 12.0, grid)  # deep well: several bound states
        p = DesignParams(a=12.0, b=1e3, mu=5.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V)
        with pytest.raises(InfeasiblePoint):
            barrier_objective(V, p, 1e-2)


class TestClassifyMechanism:
    def _res(self, t):
        return SimpleNamespace(scattering=SimpleNamespace(t=t))

    def test_opaque_is_a(self):
        assert classify_mechanism(self._res(0.01)) == "A"

    def test_transparent_is_b(self):
        assert classify_mechanism(self._res(0.9)) == "B"

    def test_intermediate_is_mixed(self):
        assert classify_mechanism(self._res(0.3)) == "mixed"


class TestOptimize:
    def test_short_run_decreases_gamma(self, grid, V, params):
        from pdp import fgr

        g0 = fgr.gamma(V, params).gamma
        opts = OptOptions(max_iters=8, tau_start=1e-2, tau_min=1e-3)
        out = optimize(V, params, opts)
        assert out.result.gamma < g0
        assert out.iterations <= 8
        assert all(m > 0 for m in out.margins)
        assert list(out.trace) == list(optimizer.TRACE_COLUMNS)
        assert all(len(col) == out.iterations for col in out.trace.values())

    def test_symmetric_mode_keeps_symmetry(self, grid, V, params):
        opts = OptOptions(max_iters=5, tau_start=1e-2, tau_min=1e-2, symmetric=True)
        out = optimize(V, params, opts)
        assert out.V_opt.values.tobytes() == out.V_opt.values[::-1].tobytes()

    @pytest.mark.parametrize("case", ["even_n", "asymmetric_beta"])
    def test_symmetric_mode_needs_a_start_and_beta_that_split_by_parity(self, case, monkeypatch):
        # an even-n grid has no even half, and an asymmetric beta gives an
        # unmirrored gradient: neither keeps a mirrored descent mirrored,
        # and the run is refused before its first solve
        grid = make_grid(-20, 20, 2000 if case == "even_n" else 2001)
        hi = 2.0 if case == "even_n" else 2.1
        beta = PotentialField(grid, np.where((grid.x >= -2.0) & (grid.x <= hi), 1.0, 0.0), 12.0)
        p = DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta=beta)

        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(optimizer, "barrier_objective", no_solve)
        with pytest.raises(ValueError, match="symmetric mode needs"):
            optimize(sech_well(1.5, 1.5, 12.0, grid), p, OptOptions(symmetric=True))

    def test_tau_range_that_runs_upward_is_refused(self):
        # tau only falls, so tau_min above tau_start would never be reached
        with pytest.raises(ValueError, match="tau_min = 0.01 must not exceed tau_start"):
            OptOptions(tau_start=1e-8, tau_min=1e-2)
        assert OptOptions(tau_start=1e-2, tau_min=1e-2).tau_min == 1e-2

    def test_negligible_gamma_at_tau_min_ends_run(self, V, params):
        # a single stage at tau_min whose gamma is already below
        # TAU_ADVANCE_FACTOR * tau is pure barrier: the run takes no step
        from pdp import fgr

        factor = optimizer.TAU_ADVANCE_FACTOR
        tau = 2.0 * fgr.gamma(V, params).gamma / factor
        opts = OptOptions(tau_start=tau, tau_min=tau, max_iters=20)
        out = optimize(V, params, opts)
        assert out.iterations == 0
        assert all(len(col) == 0 for col in out.trace.values())
        np.testing.assert_array_equal(out.V_opt.values, V.values)
        assert out.status == "gamma negligible against tau"

    def test_every_stage_entered_is_recorded(self, V, params):
        # a budget of 3 steps over 7 stages: one step per stage until the
        # budget ends the fourth stage before its step
        out = optimize(V, params, OptOptions(max_iters=3))
        taus = [tau for tau, _, _ in out.stages]
        assert taus == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5], rel=1e-12)
        assert [steps for _, steps, _ in out.stages] == [1, 1, 1, 0]
        assert [reason for _, _, reason in out.stages] == ["stage budget reached"] * 3 + [
            "iteration budget exhausted"
        ]
        assert out.status == "iteration budget exhausted" and out.iterations == 3
        assert list(out.trace["tau"]) == taus[:3]

    def test_negligible_gamma_skips_stage_evaluations(self, V, params, monkeypatch):
        # Gamma does not depend on tau: once it is negligible against
        # tau_min, no stage re-evaluates the barrier at its own tau, and the
        # start's evaluation is the only gradient computed
        from pdp import fgr

        calls = []
        gamma_gradient = fgr.gamma_gradient

        def counted(*args, **kwargs):
            calls.append(1)
            return gamma_gradient(*args, **kwargs)

        monkeypatch.setattr(fgr, "gamma_gradient", counted)
        factor = optimizer.TAU_ADVANCE_FACTOR
        tau_min = 2.0 * fgr.gamma(V, params).gamma / factor
        opts = OptOptions(tau_start=1e3 * tau_min, tau_min=tau_min, max_iters=20)
        out = optimize(V, params, opts)
        assert out.iterations == 0
        assert out.status == "gamma negligible against tau"
        assert len(calls) == 1

    def test_result_keeps_no_psi(self, grid, V, params):
        # the result's ground state holds only V_opt; psi, lam and the
        # count are solved again, to the same bits, when first read
        out = optimize(V, params, OptOptions(max_iters=5, tau_start=1e-2, tau_min=1e-2))
        bs = out.result.bound_state
        assert not [
            name for name, val in vars(bs).items()
            if isinstance(val, np.ndarray) and val.size >= grid.n
        ]
        fresh = solve_ground_state(out.V_opt)
        assert bs.psi.tobytes() == fresh.psi.tobytes()
        assert bs.lam == fresh.lam
        assert bs.count_negative_eigenvalues == fresh.count_negative_eigenvalues == 1

    def test_result_keeps_no_waves(self, grid, V, params):
        # a kept result holds only scalars, V_opt and the ground state: no
        # waves and no source response.  Its state solves for the waves,
        # and a fresh gamma for Gamma and m+-, to the same bits
        from pdp import fgr

        out = optimize(V, params, OptOptions(max_iters=5, tau_start=1e-2, tau_min=1e-2))
        assert out.result.waves is None and out.result.source_response is None
        st = out.result.scattering
        assert not [
            name for name, val in vars(st).items()
            if isinstance(val, np.ndarray) and val.size >= grid.n
        ]
        fresh = ScatteringState(out.result.k_res, out.V_opt)
        (e_p, e_m), _ = distorted_plane_waves(st)
        (fresh_p, fresh_m), _ = distorted_plane_waves(fresh)
        assert (e_p.tobytes(), e_m.tobytes()) == (fresh_p.tobytes(), fresh_m.tobytes())
        assert st.t == fresh.t
        fgr.clear_cache()
        full = fgr.gamma(out.V_opt, params)
        assert (full.gamma, full.m_plus, full.m_minus) == (
            out.result.gamma, out.result.m_plus, out.result.m_minus
        )
        assert classify_mechanism(out.result) == classify_mechanism(full)

    def test_result_holds_no_grid_length_array(self, grid, V, params):
        # every array reachable from the result is V_opt's values or the
        # grid's own nodes and weights; nothing solved is kept
        import dataclasses

        out = optimize(V, params, OptOptions(max_iters=5, tau_start=1e-2, tau_min=1e-2))
        shared = {id(out.V_opt.values), id(grid.x), id(grid.weights)}
        found, todo, seen = [], [out.result], set()
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.size >= grid.n and id(obj) not in shared:
                    found.append(obj.shape)
            elif dataclasses.is_dataclass(obj):
                todo.extend(vars(obj).values())
            elif isinstance(obj, (tuple, list)):
                todo.extend(obj)
        assert found == []

    def test_asymmetric_run_takes_the_general_paths(self, grid, monkeypatch):
        # a shifted start with symmetric=False: every ground state is solved
        # on the full grid, every Wronskian marches from both ends, and the
        # optimum's Gamma recomputes to the same bits
        beta = PotentialField(grid, np.where(np.abs(grid.x) <= 2.0, 1.0, 0.0), 12.0)
        params = DesignParams(a=12.0, b=1e3, mu=2.0, delta=1e-4, beta=beta)
        v = np.where(np.abs(grid.x) <= 12.0, -1.5 / np.cosh(1.5 * (grid.x - 1.0)), 0.0)
        calls = {"march": 0, "wronskian": 0, "full": 0, "parity": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(kernels, "march_half_bound", counted("march", kernels.march_half_bound))
        monkeypatch.setattr(
            optimizer, "wronskian_at_zero", counted("wronskian", optimizer.wronskian_at_zero)
        )
        monkeypatch.setattr(kernels, "_lowest_eigenpair", counted("full", kernels._lowest_eigenpair))
        monkeypatch.setattr(
            kernels, "_lowest_eigenpair_by_parity",
            counted("parity", kernels._lowest_eigenpair_by_parity),
        )
        fgr.clear_cache()
        out = optimize(PotentialField(grid, v, 12.0), params, OptOptions(max_iters=5))
        assert out.iterations == 5 and not out.V_opt.mirrored
        assert calls["parity"] == 0 and calls["full"] > 5 and calls["wronskian"] > 5
        assert calls["march"] == 2 * calls["wronskian"]
        fgr.clear_cache()
        assert fgr.gamma(out.V_opt, params).gamma == out.result.gamma

    def test_line_search_failure_ends_the_run_at_its_start(self, grid, monkeypatch):
        # with no trial step allowed every stage fails its line search
        monkeypatch.setattr(optimizer, "MAX_BACKTRACKS", 0)
        V0, p = walled(grid, 0.0, 1e4)
        out = optimize(V0, p, OptOptions())
        assert out.status == "line-search failure"
        assert out.iterations == 0
        np.testing.assert_array_equal(out.V_opt.values, V0.values)

    def test_zero_gradient_ends_on_the_gradient_tolerance(self, V, params, monkeypatch):
        # a point whose gradient is zero is stationary: every stage ends on
        # its gradient test before a step, the last one on GRAD_TOL
        def flat(V, params, tau):
            ev = barrier_objective(V, params, tau)
            return dataclasses.replace(ev, gradient=np.zeros_like(ev.gradient))

        monkeypatch.setattr(optimizer, "barrier_objective", flat)
        out = optimize(V, params, OptOptions())
        assert out.status == "gradient tolerance reached"
        assert out.iterations == 0
        np.testing.assert_array_equal(out.V_opt.values, V.values)

    def test_ascent_direction_is_replaced_by_steepest_descent(self, V, params, monkeypatch):
        # a direction d with d.g >= 0 is replaced by -g: a run whose L-BFGS
        # directions are all +g steps as a steepest-descent run does
        runs = []
        for direction in (lambda history, g: g.copy(), lambda history, g: -g):
            monkeypatch.setattr(optimizer, "lbfgs_direction", direction)
            runs.append(optimize(V, params, OptOptions(max_iters=3)))
        ascent, descent = runs
        assert ascent.iterations == descent.iterations == 3
        assert ascent.V_opt.values.tobytes() == descent.V_opt.values.tobytes()

    def test_symmetric_steepest_descent_stays_mirrored(self, V, params, monkeypatch):
        # the fallback for an ascent direction, -g, is mirrored as the
        # L-BFGS direction is: V and beta split by parity, so the gradient
        # is solved on the even half and reads the same reversed, bit for bit
        monkeypatch.setattr(optimizer, "lbfgs_direction", lambda history, g: g.copy())
        opts = OptOptions(max_iters=2, tau_start=1e-2, tau_min=1e-2, symmetric=True)
        out = optimize(V, params, opts)
        assert out.iterations == 2
        assert out.V_opt.values.tobytes() == out.V_opt.values[::-1].tobytes()

    def test_infeasible_start_raises(self, grid):
        V = sech_well(1.5, 1.5, 12.0, grid)
        tight = DesignParams(
            a=12.0, b=0.5, mu=2.0, delta=1e-4, beta_mode=BetaMode.EQUALS_V
        )
        with pytest.raises(InfeasibleStart):
            optimize(V, tight, OptOptions(max_iters=2))

