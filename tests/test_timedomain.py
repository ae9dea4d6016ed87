"""Forced-propagation, absorber, and rate-fitting tests."""
import math
import warnings

import numpy as np
import pytest

from pdp import kernels, timedomain
from pdp.errors import SolverFailure
from pdp.grid import PotentialField, make_grid, sech_well
from pdp.spectral import solve_ground_state
from pdp.timedomain import (
    Absorber,
    SimConfig,
    SimResult,
    absorber_profile,
    filter_experiment,
    fit_decay_rate,
    propagate,
    resample_potential,
)


@pytest.fixture(scope="module")
def sim_grid():
    return make_grid(-30.0, 30.0, 1501)


@pytest.fixture(scope="module")
def V(sim_grid):
    return sech_well(1.5, 1.5, 12.0, sim_grid)


def cfg_for(sim_grid, **kw):
    kw.setdefault("epsilon", 0.0)
    kw.setdefault("mu", 2.0)
    kw.setdefault("t_final", 5.0)
    kw.setdefault("absorber", Absorber(width=8.0, strength=1.0))
    return SimConfig(domain=sim_grid, **kw)


class TestSimConfig:
    def test_validation(self, sim_grid):
        with pytest.raises(ValueError):
            cfg_for(sim_grid, t_final=-1.0)
        with pytest.raises(ValueError):
            cfg_for(sim_grid, dt_max=0.0)
        with pytest.raises(ValueError):
            cfg_for(sim_grid, absorber=Absorber(width=40.0))
        # the unpivoted CN factorization needs sigma >= 0
        with pytest.raises(ValueError):
            cfg_for(sim_grid, absorber=Absorber(width=15.0, strength=-40.0))

    def test_step_count(self, sim_grid):
        assert cfg_for(sim_grid, t_final=5.0, dt_max=0.05).nsteps == 100
        assert cfg_for(sim_grid, t_final=5.0, dt_max=0.3).nsteps == 17

    @pytest.mark.parametrize(
        "t_final, dt_max", [(400.0, 0.05), (37.3, 0.0511)], ids=["criterion_7", "uneven"]
    )
    def test_sample_times_are_the_kernels_times_bit_for_bit(self, sim_grid, t_final, dt_max):
        # the times that cn_step_loop passes to record, from t0 = 0, on a
        # 5-node system stepped with the config's dt and step count
        cfg = cfg_for(sim_grid, t_final=t_final, dt_max=dt_max)
        reached = [0.0]
        end = kernels.cn_step_loop(
            -1.0, np.full(5, 2.0), np.zeros(5), np.ones(5), 0.0, 2.0, cfg.dt, 0.0, cfg.nsteps,
            np.zeros(5, dtype=complex), record=lambda i, t: reached.append(t),
        )
        times = cfg.sample_times()
        assert len(times) == cfg.nsteps + 1
        assert times.tobytes() == np.array(reached).tobytes()
        assert times[-1] == end

    @pytest.mark.parametrize(
        "t_final, dt_max", [(40.0, 1e-300), (1e308, 1e-10)], ids=["too_many", "infinite"]
    )
    def test_step_count_numpy_cannot_size_raises_value_error(self, sim_grid, t_final, dt_max):
        # 4e301 steps, and an infinite count; each raised only in propagate
        with pytest.raises(ValueError, match="too many to record"):
            cfg_for(sim_grid, t_final=t_final, dt_max=dt_max)


class TestAbsorberProfile:
    def test_zero_in_interior_and_full_at_walls(self, sim_grid):
        cfg = cfg_for(sim_grid)
        sigma = absorber_profile(cfg)
        interior = np.abs(sim_grid.x) <= sim_grid.x_max - cfg.absorber.width
        assert np.all(sigma[interior] == 0.0)
        assert sigma[0] == pytest.approx(cfg.absorber.strength)
        assert sigma[-1] == pytest.approx(cfg.absorber.strength)
        assert np.all(sigma >= 0)
        # mirrored bit for bit, which the even-half propagation relies on
        assert sigma.tobytes() == sigma[::-1].tobytes()


class TestResample:
    def test_onto_finer_grid_preserves_support_and_values(self, V):
        fine = make_grid(-60.0, 60.0, 6001)
        W = resample_potential(V, fine)
        assert W.support_halfwidth == V.support_halfwidth
        assert np.all(W.values[np.abs(fine.x) > 12.0] == 0.0)
        # node x = 0 exists on both grids
        j_src = V.grid.n // 2
        j_dst = fine.n // 2
        assert W.values[j_dst] == pytest.approx(V.values[j_src], rel=1e-12)


class TestPropagate:
    def test_stationary_state_projection_conserved(self, sim_grid, V):
        cfg = cfg_for(sim_grid)  # epsilon = 0: no forcing
        psi = solve_ground_state(V).psi.astype(complex)
        out = propagate(V, V, psi, cfg)
        np.testing.assert_allclose(out.projection_sq, 1.0, atol=1e-8)

    def test_norm_conserved_without_absorber(self, sim_grid, V):
        # thin zero-strength layer: the recorded (interior) norm covers
        # |x| <= 29.5, which the forced waves cannot reach within t = 3
        cfg = cfg_for(
            sim_grid, epsilon=0.3, t_final=3.0,
            absorber=Absorber(width=0.5, strength=0.0),
        )
        psi = solve_ground_state(V).psi.astype(complex)
        out = propagate(V, V, psi, cfg)
        assert out.norm[-1] == pytest.approx(out.norm[0], rel=1e-8)

    def test_interior_norm_leaves_out_both_layers_of_an_off_centre_domain(self):
        # on [-40, 80] with 15-wide layers the interior is -25 <= x <= 65;
        # a start state inside the left layer has no interior norm
        grid = make_grid(-40.0, 80.0, 1201)
        W = sech_well(1.5, 1.5, 12.0, grid)
        cfg = cfg_for(grid, t_final=0.1, absorber=Absorber(width=15.0, strength=1.0))
        phi0 = np.where(grid.x < -26.0, 1.0 + 0.5j, 0.0)
        out = propagate(W, W, phi0, cfg)
        assert out.norm[0] == 0.0

    def test_interior_norm_of_a_centred_domain(self, sim_grid, V):
        cfg = cfg_for(sim_grid, t_final=0.1)
        rng = np.random.default_rng(4)
        phi0 = rng.standard_normal(sim_grid.n) + 1j * rng.standard_normal(sim_grid.n)
        out = propagate(V, V, phi0, cfg)
        interior = np.abs(sim_grid.x) <= sim_grid.x_max - cfg.absorber.width
        expected = np.sqrt(sim_grid.weights[interior] @ np.abs(phi0[interior]) ** 2)
        assert out.norm[0] == pytest.approx(expected, rel=1e-14)

    def test_norm_decreases_with_absorber_under_forcing(self, sim_grid, V):
        cfg = cfg_for(sim_grid, epsilon=0.5, t_final=30.0)
        psi = solve_ground_state(V).psi.astype(complex)
        out = propagate(V, V, psi, cfg)
        assert out.norm[-1] < out.norm[0]
        assert out.projection_sq[-1] < 1.0

    def test_non_finite_start_is_solver_failure(self, sim_grid, V):
        cfg = cfg_for(sim_grid, t_final=0.1)
        phi0 = solve_ground_state(V).psi.astype(complex)
        phi0[sim_grid.n // 2] = np.nan
        with pytest.raises(SolverFailure):
            propagate(V, V, phi0, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    @pytest.mark.parametrize("end", [0, -1], ids=["left", "right"])
    def test_non_finite_end_node_is_solver_failure(self, sim_grid, V, bad, end):
        # psi is exactly 0 on the Dirichlet end nodes, so w psi carries no
        # weight there; 0 * NaN = 0 * inf = NaN still spoils the projection
        cfg = cfg_for(sim_grid, t_final=0.1)
        phi0 = solve_ground_state(V).psi.astype(complex)
        assert phi0[end] == 0.0
        phi0[end] = bad
        with pytest.raises(SolverFailure):
            propagate(V, V, phi0, cfg)

    @pytest.mark.parametrize("bad", [np.inf, 1j * np.inf], ids=["inf", "i_inf"])
    def test_infinite_centre_node_is_solver_failure_without_warnings(self, sim_grid, V, bad):
        # a start that is bad on the centre node alone is still mirrored:
        # its scaling onto the even half made inf * 0, a RuntimeWarning
        cfg = cfg_for(sim_grid, t_final=0.1)
        phi0 = solve_ground_state(V).psi.astype(complex)
        phi0[sim_grid.n // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="non-finite field at t=0"):
                propagate(V, V, phi0, cfg)

    def test_start_whose_projection_overflows_is_solver_failure(self, sim_grid, V):
        # |<psi, phi>|^2 = 1e400 is finite in no float
        cfg = cfg_for(sim_grid, t_final=0.1)
        phi0 = 1e200 * solve_ground_state(V).psi.astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="non-finite field at t=0"):
                propagate(V, V, phi0, cfg)

    def test_grid_mismatch_rejected(self, sim_grid, V):
        other = make_grid(-20, 20, 1001)
        W = sech_well(1.5, 1.5, 12.0, other)
        cfg = cfg_for(sim_grid)
        psi = np.zeros(sim_grid.n, dtype=complex)
        with pytest.raises(ValueError):
            propagate(W, V, psi, cfg)
        with pytest.raises(ValueError):
            propagate(V, V, np.zeros(7, dtype=complex), cfg)

    def test_start_that_is_not_one_dimensional_is_rejected_before_solving(
        self, sim_grid, V, monkeypatch
    ):
        # a (n, 1) start used to pass a check of its first axis alone and
        # fail in the record hook with numpy's "setting an array element
        # with a sequence."
        def unreachable(*args, **kwargs):
            raise AssertionError("propagate solved before checking phi0")

        monkeypatch.setattr(timedomain, "solve_ground_state", unreachable)
        psi = np.zeros((sim_grid.n, 1), dtype=complex)
        with pytest.raises(ValueError, match=r"1-D array .* 1501 values, got shape \(1501, 1\)"):
            propagate(V, V, psi, cfg_for(sim_grid))

    def test_grid_without_the_resonant_wave_fails_before_any_step(self, monkeypatch):
        # h = 4.14 puts k h / 2 = 2.86 above the lattice cutoff: the grid
        # has no state at the forcing's energy, and a run would print a rate
        grid = make_grid(-60.0, 60.0, 30)
        V = sech_well(1.5, 1.5, 12.0, grid)
        lam = solve_ground_state(V).lam
        assert 0.5 * math.sqrt(lam + 2.0) * grid.h >= 1.0

        def unreachable(*args, **kwargs):
            raise AssertionError("propagate stepped on a grid below the resonance")

        monkeypatch.setattr(kernels, "cn_step_loop", unreachable)
        psi = solve_ground_state(V).psi.astype(complex)
        cfg = cfg_for(grid, epsilon=0.2, absorber=Absorber(width=15.0, strength=1.0))
        with pytest.raises(SolverFailure, match="lattice cutoff .* simulation grid"):
            propagate(V, V, psi, cfg)

    def test_grid_of_criterion_7_carries_the_resonant_wave(self):
        # the check must leave the acceptance run's grid (n = 3001 on
        # [-60, 60], k h / 2 ~ 0.03) to step
        grid = make_grid(-60.0, 60.0, 3001)
        V = sech_well(1.5, 1.5, 12.0, grid)
        psi = solve_ground_state(V).psi.astype(complex)
        cfg = cfg_for(grid, epsilon=0.2, t_final=0.1, absorber=Absorber(width=15.0))
        assert propagate(V, V, psi, cfg).times[-1] == pytest.approx(0.1)

    def test_no_one_photon_channel_still_steps(self, sim_grid, V):
        # lambda + mu <= 0: no wave is driven, so no cutoff applies
        psi = solve_ground_state(V).psi.astype(complex)
        cfg = cfg_for(sim_grid, epsilon=0.2, mu=0.0, t_final=0.1)
        assert solve_ground_state(V).lam + cfg.mu <= 0.0
        assert propagate(V, V, psi, cfg).times[-1] == pytest.approx(0.1)


def _full_grid_series(V, beta, phi0, cfg):
    """projection_sq and norm of kernels.cn_step_loop on the full operands.

    The oracle of the even-half run: every node is stepped, and the series
    are recorded as plain expressions over the whole grid.
    """
    grid = cfg.domain
    h = grid.h
    w_psi = grid.weights * solve_ground_state(V).psi
    interior = np.abs(grid.x) <= grid.x_max - cfg.absorber.width
    interior[[0, -1]] = False
    nsteps = math.ceil(cfg.t_final / cfg.dt_max)
    phi = np.array(phi0, dtype=np.complex128)
    proj, norm = [], []

    def record(*_):
        proj.append(abs(w_psi @ phi) ** 2)
        norm.append(math.sqrt(h * np.sum(np.abs(phi[interior]) ** 2)))

    record()
    kernels.cn_step_loop(
        -1.0 / h**2, 2.0 / h**2 + V.values, absorber_profile(cfg), beta.values,
        cfg.epsilon, cfg.mu, cfg.t_final / nsteps, 0.0, nsteps, phi, record=record,
    )
    return np.array(proj), np.array(norm)


def _rows_stepped(monkeypatch, run):
    """The result of run() and the number of rows that each cn_step_loop call stepped."""
    rows = []
    step_loop = kernels.cn_step_loop

    def spy(off, diag_h, *args, **kwargs):
        rows.append(diag_h.shape[0])
        return step_loop(off, diag_h, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(kernels, "cn_step_loop", spy)
        return run(), rows


class TestEvenHalf:
    """A mirror-symmetric run with an even start steps nodes 0..c only."""

    def test_matches_the_full_grid_run(self, sim_grid, V, monkeypatch):
        cfg = cfg_for(sim_grid, epsilon=0.2, t_final=20.0)
        psi = solve_ground_state(V).psi.astype(complex)
        out, rows = _rows_stepped(monkeypatch, lambda: propagate(V, V, psi, cfg))
        assert rows == [sim_grid.n // 2 + 1]
        proj, norm = _full_grid_series(V, V, psi, cfg)
        assert proj[-1] < 0.999 * proj[0]  # the forcing moved the state
        np.testing.assert_allclose(out.projection_sq, proj, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.norm, norm, rtol=1e-12, atol=0)

    def test_interior_norm_of_a_mirrored_start(self, sim_grid, V, monkeypatch):
        # the half interior counts each node j < c for itself and its mirror
        cfg = cfg_for(sim_grid, t_final=0.1)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(sim_grid.n) + 1j * rng.standard_normal(sim_grid.n)
        phi0 = r + r[::-1]
        out, rows = _rows_stepped(monkeypatch, lambda: propagate(V, V, phi0, cfg))
        assert rows == [sim_grid.n // 2 + 1]
        interior = np.abs(sim_grid.x) <= sim_grid.x_max - cfg.absorber.width
        expected = np.sqrt(sim_grid.weights[interior] @ np.abs(phi0[interior]) ** 2)
        assert out.norm[0] == pytest.approx(expected, rel=1e-14)
        psi = solve_ground_state(V).psi
        expected = abs(sim_grid.weights @ (psi * phi0)) ** 2
        assert out.projection_sq[0] == pytest.approx(expected, rel=1e-13)

    @staticmethod
    def _mirrored_inputs(grid):
        """A mirrored well and an even start on grid, by node index about its middle.

        The well is cut off 10 from the middle, inside the support [-12, 12]
        of a grid whose middle is at most 1 off x = 0.
        """
        k = np.abs(np.arange(grid.n) - 0.5 * (grid.n - 1))
        values = np.where(k * grid.h <= 10.0, -1.5 / np.cosh(1.5 * k * grid.h) ** 2, 0.0)
        W = PotentialField(grid, values, 12.0)
        psi = solve_ground_state(W).psi
        return W, (psi + psi[::-1]).astype(complex)

    @pytest.mark.parametrize(
        "case", ["off_centre_grid", "even_n", "asymmetric_V", "asymmetric_beta", "noisy_filter"]
    )
    def test_every_other_run_steps_the_full_grid(self, monkeypatch, case):
        grid = {
            "off_centre_grid": make_grid(-29.0, 31.0, 1501),
            "even_n": make_grid(-30.0, 30.0, 1500),
        }.get(case, make_grid(-30.0, 30.0, 1501))
        W, phi0 = self._mirrored_inputs(grid)
        beta = W
        # a zero-strength absorber is mirrored on any grid, so that each
        # case breaks exactly one condition of the even-half run
        cfg = cfg_for(grid, epsilon=0.2, t_final=0.5, absorber=Absorber(width=8.0, strength=0.0))
        if case == "asymmetric_V":
            W = W.with_values(W.values + np.where(grid.x == grid.x[700], 1e-3, 0.0))
        if case == "asymmetric_beta":
            beta = W.with_values(np.where(grid.x == grid.x[700], 1.0, 0.0))
        assert W.mirrored == (case != "asymmetric_V")
        assert beta.mirrored == (case != "asymmetric_beta")
        assert phi0.tobytes() == phi0[::-1].tobytes()
        if case == "noisy_filter":
            run = lambda: filter_experiment(W, beta, cfg, noise_amplitude=0.5, seed=7)
        else:
            run = lambda: propagate(W, beta, phi0, cfg)
        _, rows = _rows_stepped(monkeypatch, run)
        assert rows == [grid.n]


class TestSamples:
    """propagate samples its field after every step with two BLAS dots.

    Each path is run from a start that takes it: the bound state steps
    the even half of the grid, and filter's noisy start the full grid.
    """

    PATHS = ["even_half", "full_grid"]

    @staticmethod
    def _run(path, V, cfg, monkeypatch):
        """The run of path on cfg, checked to step the rows of that path."""
        if path == "even_half":
            psi = solve_ground_state(V).psi.astype(complex)
            run = lambda: propagate(V, V, psi, cfg)
        else:
            run = lambda: filter_experiment(V, V, cfg, noise_amplitude=0.5, seed=7)
        out, rows = _rows_stepped(monkeypatch, run)
        n = cfg.domain.n
        assert rows == [n // 2 + 1 if path == "even_half" else n]
        return out

    @pytest.mark.parametrize("path", PATHS)
    def test_series_have_the_bits_of_the_numpy_expressions(
        self, sim_grid, V, monkeypatch, path
    ):
        # at every sample, the expressions that the dots replace, abs(w_psi @
        # phi) ** 2 and sqrt(h (re_im @ re_im)), on the very operands
        cfg = cfg_for(sim_grid, epsilon=0.2, t_final=20.0)
        h = sim_grid.h
        proj, norm, fields = [], [], []
        zdotu, ddot = kernels._zdotu, kernels._ddot

        def numpy_zdotu(w_psi, phi):
            proj.append(abs(w_psi @ phi) ** 2)
            fields.append(phi)
            return zdotu(w_psi, phi)

        def numpy_ddot(re_im, other):
            assert other is re_im and np.shares_memory(re_im, fields[-1])
            norm.append(math.sqrt(h * (re_im @ re_im)))
            return ddot(re_im, other)

        monkeypatch.setattr(kernels, "_zdotu", numpy_zdotu)
        monkeypatch.setattr(kernels, "_ddot", numpy_ddot)
        out = self._run(path, V, cfg, monkeypatch)
        assert out.projection_sq[-1] < 0.999 * out.projection_sq[0]  # the forcing acted
        assert all(phi is fields[0] for phi in fields)  # the field that the kernel steps
        assert out.projection_sq.tobytes() == np.array(proj).tobytes()
        assert out.norm.tobytes() == np.array(norm).tobytes()
        assert out.times.tobytes() == cfg.sample_times().tobytes()

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("nsteps", [1, 50])
    def test_each_sample_takes_one_zdotu_and_one_ddot(
        self, sim_grid, V, monkeypatch, path, nsteps
    ):
        calls = {"zdotu": 0, "ddot": 0}
        per_sample = []

        def counting(name, routine):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return wrapped

        def take():
            per_sample.append(dict(calls))
            calls.update(dict.fromkeys(calls, 0))

        for name, attr in (("zdotu", "_zdotu"), ("ddot", "_ddot")):
            monkeypatch.setattr(kernels, attr, counting(name, getattr(kernels, attr)))
        step_loop = kernels.cn_step_loop

        def counted_steps(*args, record):
            take()  # the start's sample, taken before the first step

            def counted(i, t):
                record(i, t)
                take()

            return step_loop(*args, record=counted)

        monkeypatch.setattr(kernels, "cn_step_loop", counted_steps)
        cfg = cfg_for(sim_grid, epsilon=0.2, dt_max=0.5, t_final=0.5 * nsteps)
        assert cfg.nsteps == nsteps
        self._run(path, V, cfg, monkeypatch)
        assert per_sample == [{"zdotu": 1, "ddot": 1}] * (nsteps + 1)
        assert calls == {"zdotu": 0, "ddot": 0}

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("path", PATHS)
    def test_field_that_turns_non_finite_mid_run_is_solver_failure(
        self, sim_grid, V, monkeypatch, path, bad
    ):
        # the forced block's solve in step 5 (the sixth step) leaves a bad
        # value in the block: the sample after it, at t = 6 dt, ends the run
        solves = 0
        zgtsv = kernels._zgtsv

        def poisoning(dl, d, du, b, *args):
            nonlocal solves
            out = zgtsv(dl, d, du, b, *args)
            solves += 1
            if solves == 6:
                b[b.shape[0] // 2] = bad
            return out

        monkeypatch.setattr(kernels, "_zgtsv", poisoning)
        cfg = cfg_for(sim_grid, epsilon=0.2, t_final=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure) as failure:
                self._run(path, V, cfg, monkeypatch)
        assert str(failure.value) == f"non-finite field at t={6 * cfg.dt:.4g}"
        assert solves == 6


class TestFitDecayRate:
    def test_recovers_synthetic_exponential(self):
        t = np.linspace(0, 50, 501)
        rate = 0.0173
        res = SimResult(
            times=t, projection_sq=np.exp(-rate * t), norm=np.ones_like(t)
        )
        assert fit_decay_rate(res, (5.0, 45.0)) == pytest.approx(rate, rel=1e-12)

    def test_window_validation(self):
        t = np.linspace(0, 10, 11)
        res = SimResult(times=t, projection_sq=np.ones(11), norm=np.ones(11))
        with pytest.raises(ValueError):
            fit_decay_rate(res, (20.0, 30.0))
        bad = SimResult(times=t, projection_sq=np.zeros(11), norm=np.ones(11))
        with pytest.raises(ValueError):
            fit_decay_rate(bad, (0.0, 10.0))


class TestFilterExperiment:
    def test_zero_noise_equals_pure_bound_state_run(self, sim_grid, V):
        cfg = cfg_for(sim_grid, epsilon=0.2, t_final=2.0)
        out_f = filter_experiment(V, V, cfg, noise_amplitude=0.0, seed=1)
        psi = solve_ground_state(V).psi.astype(complex)
        out_p = propagate(V, V, psi, cfg)
        np.testing.assert_allclose(out_f.projection_sq, out_p.projection_sq, rtol=1e-10)

    def test_seed_reproducibility(self, sim_grid, V):
        cfg = cfg_for(sim_grid, epsilon=0.2, t_final=1.0)
        a = filter_experiment(V, V, cfg, noise_amplitude=0.5, seed=7)
        b = filter_experiment(V, V, cfg, noise_amplitude=0.5, seed=7)
        np.testing.assert_array_equal(a.projection_sq, b.projection_sq)

    def test_start_orthogonal_to_psi_is_rejected(self, sim_grid, V, monkeypatch):
        # no seeded start is orthogonal to psi: a zero overlap is reached by
        # a quadrature that returns 0
        monkeypatch.setattr(timedomain, "trapz", lambda grid, f: 0.0)
        cfg = cfg_for(sim_grid, epsilon=0.2, t_final=1.0)
        with pytest.raises(ValueError, match="orthogonal to the bound state"):
            filter_experiment(V, V, cfg, noise_amplitude=0.5, seed=7)

    def test_unit_initial_projection(self, sim_grid, V):
        cfg = cfg_for(sim_grid, epsilon=0.0, t_final=0.1)
        out = filter_experiment(V, V, cfg, noise_amplitude=1.0, seed=3)
        assert out.projection_sq[0] == pytest.approx(1.0, rel=1e-12)
