"""Forced-propagation, absorber, and rate-fitting tests."""
import numpy as np
import pytest

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


class TestAbsorberProfile:
    def test_zero_in_interior_and_full_at_walls(self, sim_grid):
        cfg = cfg_for(sim_grid)
        sigma = absorber_profile(cfg)
        interior = np.abs(sim_grid.x) <= sim_grid.x_max - cfg.absorber.width
        assert np.all(sigma[interior] == 0.0)
        assert sigma[0] == pytest.approx(cfg.absorber.strength)
        assert sigma[-1] == pytest.approx(cfg.absorber.strength)
        assert np.all(sigma >= 0)


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

    def test_grid_mismatch_rejected(self, sim_grid, V):
        other = make_grid(-20, 20, 1001)
        W = sech_well(1.5, 1.5, 12.0, other)
        cfg = cfg_for(sim_grid)
        psi = np.zeros(sim_grid.n, dtype=complex)
        with pytest.raises(ValueError):
            propagate(W, V, psi, cfg)
        with pytest.raises(ValueError):
            propagate(V, V, np.zeros(7, dtype=complex), cfg)


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

    def test_unit_initial_projection(self, sim_grid, V):
        cfg = cfg_for(sim_grid, epsilon=0.0, t_final=0.1)
        out = filter_experiment(V, V, cfg, noise_amplitude=1.0, seed=3)
        assert out.projection_sq[0] == pytest.approx(1.0, rel=1e-12)
