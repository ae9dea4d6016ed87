"""Spectral solver tests against analytic and integrator oracles."""
import warnings

import numpy as np
import pytest

import oracles
from oracles import hamiltonian_apply
from pdp.errors import NoBoundState, SolverFailure
from pdp.grid import PotentialField, make_grid, sech_well, square_well, trapz
from pdp.spectral import (
    distorted_plane_waves,
    lattice_wavenumber,
    outgoing_resolvent_solve,
    reduced_resolvent_at_eigenvalue,
    scattering_k_derivative,
    solve_ground_state,
    transmission,
    wronskian_at_zero,
)


def pt_potential(grid, a=15.0):
    """Truncated Poschl-Teller well -2 sech^2(x): lam = -1, reflectionless."""
    vals = np.where(np.abs(grid.x) <= a, -2.0 / np.cosh(grid.x) ** 2, 0.0)
    return PotentialField(grid, vals, a)


@pytest.fixture(scope="module")
def grid():
    return make_grid(-20, 20, 2001)


@pytest.fixture(scope="module")
def pt(grid):
    return pt_potential(grid)


class TestHamiltonianApply:
    def test_constant_interior_zero(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        out = hamiltonian_apply(V, np.ones(grid.n))
        np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-11)

    def test_discrete_sine_eigenvector(self, grid):
        # sin(pi (x - x_min) / L) vanishes at both ends and is an exact
        # eigenvector of the Dirichlet 3-point Laplacian
        L = grid.x_max - grid.x_min
        u = np.sin(np.pi * (grid.x - grid.x_min) / L)
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        h = grid.h
        lam_d = (2 - 2 * np.cos(np.pi * h / L)) / h**2
        out = hamiltonian_apply(V, u)
        np.testing.assert_allclose(out[1:-1], lam_d * u[1:-1], rtol=1e-8, atol=1e-10)

    def test_extracts_matrix_column(self, grid):
        rng = np.random.default_rng(0)
        vals = np.where(np.abs(grid.x) <= 15, rng.standard_normal(grid.n), 0)
        V = PotentialField(grid, vals, 15.0)
        j = 700
        e = np.zeros(grid.n)
        e[j] = 1.0
        col = hamiltonian_apply(V, e)
        h2 = grid.h**2
        assert col[j] == pytest.approx(2 / h2 + vals[j])
        assert col[j - 1] == col[j + 1] == pytest.approx(-1 / h2)
        assert np.count_nonzero(col) == 3

    def test_length_mismatch(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        with pytest.raises(ValueError):
            hamiltonian_apply(V, np.ones(5))


class TestGroundState:
    def test_poschl_teller_energy_and_shape(self, grid, pt):
        bs = solve_ground_state(pt)
        lam_exact, psi_exact = oracles.pt_ground_state(grid.x)
        assert bs.lam == pytest.approx(lam_exact, abs=5e-4)
        assert np.max(np.abs(bs.psi - psi_exact)) < 5e-4
        assert bs.count_negative_eigenvalues == 1

    def test_energy_convergence_order(self):
        errs = []
        for n in (1001, 2001):
            g = make_grid(-20, 20, n)
            errs.append(abs(solve_ground_state(pt_potential(g)).lam + 1.0))
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_normalization_and_sign(self, pt):
        bs = solve_ground_state(pt)
        assert trapz(pt.grid, bs.psi**2) == pytest.approx(1.0, abs=1e-10)
        assert bs.psi[np.argmax(np.abs(bs.psi))] > 0

    def test_eigen_residual(self, pt):
        bs = solve_ground_state(pt)
        r = hamiltonian_apply(pt, bs.psi) - bs.lam * bs.psi
        assert np.linalg.norm(r[1:-1]) < 1e-8 * (2 / pt.grid.h**2)

    def test_free_potential_has_no_bound_state(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        with pytest.raises(NoBoundState):
            solve_ground_state(V)

    def test_square_well_matches_matching_condition(self, grid):
        V0, w = 1.3, 2.0
        V = square_well(V0, w, 15.0, grid)
        lam = solve_ground_state(V).lam
        assert lam == pytest.approx(oracles.square_well_ground_energy(V0, w), abs=2e-4)


class TestOutgoingResolvent:
    def test_free_green_function(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        k = 1.0
        j0 = grid.n // 2
        f = np.zeros(grid.n)
        f[j0] = 1.0 / grid.h  # discrete point source
        u = outgoing_resolvent_solve(V, k, f)
        exact = 1j / (2 * k) * np.exp(1j * k * np.abs(grid.x))
        assert np.max(np.abs(u - exact)) < 1e-3

    def test_zero_forcing(self, grid, pt):
        u = outgoing_resolvent_solve(pt, 1.3, np.zeros(grid.n))
        np.testing.assert_allclose(u, 0.0)

    def test_linearity(self, grid, pt):
        rng = np.random.default_rng(1)
        f1 = rng.standard_normal(grid.n)
        f2 = rng.standard_normal(grid.n)
        u = outgoing_resolvent_solve(pt, 0.8, f1 + f2)
        u12 = outgoing_resolvent_solve(pt, 0.8, f1) + outgoing_resolvent_solve(pt, 0.8, f2)
        np.testing.assert_allclose(u, u12, rtol=1e-11)

    def test_interior_residual(self, grid, pt):
        rng = np.random.default_rng(2)
        f = np.where(np.abs(grid.x) <= 10, rng.standard_normal(grid.n), 0.0) + 0j
        k = 1.1
        u = outgoing_resolvent_solve(pt, k, f)
        r = hamiltonian_apply(pt, u) - k * k * u - f
        assert np.max(np.abs(r[1:-1])) < 1e-7 * np.max(np.abs(u)) * (2 / grid.h**2)

    def test_nan_in_support_is_solver_failure(self, grid):
        vals = sech_well(1.5, 1.5, 12.0, grid).values.copy()
        vals[grid.n // 2] = np.nan
        V = PotentialField(grid, vals, 12.0)
        with pytest.raises(SolverFailure):
            outgoing_resolvent_solve(V, 1.0, np.ones(grid.n))

    def test_k_must_be_positive(self, pt):
        with pytest.raises(ValueError):
            outgoing_resolvent_solve(pt, 0.0, np.zeros(pt.grid.n))

    def test_lattice_wavenumber_dispersion(self):
        h = 0.02
        k = 1.7
        q = lattice_wavenumber(k, h)
        assert (2 - 2 * np.cos(q * h)) / h**2 == pytest.approx(k * k, rel=1e-12)
        with pytest.raises(ValueError):
            lattice_wavenumber(150.0, h)


class TestDistortedPlaneWaves:
    def test_free_case(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        st = distorted_plane_waves(V, 1.2)
        q = lattice_wavenumber(1.2, grid.h)
        np.testing.assert_allclose(st.e_plus, np.exp(1j * q * grid.x), atol=1e-10)
        assert st.t == pytest.approx(1.0, abs=1e-10)
        assert abs(st.r) < 1e-10

    def test_poschl_teller_reflectionless(self, pt):
        st = distorted_plane_waves(pt, 1.0)
        assert abs(st.t) == pytest.approx(1.0, abs=1e-3)
        assert abs(st.r) < 1e-3

    def test_square_well_against_analytic_transfer_matrix(self, grid):
        V0, w = 1.3, 2.0
        V = square_well(V0, w, 15.0, grid)
        for k in (0.4, 1.1, 2.3):
            st = distorted_plane_waves(V, k)
            t_exact = oracles.square_well_transmission(V0, w, k)
            assert abs(st.t - t_exact) < 2e-3
            assert st.unitarity_defect < 1e-10

    def test_generic_against_ode_oracle(self, grid):
        vals = np.where(
            np.abs(grid.x) <= 10,
            -0.8 * np.exp(-((grid.x - 1.0) ** 2) / 3.0),
            0.0,
        )
        V = PotentialField(grid, vals, 10.0)

        def v_func(x):
            return -0.8 * np.exp(-((x - 1.0) ** 2) / 3.0) if abs(x) <= 10 else 0.0

        for k in (0.6, 1.4):
            st = distorted_plane_waves(V, k)
            t_o, r_o = oracles.scattering_amplitudes(v_func, 10.0, k)
            assert abs(st.t - t_o) < 2e-3
            assert abs(st.r - r_o) < 2e-3

    def test_symmetry_relation(self, pt):
        # for symmetric V: e_-(x) = e_+(-x)
        st = distorted_plane_waves(pt, 0.9)
        assert np.max(np.abs(st.e_minus - st.e_plus[::-1])) < 1e-9


def dense_bordered_solve(V, bs, f):
    """u from a dense solve of [[A, psi], [(w psi)^T, 0]] [u; c] = [P_c f; 0].

    A = H_V - lambda with the discrete decay rows at both ends.  The
    bordered matrix stays well conditioned even where A is singular.
    """
    grid = V.grid
    h, n, lam, psi, w = grid.h, grid.n, bs.lam, bs.psi, grid.weights
    kq = np.arccosh(1.0 - lam * h * h / 2.0) / h
    off = -np.ones(n - 1) / h**2
    A = np.diag(2.0 / h**2 + V.values - lam) + np.diag(off, 1) + np.diag(off, -1)
    A[0, 0] -= np.exp(-kq * h) / h**2
    A[-1, -1] -= np.exp(-kq * h) / h**2
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = psi
    M[n, :n] = w * psi
    fc = f - (w @ (psi * f)) * psi
    return np.linalg.solve(M, np.append(fc, 0.0))[:n]


def walled_sech(grid):
    """a=12 sech well with a height-40 wall on 6 < x < 7 (psi not even)."""
    wall = np.where((grid.x > 6.0) & (grid.x < 7.0), 40.0, 0.0)
    return PotentialField(grid, sech_well(1.5, 1.5, 12.0, grid).values + wall, 12.0)


class TestReducedResolvent:
    @pytest.mark.parametrize(
        "half, a, build",
        [
            (20.0, 12.0, lambda g: sech_well(0.5, 1.0, 12.0, g)),  # shallow, lam ~ -0.2
            (20.0, 12.0, lambda g: sech_well(1.5, 1.5, 12.0, g)),
            (20.0, 12.0, walled_sech),
            # psi ~ 1e-28 at the ends: A is singular to machine precision
            (80.0, 64.0, lambda g: sech_well(1.5, 1.5, 64.0, g)),
        ],
        ids=["shallow", "sech", "tall-wall", "wide-domain"],
    )
    def test_matches_dense_bordered_solve(self, half, a, build):
        grid = make_grid(-half, half, 401)
        V = build(grid)
        bs = solve_ground_state(V)
        rng = np.random.default_rng(7)
        f = np.where(np.abs(grid.x) <= a, rng.standard_normal(grid.n), 0.0)
        u = reduced_resolvent_at_eigenvalue(V, bs, f)
        ref = dense_bordered_solve(V, bs, f)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_projection_annihilates_psi(self, pt):
        bs = solve_ground_state(pt)
        u = reduced_resolvent_at_eigenvalue(pt, bs, bs.psi.copy())
        assert np.max(np.abs(u)) < 1e-10

    def test_residual_and_orthogonality(self, grid, pt):
        bs = solve_ground_state(pt)
        rng = np.random.default_rng(3)
        f = np.where(np.abs(grid.x) <= 10, rng.standard_normal(grid.n), 0.0)
        u = reduced_resolvent_at_eigenvalue(pt, bs, f)
        w = grid.weights
        assert abs(w @ (bs.psi * u)) < 1e-9 * np.max(np.abs(u))
        fc = f - (w @ (bs.psi * f)) * bs.psi
        # (H - lam) u = P_c f + c psi for some multiplier c; remove the psi part
        r = hamiltonian_apply(pt, u) - bs.lam * u - fc
        r -= (w @ (bs.psi * r)) * bs.psi
        assert np.max(np.abs(r[1:-1])) < 1e-6

    def test_even_input_gives_even_output(self, grid, pt):
        bs = solve_ground_state(pt)
        f = np.where(np.abs(grid.x) <= 10, np.exp(-grid.x**2), 0.0)
        u = reduced_resolvent_at_eigenvalue(pt, bs, f)
        assert np.max(np.abs(u - u[::-1])) < 1e-8 * max(1.0, np.max(np.abs(u)))


class TestScatteringKDerivative:
    def test_matches_finite_difference_in_k(self, grid):
        vals = np.where(np.abs(grid.x) <= 10, -0.9 * np.exp(-grid.x**2 / 4), 0.0)
        V = PotentialField(grid, vals, 10.0)
        k = 1.2
        st = distorted_plane_waves(V, k)
        a_p, a_m = scattering_k_derivative(V, st)
        dk = 1e-6
        stp = distorted_plane_waves(V, k + dk)
        stm = distorted_plane_waves(V, k - dk)
        fd_p = (stp.e_plus - stm.e_plus) / (2 * dk)
        fd_m = (stp.e_minus - stm.e_minus) / (2 * dk)
        scale = np.max(np.abs(fd_p))
        assert np.max(np.abs(a_p - fd_p)) < 1e-4 * scale
        assert np.max(np.abs(a_m - fd_m)) < 1e-4 * scale


class TestTransmissionSweep:
    @pytest.mark.parametrize(
        "build",
        [lambda g: sech_well(1.5, 1.5, 12.0, g), walled_sech],
        ids=["sech", "tall-wall"],
    )
    def test_transmission_is_distorted_plane_wave_t(self, grid, build):
        # the k values of the transmission.csv table
        V = build(grid)
        for k in np.linspace(0.1, 4.0, 40):
            assert transmission(V, float(k)) == distorted_plane_waves(V, float(k)).t

    def test_free_all_ones(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        tsq = [abs(distorted_plane_waves(V, k).t) ** 2 for k in (0.5, 1.0, 2.0)]
        np.testing.assert_allclose(tsq, 1.0, atol=1e-10)

    def test_lower_bound_random_potentials(self, grid):
        # |t(k)| >= exp(-min(1/k, 2a) * int |V|)
        rng = np.random.default_rng(4)
        a = 10.0
        for _ in range(5):
            vals = np.where(
                np.abs(grid.x) <= a,
                -0.5 * rng.uniform(0.2, 1.0) * np.exp(-grid.x**2 / rng.uniform(2, 8)),
                0.0,
            )
            V = PotentialField(grid, vals, a)
            int_abs_v = trapz(grid, np.abs(V.values))
            for k in (0.3, 0.8, 1.5, 2.5):
                bound = np.exp(-min(1.0 / k, 2 * a) * int_abs_v)
                st = distorted_plane_waves(V, k)
                assert abs(st.t) >= bound * (1 - 1e-6)

    def test_bragg_dip_of_truncated_cosine(self, grid):
        # lattice frequency q: near-gap dip centered at the Bragg
        # wavenumber q/2
        q = 2.0
        vals = np.where(np.abs(grid.x) <= 10, 0.2 * np.cos(q * grid.x), 0.0)
        V = PotentialField(grid, vals, 10.0)
        ks = np.linspace(0.6, 1.4, 81)
        tsq = np.array([abs(distorted_plane_waves(V, float(k)).t) ** 2 for k in ks])
        k_dip = ks[np.argmin(tsq)]
        assert abs(k_dip - q / 2) < 0.1
        assert tsq.min() < 0.9

        def v_func(x):
            return 0.2 * np.cos(q * x) if abs(x) <= 10 else 0.0

        t_o, _ = oracles.scattering_amplitudes(v_func, 10.0, float(k_dip))
        assert tsq.min() == pytest.approx(abs(t_o) ** 2, rel=1e-2)


class TestTransmissionRecurrence:
    @pytest.mark.parametrize(
        "V0, w, k",
        [
            (150.0, 0.0, 0.5),  # one node: |t|^2 ~ 0.1
            (150.0, 0.2, 0.5),  # ~ 1e-6
            (150.0, 1.0, 0.5),  # ~ 1e-23
            (150.0, 3.0, 0.5),  # ~ 4e-66
            (150.0, 6.0, 0.5),  # ~ 1e-129
            (150.0, 9.4, 0.5),  # ~ 8e-202
            (0.02, 15.0, 0.1),  # shallow and wide: ~ 1e-2
            (1.0, 3.0, 2.0),  # above the barrier, oscillating rows
            (-0.8, 4.0, 1.1),  # a well
        ],
    )
    def test_flat_barrier_matches_lattice_oracle(self, grid, V0, w, k):
        vals = np.where(np.abs(grid.x) <= w, V0, 0.0)
        V = PotentialField(grid, vals, w)
        m = int(np.count_nonzero(vals))
        t_exact = oracles.lattice_barrier_transmission(V0, m, grid.h, k)
        assert t_exact != 0.0
        assert abs(transmission(V, k) - t_exact) <= 1e-10 * abs(t_exact)

    @pytest.mark.parametrize(
        "build",
        [lambda g: sech_well(1.5, 1.5, 12.0, g), walled_sech],
        ids=["sech", "tall-wall"],
    )
    def test_batch_equals_scalar_calls(self, grid, build):
        V = build(grid)
        ks = np.linspace(0.1, 4.0, 40)
        batch = transmission(V, ks)
        assert batch.shape == ks.shape
        assert all(bt == transmission(V, k) for bt, k in zip(batch.tolist(), ks.tolist()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_raises(self, grid, bad):
        vals = sech_well(1.5, 1.5, 12.0, grid).values.copy()
        vals[900] = bad
        V = PotentialField(grid, vals, 12.0)
        with pytest.raises(SolverFailure):
            transmission(V, 1.0)
        with pytest.raises(SolverFailure):
            transmission(V, np.array([0.5, 1.0]))

    def test_unresolvable_k_raises(self, grid):
        V = sech_well(1.5, 1.5, 12.0, grid)
        k_max = 2.0 / grid.h  # k h / 2 = 1
        for k in (0.0, -1.0, k_max, 2.0 * k_max, np.nan):
            with pytest.raises(ValueError):
                transmission(V, k)
        with pytest.raises(ValueError):
            transmission(V, np.array([0.5, 0.0]))

    def test_opaque_wall_gives_zero_without_warnings(self):
        # V0 = 100 over a width of 80: int sqrt(V0) dx = 800 > 745, so
        # |t| = e^{-800} is below the smallest subnormal
        g = make_grid(-50, 50, 5001)
        V = PotentialField(g, np.where(np.abs(g.x) <= 40.0, 100.0, 0.0), 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = distorted_plane_waves(V, 1.0)
            t = transmission(V, np.array([0.5, 1.0, 3.0]))
        assert st.t == 0.0 and np.all(t == 0.0)
        assert abs(abs(st.r) - 1.0) <= 1e-12
        assert np.isfinite(st.r)

    def test_free_potential_transmits_exactly(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        assert transmission(V, 1.3) == 1.0
        assert np.all(transmission(V, np.array([0.1, 2.0, 4.0])) == 1.0)
        st = distorted_plane_waves(V, 0.7)
        assert st.t == 1.0 and st.r == 0.0


class TestWronskian:
    def test_free_potential_is_exceptional(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        wr = wronskian_at_zero(V)
        np.testing.assert_allclose(wr.eta_plus, 1.0)
        np.testing.assert_allclose(wr.eta_minus, 1.0)
        assert wr.w0 == pytest.approx(0.0, abs=1e-14)
        assert wr.valid

    def test_square_well_matches_shooting_to_four_digits(self):
        g = make_grid(-20, 20, 4001)  # h = 0.01
        V0, w = 1.3, 2.0
        V = square_well(V0, w, 15.0, g)
        wr = wronskian_at_zero(V)
        w_exact = oracles.wronskian_shooting(
            lambda x: -V0 if abs(x) < w else 0.0, 20.0, breakpoints=(-w, w)
        )
        assert wr.valid
        assert wr.w0 == pytest.approx(w_exact, rel=1e-4)

    def test_variance_tiny_for_smooth_potential(self, pt):
        wr = wronskian_at_zero(pt)
        assert wr.variance < 1e-8
        assert wr.valid

    def test_poschl_teller_zero_energy_resonance(self, pt):
        # -2 sech^2 has a zero-energy half-bound state: W(0) ~ 0
        wr = wronskian_at_zero(pt)
        assert abs(wr.w0) < 5e-3

    def test_generic_smooth_against_shooting(self):
        g = make_grid(-20, 20, 8001)  # h = 0.005 for the 1e-4 comparison
        vals = np.where(np.abs(g.x) <= 10, -1.4 / np.cosh(1.4 * g.x), 0.0)
        V = PotentialField(g, vals, 10.0)
        wr = wronskian_at_zero(V)
        w_exact = oracles.wronskian_shooting(
            lambda x: -1.4 / np.cosh(1.4 * x) if abs(x) <= 10 else 0.0,
            20.0,
            breakpoints=(-10.0, 10.0),
        )
        assert wr.w0 == pytest.approx(w_exact, rel=1e-4)
