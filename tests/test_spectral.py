"""Spectral solver tests against analytic and integrator oracles."""
import warnings

import numpy as np
import pytest

import oracles
from oracles import hamiltonian_apply, square_well
from pdp.errors import NoBoundState, SolverFailure
from pdp.grid import PotentialField, make_grid, sech_well, trapz
from pdp import kernels, spectral
from pdp.spectral import (
    ScatteringState,
    distorted_plane_waves,
    lattice_wavenumber,
    outgoing_resolvent_solve,
    reduced_resolvent_at_eigenvalue,
    solve_ground_state,
    transmission,
    wronskian_at_zero,
)


def full_waves(V, k):
    """(e_+, e_-) of V at k on the full grid, from one outgoing solve."""
    return distorted_plane_waves(ScatteringState(k, V))[0]


def reflection(V, k):
    """r(k), read off the support recurrence that gives t."""
    return complex(spectral._support_recurrence(V, np.array([float(k)]))[1][0])


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

    def test_positive_barrier_has_no_bound_state(self, grid):
        V = square_well(-0.5, 3.0, 15.0, grid)
        with pytest.raises(NoBoundState):
            solve_ground_state(V)

    def test_deep_wide_well_counts_every_bound_state(self):
        # depth 3, half-width 4: 2 w sqrt(V0) / pi = 4.4, so five bound states
        g = make_grid(-10, 10, 401)
        V = square_well(3.0, 4.0, 8.0, g)
        h2 = g.h**2
        H = (np.diag(2.0 / h2 + V.values[1:-1])
             - np.diag(np.full(g.n - 3, 1.0 / h2), 1)
             - np.diag(np.full(g.n - 3, 1.0 / h2), -1))
        w = np.linalg.eigvalsh(H)
        bs = solve_ground_state(V)
        assert bs.count_negative_eigenvalues == np.count_nonzero(w < 0.0) == 5
        assert bs.lam == pytest.approx(w[0], abs=1e-10)
        r = hamiltonian_apply(V, bs.psi) - bs.lam * bs.psi
        assert np.linalg.norm(r[1:-1]) < 1e-8 * (2 / h2)

    def test_square_well_matches_matching_condition(self, grid):
        V0, w = 1.3, 2.0
        V = square_well(V0, w, 15.0, grid)
        lam = solve_ground_state(V).lam
        assert lam == pytest.approx(oracles.square_well_ground_energy(V0, w), abs=2e-4)


def full_grid_solve(V):
    """(count, lam, psi) from kernels._lowest_eigenpair on the full interior
    matrix, normalized and signed as BoundState does."""
    h = V.grid.h
    d = 2.0 / h**2 + V.values[1:-1]
    count, lam, v = kernels._lowest_eigenpair(d, np.full(V.grid.n - 3, -1.0 / h**2))
    scale = 1.0 / np.sqrt(h * (v @ v))
    if v[np.argmax(np.abs(v))] < 0:
        scale = -scale
    psi = np.zeros(V.grid.n)
    psi[1:-1] = v * scale
    return count, lam, psi


def double_well(grid):
    """Two Gaussian wells at x = +-5 whose even and odd states are split
    by 4.7e-3."""
    x = grid.x
    v = -(np.exp(-((x - 5.0) ** 2)) + np.exp(-((x + 5.0) ** 2)))
    return PotentialField(grid, np.where(np.abs(x) <= 12.0, v, 0.0), 12.0)


class TestGroundStateParity:
    # a mirror-symmetric V on a centred grid with odd n is solved from the
    # even half of the grid; every other V on the full grid
    @staticmethod
    def _parity_calls(monkeypatch):
        calls = []
        parity = kernels._lowest_eigenpair_by_parity

        def counted(d, e):
            calls.append(d.size)
            return parity(d, e)

        monkeypatch.setattr(kernels, "_lowest_eigenpair_by_parity", counted)
        return calls

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda g: sech_well(1.5, 1.5, 12.0, g), 1),
            (lambda g: square_well(2.0, 3.0, 15.0, g), 3),  # even, odd, even
            (double_well, 2),
        ],
        ids=["sech", "square", "double"],
    )
    def test_matches_full_grid_solve(self, grid, build, count, monkeypatch):
        V = build(grid)
        ref_count, ref_lam, ref_psi = full_grid_solve(V)
        calls = self._parity_calls(monkeypatch)
        bs = solve_ground_state(V)
        assert calls == [grid.n - 2]
        assert bs.count_negative_eigenvalues == ref_count == count
        assert abs(bs.lam - ref_lam) <= 1e-12 * max(1.0, abs(ref_lam))
        assert np.max(np.abs(bs.psi - ref_psi)) <= 1e-10

    @pytest.mark.parametrize(
        "build, odd",
        [
            (lambda g: sech_well(1.5, 1.5, 12.0, g), 0),
            (lambda g: square_well(2.0, 3.0, 15.0, g), 1),
            (double_well, 1),
        ],
        ids=["sech", "square", "double"],
    )
    def test_odd_block_count_equals_the_sturm_count(self, grid, build, odd, monkeypatch):
        # a pivot sweep settles a positive definite odd block; any other is
        # counted by bisection, as the full count needs
        d, e = spectral._dirichlet_rows(build(grid))
        c = d.size // 2
        assert kernels._count_negative(d[:c], e[: c - 1]) == odd
        assert kernels._positive_definite(d[:c], e[: c - 1]) == (odd == 0)
        counted = []
        count_negative = kernels._count_negative
        monkeypatch.setattr(
            kernels, "_count_negative", lambda d, e: counted.append(d.size) or count_negative(d, e)
        )
        bs = solve_ground_state(build(grid))
        assert counted == ([] if odd == 0 else [c])
        assert bs.count_negative_eigenvalues == full_grid_solve(build(grid))[0]

    def test_double_well_pair_is_closer_than_the_coarse_tolerance(self, grid):
        h = grid.h
        d = 2.0 / h**2 + double_well(grid).values[1:-1]
        e = np.full(d.size - 1, -1.0 / h**2)
        m, w, *_ = kernels._stebz(d, e, 1, -np.inf, 0.0, 0, 0, 0.0, "B")
        w = np.sort(w[:m])
        assert m == 2 and 0.0 < w[1] - w[0] < kernels._SHIFT_TOL

    @pytest.mark.parametrize("case", ["even-n", "off-centre", "one-ulp"])
    def test_other_potentials_take_the_full_grid_path(self, case, monkeypatch):
        if case == "even-n":
            V = sech_well(1.5, 1.5, 12.0, make_grid(-20.0, 20.0, 2000))
        elif case == "off-centre":
            g = make_grid(-30.0, 40.0, 2001)  # middle node at x = 5
            v = np.where(np.abs(g.x - 5.0) <= 7.0, -1.5 / np.cosh(1.5 * (g.x - 5.0)), 0.0)
            V = PotentialField(g, 0.5 * (v + v[::-1]), 12.0)
        else:
            V = sech_well(1.5, 1.5, 12.0, make_grid(-20.0, 20.0, 2001))
            v = V.values.copy()
            v[800] = np.nextafter(v[800], -np.inf)
            V = V.with_values(v)
        assert np.array_equal(V.values, V.values[::-1]) == (case != "one-ulp")
        calls = self._parity_calls(monkeypatch)
        bs = solve_ground_state(V)
        assert calls == []
        count, lam, psi = full_grid_solve(V)
        assert bs.count_negative_eigenvalues == count
        assert bs.lam == lam
        assert bs.psi.tobytes() == psi.tobytes()


class TestLatticeWaveParity:
    # on a centred grid x is exactly odd, and the lattice wave is taken on
    # x >= 0 and conjugated onto the mirror nodes; elsewhere in full
    @staticmethod
    def _exp_sizes(monkeypatch):
        sizes = []
        exp = np.exp

        def counted(z, *args, **kwargs):
            sizes.append(np.size(z))
            return exp(z, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        return sizes

    @pytest.mark.parametrize(
        "x_max, n", [(20.0, 2001), (20.0, 2000), (80.0, 3001), (7.3, 64)],
        ids=["n2001", "n2000", "n3001", "n64"],
    )
    def test_equals_the_full_exponential(self, x_max, n, monkeypatch):
        grid = make_grid(-x_max, x_max, n)
        assert grid.centred and np.array_equal(grid.x, -grid.x[::-1])
        V = sech_well(1.5, 1.5, 0.5 * x_max, grid)
        kmax = 2.0 / grid.h
        # up to just below the lattice cutoff 2/h
        ks = np.append(np.linspace(0.01, 0.99, 24), 1.0 - 1e-12) * kmax
        sizes = self._exp_sizes(monkeypatch)
        for k in ks.tolist():
            q = lattice_wavenumber(k, grid.h)
            wave = spectral.ScatteringState(k, V).wave
            assert wave.tobytes() == np.exp(1j * q * grid.x).tobytes(), k
        # one half-grid exponential per wave, one full one per reference
        assert sizes == [n - n // 2, n] * ks.size

    def test_off_centre_grid_takes_the_full_exponential(self, monkeypatch):
        grid = make_grid(-30.0, 40.0, 2001)
        assert not grid.centred
        V = sech_well(1.5, 1.5, 12.0, grid)
        sizes = self._exp_sizes(monkeypatch)
        wave = spectral.ScatteringState(1.1, V).wave
        assert sizes == [grid.n]
        q = lattice_wavenumber(1.1, grid.h)
        assert wave.tobytes() == np.exp(1j * q * grid.x).tobytes()


class TestEigenvalueAtOrBelow:
    @pytest.mark.parametrize(
        "build",
        [
            lambda g: sech_well(1.5, 1.5, 12.0, g),
            lambda g: square_well(2.0, 3.0, 15.0, g),
            double_well,
            lambda g: walled_sech(g),  # defined below
            lambda g: PotentialField(g, np.where(np.abs(g.x - 3.0) <= 5.0, -1.0, 0.0), 12.0),
        ],
        ids=["sech", "square", "double", "walled", "asymmetric"],
    )
    def test_agrees_with_the_eigensolve(self, grid, build):
        V = build(grid)
        lam = solve_ground_state(V).lam
        for gap in (-0.3, -0.1, -1e-3, 1e-3, 0.1, 0.3):
            assert spectral.has_eigenvalue_at_or_below(V, lam + gap) == (gap > 0.0)

    def test_no_bound_state_is_never_below_zero(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        assert not spectral.has_eigenvalue_at_or_below(V, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_raises_as_the_eigensolve(self, grid, bad):
        v = sech_well(1.5, 1.5, 12.0, grid).values.copy()
        v[grid.n // 2] = bad
        V = PotentialField(grid, v, 12.0)
        with pytest.raises(ValueError, match="infs or NaNs") as sweep:
            spectral.has_eigenvalue_at_or_below(V, -2.0)
        with pytest.raises(ValueError) as solve:
            solve_ground_state(V)
        assert str(sweep.value) == str(solve.value)

    @staticmethod
    def swept_rows(monkeypatch):
        """The row counts of every pivot sweep from now on."""
        rows, sweep = [], kernels._positive_definite
        monkeypatch.setattr(
            kernels, "_positive_definite", lambda d, e: rows.append(d.size) or sweep(d, e)
        )
        return rows

    @staticmethod
    def full_sweep(V, energy):
        """The answer of one pivot sweep of all n - 2 interior rows."""
        d, e = spectral._dirichlet_rows(V)
        return not kernels._positive_definite(d - energy, e)

    def test_no_sweep_below_the_smallest_potential(self, grid, monkeypatch):
        # every eigenvalue is at least min V (Gershgorin), so an energy
        # below it needs no sweep; at min V itself the sweep decides
        rows = self.swept_rows(monkeypatch)
        for V in (sech_well(1.5, 1.5, 12.0, grid), walled_sech(grid)):
            low = float(V.values.min())
            expected = self.full_sweep(V, low)
            rows.clear()
            for energy in (low - 1.0, low - 1e-9):
                assert not spectral.has_eigenvalue_at_or_below(V, energy)
            assert rows == []
            assert spectral.has_eigenvalue_at_or_below(V, low) == expected
            assert len(rows) == 1

    def test_mirrored_potential_sweeps_the_even_block(self, grid, monkeypatch):
        # the even block's lowest eigenvalue is H_V's: nodes 1..c are swept
        for V in (sech_well(1.5, 1.5, 12.0, grid), double_well(grid)):
            assert V.mirrored
            lam = solve_ground_state(V).lam
            gaps = (-0.3, -1e-3, -1e-6, 1e-6, 1e-3, 0.3)
            expected = [gap > 0.0 for gap in gaps]
            assert [self.full_sweep(V, lam + gap) for gap in gaps] == expected
            rows = self.swept_rows(monkeypatch)
            assert [spectral.has_eigenvalue_at_or_below(V, lam + gap) for gap in gaps] == expected
            assert len(rows) >= 5 and set(rows) == {grid.n // 2}
            monkeypatch.undo()


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

    def test_forcing_of_the_wrong_length_is_rejected(self, grid, pt):
        with pytest.raises(ValueError, match="forcing length does not match grid"):
            outgoing_resolvent_solve(pt, 1.3, np.zeros(grid.n - 1))

    @pytest.mark.parametrize("rows", [lambda n: n + 1, lambda n: n - 1, lambda n: 5],
                             ids=["n+1", "n-1", "5"])
    def test_source_of_the_wrong_length_is_rejected(self, grid, pt, rows):
        # the rows are checked before the free columns are built from them
        st = ScatteringState(1.3, pt)
        with pytest.raises(ValueError, match="forcing length does not match grid"):
            distorted_plane_waves(st, np.zeros(rows(grid.n)))

    def test_forcing_rows_pick_the_grid(self, grid, pt):
        # n rows are the full grid; c + 1 rows are the even half, which
        # only a V that splits by parity has, and a call without a source
        # solves on the full grid
        rows = grid.n // 2 + 1
        f = pt.values[:rows] + 0j
        assert outgoing_resolvent_solve(pt, 1.3, f).shape == (rows,)
        st = ScatteringState(1.3, pt)
        waves, u = distorted_plane_waves(st, f)
        assert [e.shape for e in waves] == [(rows,)] and u.shape == (rows,)
        waves, u = distorted_plane_waves(st)
        assert [e.shape for e in waves] == [(grid.n,), (grid.n,)] and u is None
        assert list(vars(st)) == ["k", "V", "wave"]  # no wave of either solve is kept
        V = walled_sech(grid)
        bs = solve_ground_state(V)
        for solve in (
            lambda f: outgoing_resolvent_solve(V, 1.3, f),
            lambda f: reduced_resolvent_at_eigenvalue(V, bs, f),
            lambda f: distorted_plane_waves(ScatteringState(1.3, V), f),
        ):
            with pytest.raises(ValueError, match="an even solve needs a V that reads the same"):
                solve(np.zeros(rows))

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
        e_p, _ = full_waves(V, 1.2)
        q = lattice_wavenumber(1.2, grid.h)
        np.testing.assert_allclose(e_p, np.exp(1j * q * grid.x), atol=1e-10)
        assert ScatteringState(1.2, V).t == pytest.approx(1.0, abs=1e-10)
        assert abs(reflection(V, 1.2)) < 1e-10

    def test_poschl_teller_reflectionless(self, pt):
        st = ScatteringState(1.0, pt)
        assert abs(st.t) == pytest.approx(1.0, abs=1e-3)
        assert abs(reflection(pt, 1.0)) < 1e-3

    def test_square_well_against_analytic_transfer_matrix(self, grid):
        V0, w = 1.3, 2.0
        V = square_well(V0, w, 15.0, grid)
        for k in (0.4, 1.1, 2.3):
            st = ScatteringState(k, V)
            t_exact = oracles.square_well_transmission(V0, w, k)
            assert abs(st.t - t_exact) < 2e-3
            assert abs(abs(reflection(V, k)) ** 2 + abs(st.t) ** 2 - 1.0) < 1e-10

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
            st = ScatteringState(k, V)
            t_o, r_o = oracles.scattering_amplitudes(v_func, 10.0, k)
            assert abs(st.t - t_o) < 2e-3
            assert abs(reflection(V, k) - r_o) < 2e-3

    def test_symmetry_relation(self, pt):
        # for symmetric V: e_-(x) = e_+(-x)
        e_p, e_m = full_waves(pt, 0.9)
        assert np.max(np.abs(e_m - e_p[::-1])) < 1e-9

    @pytest.mark.parametrize("wall", [0.0, 40.0], ids=["sech", "walled"])
    def test_two_column_solve_equals_one_column_solves(self, grid, wall):
        # e_+- from one exponential and one two-column solve have the bits
        # of two exponentials and two one-column solves
        vals = sech_well(1.5, 1.5, 12.0, grid).values
        V = PotentialField(grid, vals + np.where((grid.x > 6.0) & (grid.x < 7.0), wall, 0.0), 12.0)
        k = 1.1
        st = ScatteringState(k, V)
        (e_p, e_m), _ = distorted_plane_waves(st)
        q = lattice_wavenumber(k, grid.h)
        for phase, e in ((1j, e_p), (-1j, e_m)):
            w = np.exp(phase * q * grid.x)
            one = w - outgoing_resolvent_solve(V, k, V.values * w)
            assert e.tobytes() == one.tobytes()
        assert st.wave.tobytes() == np.exp(1j * q * grid.x).tobytes()


    @pytest.mark.parametrize("wall", [0.0, 40.0], ids=["sech", "walled"])
    def test_source_column_keeps_the_bits_of_its_own_solve(self, grid, wall):
        # with a source, the solve for e_+- takes it as a third column;
        # the waves and the response keep the bits of their own solves
        vals = sech_well(1.5, 1.5, 12.0, grid).values
        V = PotentialField(grid, vals + np.where((grid.x > 6.0) & (grid.x < 7.0), wall, 0.0), 12.0)
        k = 1.1
        src = np.where(np.abs(grid.x) <= 2.0, 1.0, 0.0) * solve_ground_state(V).psi
        (e_p, e_m), u = distorted_plane_waves(ScatteringState(k, V), src)
        plain_p, plain_m = full_waves(V, k)
        assert e_p.tobytes() == plain_p.tobytes()
        assert e_m.tobytes() == plain_m.tobytes()
        assert u.tobytes() == outgoing_resolvent_solve(V, k, src).tobytes()


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
    def test_forcing_of_the_wrong_length_is_rejected(self, grid, pt):
        bs = solve_ground_state(pt)
        with pytest.raises(ValueError, match="forcing length does not match grid"):
            reduced_resolvent_at_eigenvalue(pt, bs, np.zeros(grid.n + 1))

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

    def test_matrix_singular_after_the_nudge_is_solver_failure(self, pt, monkeypatch):
        # the solve and its retry with the nudged diagonal both meet a zero pivot
        bs = solve_ground_state(pt)
        solves = []

        def singular(dl, d, du, b, **kw):
            solves.append(d.copy())
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(spectral, "_gtsv_solve", singular)
        with pytest.raises(
            SolverFailure, match=r"^bordered eigenvalue solve failed: singular matrix$"
        ):
            reduced_resolvent_at_eigenvalue(pt, bs, bs.psi.copy())
        assert len(solves) == 2
        assert solves[1].tobytes() == (solves[0] * spectral._PIVOT_NUDGE).tobytes()

    @pytest.mark.parametrize("rows", ["even_half", "full_grid"])
    def test_nan_forcing_is_solver_failure_before_any_solve(self, grid, pt, rows, monkeypatch):
        bs = solve_ground_state(pt)
        f = np.exp(-grid.x**2)
        f[grid.n // 2 - 3] = np.nan
        if rows == "even_half":  # nodes 0..c
            f = f[: grid.n // 2 + 1]
        solves = []
        monkeypatch.setattr(spectral, "_gtsv_solve", lambda *args, **kw: solves.append(1))
        with pytest.raises(
            SolverFailure,
            match=r"^bordered eigenvalue solve failed: array must not contain infs or NaNs$",
        ):
            reduced_resolvent_at_eigenvalue(pt, bs, f)
        assert solves == []

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
        a_p, a_m = oracles.scattering_k_derivative(V, k, full_waves(V, k))
        dk = 1e-6
        (ep_p, ep_m), (em_p, em_m) = full_waves(V, k + dk), full_waves(V, k - dk)
        fd_p = (ep_p - em_p) / (2 * dk)
        fd_m = (ep_m - em_m) / (2 * dk)
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
            assert transmission(V, float(k)) == ScatteringState(float(k), V).t

    def test_free_all_ones(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        tsq = [abs(ScatteringState(k, V).t) ** 2 for k in (0.5, 1.0, 2.0)]
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
                st = ScatteringState(k, V)
                assert abs(st.t) >= bound * (1 - 1e-6)

    def test_bragg_dip_of_truncated_cosine(self, grid):
        # lattice frequency q: near-gap dip centered at the Bragg
        # wavenumber q/2
        q = 2.0
        vals = np.where(np.abs(grid.x) <= 10, 0.2 * np.cos(q * grid.x), 0.0)
        V = PotentialField(grid, vals, 10.0)
        ks = np.linspace(0.6, 1.4, 81)
        tsq = np.array([abs(ScatteringState(float(k), V).t) ** 2 for k in ks])
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

    def test_overflowing_march_is_solver_failure(self, grid):
        # h^2 |V| = 4e196, about 2^652, on every row of |x| <= 2: a block
        # that holds two such rows grows the marched state by 2^1304, past
        # the float range (under 2^128 per row the blocks keep it finite)
        V = PotentialField(grid, np.where(np.abs(grid.x) <= 2.0, 1e200, 0.0), 12.0)
        with pytest.raises(SolverFailure, match="overflowed at k=1.0"):
            transmission(V, 1.0)

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
            st = ScatteringState(1.0, V)
            distorted_plane_waves(st)
            t = transmission(V, np.array([0.5, 1.0, 3.0]))
            r = reflection(V, 1.0)
        assert st.t == 0.0 and np.all(t == 0.0)
        assert abs(abs(r) - 1.0) <= 1e-12
        assert np.isfinite(r)

    def test_free_potential_transmits_exactly(self, grid):
        V = PotentialField(grid, np.zeros(grid.n), 15.0)
        assert transmission(V, 1.3) == 1.0
        assert np.all(transmission(V, np.array([0.1, 2.0, 4.0])) == 1.0)
        st = ScatteringState(0.7, V)
        assert st.t == 1.0 and reflection(V, 0.7) == 0.0


def _sech_bump_wells(grid, count, seed=11):
    """Symmetric wells of the evaluate benchmark's family: sech core plus a bump pair."""
    rng = np.random.default_rng(seed)
    x = grid.x
    wells = []
    for _ in range(count):
        A, B = rng.uniform(0.9, 2.0), rng.uniform(0.6, 1.6)
        amp, c, s = rng.uniform(-0.25, 0.25), rng.uniform(1.0, 6.0), rng.uniform(1.5, 3.0)
        v = -A / np.cosh(B * x) + amp * (np.exp(-((x - c) ** 2) / s) + np.exp(-((x + c) ** 2) / s))
        wells.append(PotentialField(grid, np.where(np.abs(x) <= 12.0, v, 0.0), 12.0))
    return wells


class TestSupportMarchCuts:
    # the cuts of the support march move only exact power-of-two
    # rescalings: t and r keep their bits under any budget that does not
    # overflow.  The budgets: the bound of every resolvable k ((h k)^2 < 4,
    # the cuts before they took the batch's own k), the batch's bound, a
    # tighter 300 bits, and one block, which the cases below do not
    # overflow (|t| > 2**-400)
    BUDGETS = ("worst_case", "batch", "300_bits", "one_block")
    KS = np.concatenate(([1.15], np.linspace(0.1, 4.0, 40)))

    @staticmethod
    def _cases(grid):
        x = grid.x
        return [
            *_sech_bump_wells(grid, 16),
            # opaque wall: |t|^2 ~ 4e-66 at k = 0.5
            PotentialField(grid, np.where(np.abs(x) <= 3.0, 150.0, 0.0), 3.0),
            # Bragg cosine, dip near k = 1
            PotentialField(grid, np.where(np.abs(x) <= 10.0, 0.2 * np.cos(2.0 * x), 0.0), 10.0),
        ]

    def _t_r(self, V, budget, monkeypatch):
        cuts = kernels._march_cuts
        blocks = []

        def cut_by_budget(hv, hk2_max):
            if budget == "one_block":
                out = [0, hv.shape[0]]
            else:
                out = cuts(hv, 4.0 if budget == "worst_case" else hk2_max)
            blocks.append(len(out) - 1)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_march_cuts", cut_by_budget)
            if budget == "300_bits":
                mp.setattr(kernels, "_BLOCK_BITS", 300)
            t, r = spectral._support_recurrence(V, self.KS)
        return t.view(float), r.view(float), blocks[0]

    def test_t_and_r_do_not_depend_on_the_cuts(self, grid, monkeypatch):
        cases = self._cases(grid)
        for V in cases:
            t0, r0 = (a.view(float) for a in spectral._support_recurrence(V, self.KS))
            blocks = {}
            for budget in self.BUDGETS:
                t, r, blocks[budget] = self._t_r(V, budget, monkeypatch)
                assert np.array_equal(t, t0) and np.array_equal(r, r0), budget
            # the budgets cut differently: over the 1201 rows of an a = 12
            # support the worst-case bound takes twice the batch's blocks
            assert blocks["one_block"] == 1 < blocks["300_bits"]
            assert blocks["batch"] <= blocks["worst_case"] < blocks["300_bits"]
            if V.support_halfwidth == 12.0:
                assert blocks["batch"] < blocks["worst_case"]
        opaque = spectral._support_recurrence(cases[16], np.array([0.5]))[0]
        assert 0.0 < abs(opaque[0]) ** 2 < 1e-60

    def test_batch_cuts_by_its_largest_k(self, grid, monkeypatch):
        seen = []
        cuts = kernels._march_cuts

        def spy(hv, hk2_max):
            seen.append(hk2_max)
            return cuts(hv, hk2_max)

        monkeypatch.setattr(kernels, "_march_cuts", spy)
        V = sech_well(1.5, 1.5, 12.0, grid)
        transmission(V, np.array([0.5, 4.0, 1.0]))
        transmission(V, 0.5)
        assert seen == [(4.0 * grid.h) ** 2, (0.5 * grid.h) ** 2]
        hv = grid.h**2 * V.values[np.flatnonzero(V.values)]
        assert len(cuts(hv, seen[0])) - 1 == 2  # two blocks over the 1201 rows
        assert len(cuts(hv, 4.0)) - 1 == 4  # with the bound of every resolvable k

    def test_empty_k_array_gives_empty_t(self, grid):
        V = sech_well(1.5, 1.5, 12.0, grid)
        t = transmission(V, np.array([]))
        assert t.shape == (0,) and t.dtype == np.complex128
        t, r = spectral._support_recurrence(V, np.array([]))
        assert t.shape == r.shape == (0,)

    def test_table_reads_t_in_the_same_march(self, grid, monkeypatch):
        calls = []
        march = kernels._support_march

        def counted(hv, hk2, d):
            calls.append(len(hk2))
            return march(hv, hk2, d)

        monkeypatch.setattr(kernels, "_support_march", counted)
        V = walled_sech(grid)
        ks = np.linspace(0.1, 4.0, 40)
        st = ScatteringState(1.15, V)
        table = st.transmission_table(ks)
        assert calls == [41]
        assert st.t == transmission(V, 1.15)
        assert np.array_equal(table, transmission(V, ks))


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

    def test_overflowing_march_is_invalid_without_warnings(self, grid):
        # walls of 3000 on 4 < |x| <= 12 push eta past the float range inside
        # the march; the non-finite guard reports it, and nothing warns
        x = np.abs(grid.x)
        vals = np.where(x <= 2, -2.0, np.where((x > 4) & (x <= 12), 3000.0, 0.0))
        V = PotentialField(grid, vals, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wr = wronskian_at_zero(V)
        assert not wr.valid
        assert np.isnan(wr.w0) and wr.variance == np.inf

    @pytest.mark.parametrize("case", ["sech", "overflowing", "even-n"])
    def test_mirror_symmetric_marches_mirror_each_other_bitwise(self, grid, case):
        # for a V that reads the same reversed, bit for bit, the march from
        # the left is the march from the right reversed, with eta' negated,
        # to the bit and inf and NaN included: one march could give both
        if case == "sech":
            V = sech_well(1.5, 1.5, 12.0, grid)
        elif case == "overflowing":  # the walls of the test above
            x = np.abs(grid.x)
            vals = np.where(x <= 2, -2.0, np.where((x > 4) & (x <= 12), 3000.0, 0.0))
            V = PotentialField(grid, vals, 12.0)
        else:
            V = sech_well(1.5, 1.5, 12.0, make_grid(-20.0, 20.0, 2000))
        assert V.mirrored
        v, h = V.values, V.grid.h
        with np.errstate(over="ignore", invalid="ignore"):
            eta_p, deta_p = kernels.march_half_bound(v, h, True)
            eta_m, deta_m = kernels.march_half_bound(v, h, False)
        assert (case == "overflowing") == (not np.all(np.isfinite(eta_p)))
        assert eta_m.tobytes() == eta_p[::-1].tobytes()
        assert deta_m.tobytes() == (-deta_p[::-1]).tobytes()

    def test_mirrored_is_bitwise(self, grid):
        V = sech_well(1.5, 1.5, 12.0, grid)
        assert V.mirrored
        v = V.values.copy()
        v[800] = np.nextafter(v[800], -np.inf)
        assert not V.with_values(v).mirrored
        # -0.0 and 0.0 compare equal but differ in their bits
        v = np.where(grid.x > 0.0, -0.0, 0.0) * (np.abs(grid.x) <= 12.0)
        W = PotentialField(grid, v, 12.0)
        assert np.array_equal(W.values, W.values[::-1]) and not W.mirrored

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
