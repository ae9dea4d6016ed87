"""Kernel correctness against library oracles and conservation laws."""
import os
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal, get_blas_funcs, get_lapack_funcs, lapack, solve_banded

import oracles
from pdp import kernels
from pdp.grid import make_grid, sech_well


def _random_tridiag(rng, n, complex_=True):
    if complex_:
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 4.0
        e = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        d = rng.standard_normal(n) + 4.0
        e = rng.standard_normal(n - 1)
        b = rng.standard_normal(n)
    return e.copy(), d, e.copy(), b


def _dirichlet_matrix(x, v):
    """Diagonals of H_V on the interior nodes of the uniform nodes x."""
    h = x[1] - x[0]
    return 2.0 / h**2 + v[1:-1], np.full(x.size - 3, -1.0 / h**2)


def _banded_oracle(dl, d, du, b):
    ab = np.zeros((3, len(d)), dtype=np.result_type(dl, d, du))
    ab[0, 1:] = du
    ab[1] = d
    ab[2, :-1] = dl
    return solve_banded((1, 1), ab, b)


class TestLinalgRoutines:
    # pdp.kernels binds its BLAS and LAPACK routines off scipy's compiled
    # modules without scipy.linalg's package init; they must be the very
    # objects that scipy.linalg hands out, so every solve keeps its bits

    def test_routines_are_the_ones_scipy_linalg_returns(self):
        f64, c128 = np.dtype(np.float64), np.dtype(np.complex128)
        assert kernels._gtsv(f64) is get_lapack_funcs(("gtsv",), dtype=f64)[0]
        assert kernels._gtsv(c128) is get_lapack_funcs(("gtsv",), dtype=c128)[0]
        stebz, stein, pttrf = get_lapack_funcs(("stebz", "stein", "pttrf"), dtype=f64)
        assert kernels._stebz is stebz
        assert kernels._stein is stein
        assert kernels._pttrf is pttrf
        assert kernels._dtbsv is get_blas_funcs(("tbsv",), dtype=f64)[0]
        assert kernels._ztbsv is get_blas_funcs(("tbsv",), dtype=c128)[0]

    def test_loaded_modules_are_the_ones_scipy_linalg_uses(self):
        assert kernels._linalg_extension("_flapack") is kernels._flapack
        assert sys.modules["scipy.linalg._flapack"] is kernels._flapack
        assert sys.modules["scipy.linalg._fblas"] is kernels._fblas
        assert scipy.linalg.lapack._flapack is kernels._flapack
        assert scipy.linalg.blas._fblas is kernels._fblas

    def test_extension_not_in_the_scanned_directory_is_imported(self, monkeypatch, tmp_path):
        # scipy.linalg is imported at the top of this module, so the
        # ordinary import finds the extension through the package; the
        # module it registers is put back afterwards
        monkeypatch.setattr(kernels, "_LINALG_DIR", str(tmp_path))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy.linalg, "_flapack", None, raising=False)
        flapack = kernels._linalg_extension("_flapack")
        assert flapack is not kernels._flapack
        assert flapack is sys.modules["scipy.linalg._flapack"]
        for name in ("dgtsv", "zgtsv", "dstebz", "dstein", "dpttrf"):
            assert getattr(flapack, name) is getattr(kernels._flapack, name)

    def test_importing_pdp_skips_scipy_linalg_init(self):
        # a fresh interpreter: the CLI pulls in every pdp module
        code = (
            "import sys\n"
            "import pdp.cli\n"
            "from pdp import kernels\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert 'numpy.f2py' not in sys.modules\n"
            "import scipy.linalg\n"
            "assert scipy.linalg.get_lapack_funcs(('stebz',), dtype=float)[0] is kernels._stebz\n"
        )
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestTrisolve:
    # the package's tridiagonal solves end in kernels._gtsv_solve, after
    # their forcing passes kernels._require_finite and their potential
    # its kept PotentialField.finite
    @pytest.mark.parametrize("complex_", [True, False])
    def test_matches_scipy(self, complex_):
        rng = np.random.default_rng(0)
        dl, d, du, b = _random_tridiag(rng, 400, complex_)
        x = kernels._gtsv_solve(dl, d, du, b)
        np.testing.assert_allclose(x, _banded_oracle(dl, d, du, b), rtol=1e-10)

    def test_real_input_gives_real_output(self):
        rng = np.random.default_rng(2)
        dl, d, du, b = _random_tridiag(rng, 64, complex_=False)
        assert not np.iscomplexobj(kernels._gtsv_solve(dl, d, du, b))

    def test_complex_rhs_with_real_diagonals_promotes(self):
        rng = np.random.default_rng(4)
        dl, d, du, _ = _random_tridiag(rng, 64, complex_=False)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x = kernels._gtsv_solve(dl, d, du, b)
        assert np.iscomplexobj(x)
        np.testing.assert_allclose(x, _banded_oracle(dl, d, du, b), rtol=1e-10)

    def test_two_dimensional_rhs_equals_column_solves(self):
        rng = np.random.default_rng(5)
        dl, d, du, b = _random_tridiag(rng, 200)
        B = np.column_stack((b, rng.standard_normal(200), 1j * b))
        x = kernels._gtsv_solve(dl, d, du, B)
        assert x.shape == B.shape
        for j in range(B.shape[1]):
            np.testing.assert_array_equal(x[:, j], kernels._gtsv_solve(dl, d, du, B[:, j]))

    def test_returns_new_array_and_leaves_inputs(self):
        rng = np.random.default_rng(8)
        args = _random_tridiag(rng, 50)
        saved = [a.copy() for a in args]
        x = kernels._gtsv_solve(*args)
        for a, a0 in zip(args, saved):
            np.testing.assert_array_equal(a, a0)
            assert not np.shares_memory(x, a)

    def test_exactly_singular_raises(self):
        # the first row is zero, so elimination meets an exactly zero pivot
        n = 10
        d = np.full(n, 4.0)
        d[0] = 0.0
        dl = np.ones(n - 1)
        du = np.ones(n - 1)
        du[0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            kernels._gtsv_solve(dl, d, du, np.ones(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", range(4), ids=["dl", "d", "du", "b"])
    def test_non_finite_argument_raises_value_error(self, arg, bad):
        rng = np.random.default_rng(9)
        args = list(_random_tridiag(rng, 30))
        args[arg][3] = bad
        with pytest.raises(ValueError):
            kernels._require_finite(*args)


class TestLowestEigenpair:
    # kernels._lowest_eigenpair counts the eigenvalues strictly below 0;
    # a diagonal shift by sigma counts those below sigma
    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(3)
        n = 200
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        for sigma in (-2.0, -0.5, 0.0, 0.7, 3.0):
            expected = int(np.count_nonzero(w < sigma))
            count, lam, v = kernels._lowest_eigenpair(d - sigma, e)
            assert count == expected
            assert lam + sigma == pytest.approx(w[0], abs=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_exact_zero_eigenvalue_is_not_counted(self):
        count, lam, v = kernels._lowest_eigenpair(np.array([0.0, 1.0, -1.0]), np.zeros(2))
        assert count == 1
        assert lam == -1.0
        np.testing.assert_array_equal(np.abs(v), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "d, e", [([2.0, 2.0, 2.0], [1.0, 1.0]), ([1.0, 0.0, 1.0], [0.0, 0.0])],
        ids=["positive", "zero"],
    )
    def test_no_negative_eigenvalue(self, d, e):
        count, lam, v = kernels._lowest_eigenpair(np.array(d), np.array(e))
        assert (count, lam, v) == (0, None, None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        d = np.array([1.0, bad, -1.0])
        with pytest.raises(ValueError):
            kernels._lowest_eigenpair(d, np.ones(2))

    @staticmethod
    def _bisection_tols(monkeypatch):
        """The abstol of every kernels._stebz call made from now on."""
        tols = []
        stebz = kernels._stebz

        def recorded(*args):
            tols.append(args[7])
            return stebz(*args)

        monkeypatch.setattr(kernels, "_stebz", recorded)
        return tols

    def test_close_pair_is_bisected_again(self, monkeypatch):
        # a symmetric double well whose two bound states are split by 1.3e-3,
        # less than the coarse tolerance: the coarse shift cannot tell them
        # apart, so the isolation rule bisects again at full precision
        x = np.linspace(-20.0, 20.0, 801)
        d, e = _dirichlet_matrix(x, np.where(np.abs(np.abs(x) - 4.0) < 1.0, -2.0, 0.0))
        w, z = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert 0.0 < w[1] - w[0] < kernels._SHIFT_TOL and w[1] < 0.0
        tols = self._bisection_tols(monkeypatch)
        count, lam, v = kernels._lowest_eigenpair(d, e)
        assert tols == [kernels._SHIFT_TOL, 0.0]
        assert count == 2
        assert abs(lam - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
        # the small split conditions the eigenvector: eps ||T|| / split is
        # about 3e-10, for eigh's vector as much as for this one
        z0 = z[:, 0]
        assert np.max(np.abs(np.sign(v @ z0) * v - z0)) <= 1e-10

    def test_shallow_well_near_zero(self, monkeypatch):
        # lambda_1 within the coarse tolerance of 0: the eigenvalues above 0
        # are not bisected, so 0 bounds the gap and the lowest is bisected
        # again; the count stays exact
        x = np.linspace(-60.0, 60.0, 601)
        d, e = _dirichlet_matrix(x, np.where(np.abs(x) <= 1.0, -0.08, 0.0))
        w, z = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert -kernels._SHIFT_TOL < w[0] < 0.0 < w[1]
        tols = self._bisection_tols(monkeypatch)
        count, lam, v = kernels._lowest_eigenpair(d, e)
        assert tols == [kernels._SHIFT_TOL, 0.0]
        assert count == 1
        assert abs(lam - w[0]) <= 1e-12
        z0 = z[:, 0]
        assert np.max(np.abs(np.sign(v @ z0) * v - z0)) <= 1e-12

    @pytest.mark.parametrize("n", [2001, 3001])
    def test_sech_start_to_rounding(self, n):
        # the reference is LAPACK's MRRR (?stemr), which neither bisects
        # nor runs inverse iteration.  Dense eigvalsh is no sharper
        # reference at these sizes: it is 5e-12 off the lowest eigenvalue
        # (against a long-double Sturm bisection), and eigh takes seconds
        grid = make_grid(-20.0, 20.0, n)
        d, e = _dirichlet_matrix(grid.x, sech_well(1.5, 1.5, 12.0, grid).values)
        ref_lam, ref_v = eigh_tridiagonal(
            d, e, select="i", select_range=(0, 0), lapack_driver="stemr"
        )
        count, lam, v = kernels._lowest_eigenpair(d, e)
        assert count == 1
        assert abs(lam - ref_lam[0]) <= 1e-12 * max(1.0, abs(ref_lam[0]))
        z0 = ref_v[:, 0]
        assert np.max(np.abs(np.sign(v @ z0) * v - z0)) <= 1e-12

    @staticmethod
    def _stebz_matrices():
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 17, 64, 200):
            d = rng.standard_normal(n)
            yield d, rng.standard_normal(n - 1)
            yield d - d.max() - 0.5, rng.standard_normal(n - 1)  # lambda_1 < 0
        yield np.array([0.0, 1.0, -1.0]), np.zeros(2)  # three 1x1 blocks
        grid = make_grid(-20.0, 20.0, 2001)
        yield _dirichlet_matrix(grid.x, sech_well(1.5, 1.5, 12.0, grid).values)

    @pytest.mark.parametrize("abstol", [kernels._SHIFT_TOL, 0.0])
    def test_unbounded_lower_limit_bisects_as_gershgorin(self, abstol):
        # _lowest_eigenpair passes vl = -inf: ?stebz clips it to the
        # Gershgorin interval of each block, so any finite vl below that
        # interval gives the same bisection, bit for bit
        found = []
        for d, e in self._stebz_matrices():
            lo = float(np.min(d)) - 2.0 * float(np.max(np.abs(e), initial=0.0))
            lo -= 1.0 + abs(lo)
            out = []
            for vl in (-np.inf, lo):
                m, w, iblock, isplit, info = kernels._stebz(d, e, 1, vl, 0.0, 0, 0, abstol, "B")
                assert info == 0
                nsplit = int(np.flatnonzero(isplit == d.size)[0]) + 1
                out.append((m, w[:m].tobytes(), iblock[:m].tobytes(), isplit[:nsplit].tobytes()))
            assert out[0] == out[1]
            found.append(out[0][0])
        assert min(found[1::2]) >= 1 and max(found) >= 3

    def test_isolated_ground_state_is_bisected_once(self, monkeypatch):
        # the design matrix of the sech start has one bound state, far from
        # 0: one coarse bisection isolates it
        grid = make_grid(-20.0, 20.0, 2001)
        d, e = _dirichlet_matrix(grid.x, sech_well(1.5, 1.5, 12.0, grid).values)
        tols = self._bisection_tols(monkeypatch)
        assert kernels._lowest_eigenpair(d, e)[0] == 1
        assert len(tols) == 1 and tols[0] > 0.0


class TestLowestEigenpairByParity:
    @pytest.mark.parametrize("n", [3, 5, 17, 201])
    def test_matches_dense_on_mirror_symmetric_matrices(self, n):
        # counts below several shifts, and the lowest eigenpair, of random
        # matrices that read the same reversed.  Their ground states can be
        # localized at both ends, with an even/odd split below rounding, so
        # eigh's vector may be any mix of the pair: v is checked by its
        # residual and its symmetry instead
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n)
        d = 0.5 * (d + d[::-1])
        e = rng.standard_normal(n - 1)
        e = 0.5 * (e + e[::-1])
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        w = np.linalg.eigvalsh(T)
        for sigma in (-2.0, -0.5, 0.0, 0.7, 3.0):
            expected = int(np.count_nonzero(w < sigma))
            count, lam, v = kernels._lowest_eigenpair_by_parity(d - sigma, e)
            assert count == expected
            if expected == 0:
                assert (lam, v) == (None, None)
                continue
            assert lam + sigma == pytest.approx(w[0], abs=1e-12)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(T @ v - (lam + sigma) * v) <= 1e-12
            assert np.array_equal(v, v[::-1])

    def test_bisection_starts_at_the_full_matrix_bound(self, monkeypatch):
        # the even block's sqrt(2) row would start the bisection 0.41/h^2
        # lower; the full matrix's bound saves the sweeps that costs
        grid = make_grid(-20.0, 20.0, 2001)
        d, e = _dirichlet_matrix(grid.x, sech_well(1.5, 1.5, 12.0, grid).values)
        vls = []
        stebz = kernels._stebz

        def recorded(*args):
            vls.append(args[3])
            return stebz(*args)

        monkeypatch.setattr(kernels, "_stebz", recorded)
        kernels._lowest_eigenpair_by_parity(d, e)
        assert -1.5 - 1e-6 < vls[0] < -1.5  # min V = -1.5, less the allowance
        # the odd block is positive definite: one pivot sweep, no bisection
        assert vls[1:] == []


class TestPositiveDefinite:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
    def test_agrees_with_dense_eigenvalues(self, n):
        # random matrices, shifted so that their lowest eigenvalue lies far
        # from 0 or 1e-9 from it, on either side
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            d = rng.standard_normal(n)
            e = rng.standard_normal(n - 1)
            off = np.diag(e, 1) + np.diag(e, -1)
            w0 = np.linalg.eigvalsh(np.diag(d) + off)[0]
            for gap in (-1.0, -1e-9, 1e-9, 1.0):
                shifted = d - (w0 - gap)
                lowest = np.linalg.eigvalsh(np.diag(shifted) + off)[0]
                assert abs(lowest - gap) < 1e-12
                assert kernels._positive_definite(shifted, e) == (lowest > 0.0)

    def test_leaves_its_arguments(self):
        d, e = np.array([2.0, 2.0, 2.0]), np.array([-1.0, -1.0])
        assert kernels._positive_definite(d, e)
        assert d.tolist() == [2.0, 2.0, 2.0] and e.tolist() == [-1.0, -1.0]


class TestMarchHalfBound:
    def test_zero_potential_stays_constant(self):
        eta, deta = kernels.march_half_bound(np.zeros(301), 0.05, True)
        np.testing.assert_allclose(eta, 1.0)
        np.testing.assert_allclose(deta, 0.0, atol=1e-15)

    @pytest.mark.parametrize("v0, h, n", [(4.0, 0.01, 501), (2.25, 0.05, 301), (100.0, 0.02, 201)])
    @pytest.mark.parametrize("from_right", [False, True], ids=["left", "right"])
    def test_flat_wall_is_a_sum_of_two_powers(self, v0, h, n, from_right):
        # on V = v0 the 3-point recurrence has the roots l and 1/l of
        # l + 1/l = 2 + x, x = h^2 v0 (the march's own coefficient); from
        # eta_0 = eta_1 = 1, eta_j = (l^j + l^(1-j))/(1 + l) and the cell
        # quotient eta'_j = (l - 1)(l^j - l^-j)/((1 + l) h) exactly,
        # evaluated here with 40 significant digits
        with localcontext() as ctx:
            ctx.prec = 40
            x = Decimal(h * h * v0)
            lam = 1 + x / 2 + (x * (4 + x)).sqrt() / 2
            pw = [lam**j for j in range(n)]
            eta_exact = np.array([float((p + lam / p) / (1 + lam)) for p in pw])
            c = (lam - 1) / ((1 + lam) * Decimal(h))
            deta_exact = np.array([float(c * (p - 1 / p)) for p in pw[:-1]])
        eta, deta = kernels.march_half_bound(np.full(n, v0), h, from_right)
        if from_right:
            # x runs the other way from the right end: eta' changes sign
            eta, deta = eta[::-1], -deta[::-1]
        np.testing.assert_allclose(eta, eta_exact, rtol=1e-13, atol=0)
        assert deta[0] == 0.0
        np.testing.assert_allclose(deta[1:], deta_exact[1:], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [2001, 3001])
    @pytest.mark.parametrize("from_right", [False, True], ids=["left", "right"])
    def test_matches_the_loop_on_the_sech_start(self, n, from_right):
        # the banded solve and the node-by-node loop are the same
        # recurrence, with the operations in BLAS's order
        grid = make_grid(-20.0, 20.0, n)
        v = sech_well(1.5, 1.5, 12.0, grid).values
        got = kernels.march_half_bound(v, grid.h, from_right)
        ref = oracles.march_half_bound_loop(v, grid.h, from_right)
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


class TestCnStepLoop:
    def test_norm_conserved_without_absorber(self):
        # CN with real forcing and sigma = 0 is exactly unitary per step
        rng = np.random.default_rng(6)
        n = 301
        h = 0.1
        diag_h = 2 / h**2 + np.zeros(n)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        n0 = np.linalg.norm(phi)
        kernels.cn_step_loop(
            -1 / h**2, diag_h, np.zeros(n), np.ones(n), 0.7, 2.0, 0.02, 0.0, 100, phi
        )
        assert np.linalg.norm(phi) == pytest.approx(n0, rel=1e-12)

    @staticmethod
    def _operands(n=201, h=0.1):
        rng = np.random.default_rng(12)
        x = h * (np.arange(n) - n // 2)
        diag_h = 2 / h**2 - 1.5 / np.cosh(1.5 * x)
        sigma = np.clip((np.abs(x) - 6.0) / 4.0, 0.0, 1.0) ** 4
        beta = (np.abs(x) <= 2.0).astype(float)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return -1 / h**2, diag_h, sigma, beta, phi

    EPS, MU, DT, T0 = 0.8, 2.0, 0.05, 0.3

    def _plain_system(self, off, diag_h, sigma, beta, t, p):
        """The step's CN matrix (dl = du, d) and right-hand side from p, as plain expressions.

        off is a scalar or one value per pair of neighbouring rows.
        """
        diag = (diag_h - 1j * sigma) + (self.EPS * np.cos(self.MU * (t + 0.5 * self.DT))) * beta
        half = 0.5j * self.DT
        rhs = p - half * (np.concatenate(([0.0], off * p[:-1]))
                          + diag * p
                          + np.concatenate((off * p[1:], [0.0])))
        dl = half * np.broadcast_to(off, len(p) - 1).astype(np.complex128)
        return dl, 1.0 + half * diag, rhs

    def _single_steps_against_plain(self, off, diag_h, sigma, beta, phi0, nsteps=40):
        """Run nsteps one-step calls; check each against the plain expression.

        Each step must solve its own system to a residual of a few
        roundings, and the field must stay within 1e-13 of the plain
        trajectory, whose every step is one full ?gtsv solve (_banded_oracle).
        Returns the field after each step and the final time.
        """
        eps = np.finfo(float).eps
        phi, plain, t = phi0.copy(), phi0.copy(), self.T0
        fields = []
        for _ in range(nsteps):
            dl, d, rhs = self._plain_system(off, diag_h, sigma, beta, t, phi)
            t_next = kernels.cn_step_loop(
                off, diag_h, sigma, beta, self.EPS, self.MU, self.DT, t, 1, phi
            )
            a_phi = d * phi
            a_phi[1:] += dl * phi[:-1]
            a_phi[:-1] += dl * phi[1:]
            assert np.max(np.abs(a_phi - rhs)) <= 8 * eps * np.max(np.abs(rhs))
            dl, d, rhs = self._plain_system(off, diag_h, sigma, beta, t, plain)
            plain = _banded_oracle(dl, d, dl, rhs)
            assert np.max(np.abs(phi - plain)) <= 1e-13 * np.max(np.abs(plain))
            fields.append(phi.copy())
            t = t_next
        return fields, t

    def _layout(self, name):
        """Operands whose forced block leaves both outer blocks, the left or the right one."""
        off, diag_h, sigma, beta, phi0 = self._operands()
        n = len(phi0)
        x = 0.1 * (np.arange(n) - n // 2)
        if name == "left_only":
            # the even half as pdp.timedomain steps it: rows 0..c, sqrt(2)
            # times the coupling of the last pair, the forced block at the centre
            c = n // 2
            off_rows = np.full(c, off)
            off_rows[-1] *= np.sqrt(2.0)
            return off_rows, diag_h[: c + 1], sigma[: c + 1], beta[: c + 1], phi0[: c + 1]
        if name == "right_only":
            beta = (x <= -7.0).astype(float)
        return off, diag_h, sigma, beta, phi0

    @pytest.mark.parametrize(
        "layout, outer",
        [("both_blocks", (True, True)), ("left_only", (True, False)),
         ("right_only", (False, True))],
        ids=["both_blocks", "left_only", "right_only"],
    )
    def test_one_call_equals_single_steps_and_plain_expression(self, layout, outer):
        off, diag_h, sigma, beta, phi0 = self._layout(layout)
        lo, hi = kernels._forced_block(beta)
        assert (lo > 0, hi < len(phi0)) == outer
        nsteps = 40
        single, t_single = self._single_steps_against_plain(
            off, diag_h, sigma, beta, phi0, nsteps
        )

        phi = phi0.copy()
        seen = []

        def record(i, t):
            seen.append((i, t))
            assert phi.tobytes() == single[i].tobytes()

        t_end = kernels.cn_step_loop(
            off, diag_h, sigma, beta, self.EPS, self.MU, self.DT, self.T0, nsteps, phi,
            record=record,
        )
        assert [i for i, _ in seen] == list(range(nsteps))
        assert t_end == t_single == seen[-1][1]
        assert phi.tobytes() == single[-1].tobytes()

    @pytest.mark.parametrize(
        "forced",
        [
            lambda x: np.zeros_like(x),
            lambda x: x <= -7.0,
            lambda x: x >= 3.0,
            lambda x: (np.abs(x) >= 1.0) & (np.abs(x) <= 3.0),
            lambda x: x == x[60],
        ],
        ids=["nowhere", "left_end", "right_end", "gap_in_hull", "one_node"],
    )
    def test_any_forced_region_matches_plain_expression(self, forced):
        # the forced block is the hull of beta's nonzeros, widened to two
        # rows; the outer blocks around it may be empty
        off, diag_h, sigma, _, phi0 = self._operands()
        n, h = len(phi0), 0.1
        x = h * (np.arange(n) - n // 2)
        beta = forced(x).astype(float)
        self._single_steps_against_plain(off, diag_h, sigma, beta, phi0)

    @pytest.mark.parametrize(
        "forced",
        [
            lambda x: np.abs(x) <= 2.0,
            lambda x: (np.abs(x) >= 1.0) & (np.abs(x) <= 3.0),
        ],
        ids=["centre_in_forced_block", "centre_in_outer_block"],
    )
    def test_even_half_with_per_row_coupling_matches_plain_expression(self, forced):
        # the even half of a mirror-symmetric system, as pdp.timedomain
        # steps it: rows 0..c, with sqrt(2) times the coupling of rows c-1
        # and c in the last entry of a per-row off-diagonal
        off, diag_h, sigma, _, phi0 = self._operands()
        c = len(phi0) // 2
        x = 0.1 * (np.arange(c + 1) - c)
        off_rows = np.full(c, off)
        off_rows[-1] *= np.sqrt(2.0)
        beta = forced(x).astype(float)
        _, hi = kernels._forced_block(beta)
        # the centre row is in the forced block or in the right outer block
        assert (hi == c + 1) == (beta[c] != 0.0)
        self._single_steps_against_plain(
            off_rows, diag_h[: c + 1], sigma[: c + 1], beta, phi0[: c + 1]
        )

    def test_every_row_pair_its_own_coupling(self):
        # the couplings of the forced block to both outer blocks differ
        # from each other and from every other row pair
        off, diag_h, sigma, _, phi0 = self._operands()
        n = len(phi0)
        x = 0.1 * (np.arange(n) - n // 2)
        off_rows = off * np.random.default_rng(3).uniform(0.5, 1.5, n - 1)
        beta = ((x >= -3.0) & (x <= 1.0)).astype(float)
        self._single_steps_against_plain(off_rows, diag_h, sigma, beta, phi0)

    @pytest.mark.parametrize(
        "layout, outer_blocks",
        [("both_blocks", 2), ("left_only", 1), ("right_only", 1)],
        ids=["both_blocks", "left_only", "right_only"],
    )
    def test_each_step_sweeps_each_outer_block_twice_and_solves_the_forced_block_once(
        self, monkeypatch, layout, outer_blocks
    ):
        # the call budget of a step: one in- and one out-sweep (?tbsv) per
        # outer block, one ?gtsv of the forced block, and no _gtsv_solve
        calls = {"ztbsv": 0, "zgtsv": 0, "gtsv_solve": 0}

        def counting(name, routine):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return wrapped

        for name, attr in (("ztbsv", "_ztbsv"), ("zgtsv", "_zgtsv"),
                           ("gtsv_solve", "_gtsv_solve")):
            monkeypatch.setattr(kernels, attr, counting(name, getattr(kernels, attr)))
        for nsteps in (1, 50):
            off, diag_h, sigma, beta, phi = self._layout(layout)
            per_step = []

            def record(i, t):
                per_step.append(dict(calls))
                calls.update(dict.fromkeys(calls, 0))

            kernels.cn_step_loop(off, diag_h, sigma, beta, self.EPS, self.MU, self.DT,
                                 self.T0, nsteps, phi, record=record)
            assert per_step == [{"ztbsv": 2 * outer_blocks, "zgtsv": 1, "gtsv_solve": 0}] * nsteps

    @pytest.mark.parametrize("layout", ["left_only", "both_blocks"])
    def test_long_run_stays_within_the_summed_residual_bound(self, layout):
        # 4000 steps against the plain ones (one full ?gtsv each), with the
        # bound derived before the run from the per-step residual bound of
        # _single_steps_against_plain.  Both trajectories solve each step
        # A phi' = (I - X) phi + rho with |rho|_inf <= 8 eps |(I - X) phi|_inf
        # (checked on both), so their difference e obeys e' = A^-1 (I - X) e
        # + A^-1 (rho - rho_plain).  The Hermitian part of X is >= 0, so
        # |A^-1 (I - X)|_2 <= 1 and |A^-1|_2 <= 1, and |phi|_2 does not grow:
        # each step adds at most 2 sqrt(n) 8 eps |I - X|_2 |phi0|_2, with
        # |I - X|_2 <= |I - X|_inf for the complex symmetric I - X
        off, diag_h, sigma, beta, phi0 = self._layout(layout)
        n, nsteps = len(phi0), 4000
        eps = np.finfo(float).eps
        coupling = np.abs(np.broadcast_to(off, n - 1))
        rows = np.abs(diag_h) + sigma + self.EPS * np.abs(beta)
        rows[1:] += coupling
        rows[:-1] += coupling
        norm_b = 1.0 + 0.5 * self.DT * rows.max()
        bound = nsteps * 2 * np.sqrt(n) * 8 * eps * norm_b * np.linalg.norm(phi0)

        def residual(dl, d, rhs, p):
            a_p = d * p
            a_p[1:] += dl * p[:-1]
            a_p[:-1] += dl * p[1:]
            return np.max(np.abs(a_p - rhs))

        phi = phi0.copy()
        state = {"prev": phi0.copy(), "plain": phi0.copy(), "t": self.T0, "gap": 0.0}

        def record(i, t):
            dl, d, rhs = self._plain_system(off, diag_h, sigma, beta, state["t"], state["prev"])
            assert residual(dl, d, rhs, phi) <= 8 * eps * np.max(np.abs(rhs))
            dl, d, rhs = self._plain_system(off, diag_h, sigma, beta, state["t"], state["plain"])
            plain = _banded_oracle(dl, d, dl, rhs)
            assert residual(dl, d, rhs, plain) <= 8 * eps * np.max(np.abs(rhs))
            state.update(prev=phi.copy(), plain=plain, t=t,
                         gap=max(state["gap"], np.linalg.norm(phi - plain)))

        kernels.cn_step_loop(off, diag_h, sigma, beta, self.EPS, self.MU, self.DT, self.T0,
                             nsteps, phi, record=record)
        assert state["gap"] <= bound

    def test_outer_blocks_are_factored_once_per_call(self, monkeypatch):
        # a per-step refactorization would make the count grow with nsteps
        calls = []
        factor = kernels._factor_unpivoted

        def counting_factor(*args, **kwargs):
            calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(kernels, "_factor_unpivoted", counting_factor)
        counts = []
        for nsteps in (1, 50):
            calls.clear()
            off, diag_h, sigma, beta, phi = self._operands()
            kernels.cn_step_loop(off, diag_h, sigma, beta, 0.8, 2.0, 0.05, 0.0, nsteps, phi)
            counts.append(len(calls))
        assert counts[0] == counts[1] >= 1

    def test_steps_without_pivoting_where_lapack_pivots(self):
        # a well of h^2 V = -1.5 on 4 < |x| < 5 makes an outer pivot
        # smaller than the coupling, so LAPACK's partial pivoting swaps
        # rows there; the unpivoted steps must still match the plain ones
        off, diag_h, sigma, beta, phi0 = self._operands()
        n, h = len(phi0), 0.1
        x = h * (np.arange(n) - n // 2)
        diag_h = diag_h + np.where((np.abs(x) > 4.0) & (np.abs(x) < 5.0), -1.5 / h**2, 0.0)
        # the outer blocks of cn_step_loop, decoupled here by identity rows on
        # the forced block
        lo, hi = kernels._forced_block(beta)
        half = 0.5j * self.DT
        odl = np.full(n - 1, half * off, dtype=np.complex128)
        odl[lo - 1 : hi] = 0.0
        od = 1.0 + half * (diag_h - 1j * sigma)
        od[lo:hi] = 1.0
        *_, ipiv, info = lapack.zgttrf(odl, od, odl)
        assert info == 0
        assert np.count_nonzero(ipiv != np.arange(1, n + 1)) == 2
        self._single_steps_against_plain(off, diag_h, sigma, beta, phi0)

    def test_outer_pivots_have_real_part_at_least_one(self, monkeypatch):
        # the Hermitian part of the CN matrix is I + (dt/2) sigma >= I, and
        # so is that of every Schur complement: no pivot comes near 0
        pivots = []
        factor = kernels._factor_unpivoted

        def keeping_factor(*args):
            m, p = factor(*args)
            pivots.append(p)
            return m, p

        monkeypatch.setattr(kernels, "_factor_unpivoted", keeping_factor)
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(3, 400))
            h = rng.uniform(0.01, 1.0)
            diag_h = 2 / h**2 + rng.uniform(-3.0, 3.0, n) / h**2
            sigma = np.where(rng.random(n) < 0.5, 0.0, rng.exponential(2.0, n))
            lo, hi = np.sort(rng.integers(0, n + 1, 2))
            beta = np.zeros(n)
            beta[lo:hi] = rng.standard_normal(hi - lo)
            phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dt = rng.uniform(1e-3, 1.0)
            kernels.cn_step_loop(-1 / h**2, diag_h, sigma, beta, 0.5, 2.0, dt, 0.0, 1, phi)
        assert len(pivots) >= 30  # the rest have no outer block
        assert all(p.real.min() >= 1.0 for p in pivots)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "arg", [0, 1, 2, 3, 9], ids=["off", "diag_h", "sigma", "beta", "phi"]
    )
    def test_non_finite_operand_raises_value_error(self, arg, bad):
        off, diag_h, sigma, beta, phi = self._operands()
        args = [np.full(len(phi) - 1, off), diag_h, sigma, beta, 0.5, 2.0, 0.05, 0.0, 3, phi]
        args[arg] = args[arg].copy()
        args[arg][5] = bad
        with pytest.raises(ValueError):
            kernels.cn_step_loop(*args)
