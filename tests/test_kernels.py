"""Kernel correctness against library oracles and conservation laws."""
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

from pdp import kernels


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


class TestTrisolve:
    @pytest.mark.parametrize("complex_", [True, False])
    def test_matches_scipy(self, complex_):
        rng = np.random.default_rng(0)
        dl, d, du, b = _random_tridiag(rng, 400, complex_)
        x = kernels.trisolve(dl, d, du, b)
        ab = np.zeros((3, len(d)), dtype=d.dtype)
        ab[0, 1:] = du
        ab[1] = d
        ab[2, :-1] = dl
        np.testing.assert_allclose(x, solve_banded((1, 1), ab, b), rtol=1e-10)

    def test_real_input_gives_real_output(self):
        rng = np.random.default_rng(2)
        dl, d, du, b = _random_tridiag(rng, 64, complex_=False)
        assert not np.iscomplexobj(kernels.trisolve(dl, d, du, b))


class TestSturmCount:
    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(3)
        n = 200
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        w = eigh_tridiagonal(d, e, eigvals_only=True)
        for sigma in (-2.0, -0.5, 0.0, 0.7, 3.0):
            expected = int(np.count_nonzero(w < sigma))
            assert kernels.sturm_count_below(d, e, sigma) == expected


class TestMarchHalfBound:
    def test_zero_potential_stays_constant(self):
        eta, deta = kernels.march_half_bound(np.zeros(301), 0.05, True)
        np.testing.assert_allclose(eta, 1.0)
        np.testing.assert_allclose(deta, 0.0, atol=1e-15)


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
