"""Hot numerical kernels, implemented with numpy/scipy.

``BACKEND`` names the implementation and is recorded with benchmark runs.

_lowest_eigenpair gives the ground state of a symmetric tridiagonal
matrix and the number of its negative eigenvalues from one LAPACK
bisection.  march_half_bound writes the zero-energy trapezoid march as
one lower-banded triangular system and solves it with one BLAS ?tbsv
call.  Every tridiagonal solve ends in _gtsv_solve, a thin LAPACK ?gtsv
call that assumes finite input; trisolve is the public entry point that
checks it.  The solvers in pdp.spectral check the potential and their
forcing once per solve with _require_finite and then call _gtsv_solve,
and cn_step_loop checks its operands once per call and takes every step
through _gtsv_solve.  No kernel calls another public kernel, so wrapping
the module attributes (as a tracer does) counts only outside calls as
kernels.trisolve, and one kernels.cn_step_loop span covers a whole run
of steps.
"""
from functools import lru_cache

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

__all__ = [
    "trisolve",
    "march_half_bound",
    "cn_step_loop",
]

BACKEND = "python"


@lru_cache(maxsize=None)
def _gtsv(dtype):
    """LAPACK ?gtsv for one dtype (dgtsv or zgtsv)."""
    return get_lapack_funcs(("gtsv",), dtype=dtype)[0]


_stebz, _stein = get_lapack_funcs(("stebz", "stein"), dtype=np.float64)
_dtbsv = get_blas_funcs(("tbsv",), dtype=np.float64)[0]


def _gtsv_solve(dl, d, du, b):
    """trisolve without the finiteness check; the caller guarantees it.

    The arguments are copied and passed to LAPACK ?gtsv (Gaussian
    elimination with partial pivoting).  An exactly singular matrix raises
    numpy.linalg.LinAlgError.
    """
    gtsv = _gtsv(np.result_type(dl, d, du, b, np.float64))
    _, _, _, x, info = gtsv(dl, d, du, b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of ?gtsv")
    return x


def _require_finite(*arrays) -> None:
    """ValueError unless every argument is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def trisolve(dl, d, du, b):
    """Solve the tridiagonal system with sub/main/super diagonals dl, d, du.

    dl and du have length n-1; b is (n,) or (n, nrhs).  Complex or real
    input; real input gives a real solution, returned as a new array; the
    arguments are left unchanged.  A NaN or inf in any argument raises
    ValueError, an exactly singular matrix numpy.linalg.LinAlgError.
    """
    _require_finite(dl, d, du, b)
    return _gtsv_solve(dl, d, du, b)


def _lowest_eigenpair(d, e):
    """Lowest eigenpair of a symmetric tridiagonal matrix, if it is negative.

    d is the diagonal (length n), e the off-diagonal (length n-1).  Returns
    (count, lam, v): count is the number of eigenvalues strictly below 0,
    lam the lowest eigenvalue and v its unit eigenvector; lam and v are
    None when count is 0.  LAPACK ?stebz bisects every eigenvalue in
    (lo, 0], lo below the Gershgorin bound, so an eigenvalue of exactly 0
    is returned but not counted; ?stein then computes the eigenvector of
    the lowest one only.  A NaN or inf raises ValueError, a bisection or
    inverse iteration that fails to converge numpy.linalg.LinAlgError.
    """
    _require_finite(d, e)
    # ?stebz narrows (lo, 0] to its own Gershgorin interval, so any lo
    # below that gives the same bisection
    lo = float(np.min(d)) - 2.0 * float(np.max(np.abs(e), initial=0.0))
    lo -= 1.0 + abs(lo)
    m, w, iblock, isplit, info = _stebz(d, e, 1, lo, 0.0, 0, 0, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"?stebz failed with info={info}")
    w = w[:m]
    count = int(np.count_nonzero(w < 0.0))
    if count == 0:
        return 0, None, None
    # order "B" sorts w within each split-off block; ?stein reads the
    # block of its i-th eigenvalue from iblock[i]
    i = int(np.argmin(w))
    iblock[0] = iblock[i]
    z, info = _stein(d, e, w[i : i + 1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"?stein failed with info={info}")
    return count, float(w[i]), z[:, 0]


def march_half_bound(v, h, from_right):
    """March the zero-energy solution eta'' = V eta across the grid.

    Trapezoidal (Crank-Nicolson) one-step scheme on the first-order system
    (eta, D = eta'), with the potential averaged over the step,
    vbar_i = (v_i + v_{i+1})/2, so the one-step map has unit determinant
    and the discrete Wronskian of two solutions is conserved exactly.
    Initial data eta=1, eta'=0 at the starting end, where the potential
    vanishes.  Returns (eta, deta) at every node.

    With c_i = 1 - (h^2/4) vbar_i, one step is the pair of rows

        c_i eta_{i+1} - (2 - c_i) eta_i - h D_i = 0,
        D_{i+1} - D_i - (h/2) vbar_i (eta_i + eta_{i+1}) = 0,

    (the implicit step with D_{i+1} eliminated from its eta row), so the
    whole march is one lower-triangular system with 3 subdiagonals in the
    interleaved unknowns (eta_0, D_0, eta_1, D_1, ...), solved by one BLAS
    ?tbsv call.  The march from the right is the march from the left over
    the reversed potential, with D negated.  A march that overflows gives
    non-finite values and no floating-point warning.
    """
    v = np.asarray(v, dtype=float)
    if from_right:
        v = v[::-1]
    n = v.shape[0]
    hv = 0.5 * h * (0.5 * (v[:-1] + v[1:]))  # (h/2) vbar_i
    c = 1.0 - 0.5 * h * hv
    # column j of the band holds A[j, j], A[j+1, j], A[j+2, j], A[j+3, j];
    # cols[i, 0] is the column of eta_i, cols[i, 1] the column of D_i
    cols = np.empty((n, 2, 4))
    cols[0, 0, :2] = (1.0, 0.0)  # rows 0 and 1 read eta_0 = y[0], D_0 = y[1]
    cols[1:, 0, 0] = c
    cols[1:, 0, 1] = -hv
    cols[:-1, 0, 2] = c - 2.0
    cols[:-1, 0, 3] = -hv
    cols[-1, 0, 2:] = 0.0  # outside the matrix, never read
    cols[:, 1] = (1.0, -h, -1.0, 0.0)
    y = np.zeros(2 * n)
    y[0] = 1.0  # eta_0 = 1, D_0 = 0
    y = _dtbsv(3, cols.reshape(2 * n, 4).T, y, lower=1, overwrite_x=1)
    eta, deta = y.reshape(n, 2).T
    if from_right:
        return eta[::-1], -deta[::-1]
    return eta, deta


def cn_step_loop(off, diag_h, sigma, beta, eps, mu, dt, t0, nsteps, phi, *, record=None):
    """Advance the forced Schrodinger equation by nsteps Crank-Nicolson steps.

    i phi_t = (H - i sigma) phi + eps cos(mu t) beta phi, with H the
    tridiagonal operator (off-diagonal value ``off``, diagonal ``diag_h``).
    The time-dependent factor is frozen at the step midpoint, keeping the
    scheme second order.  phi is updated in place; returns the final time.

    The operands are checked once per call (a NaN or inf raises
    ValueError); the steps then reuse one set of buffers and solve through
    _gtsv_solve.  If given, record(i, t) is called after step i
    (i = 0 .. nsteps-1) with the time t it reached and phi holding the new
    field; it may read phi, and an exception it raises ends the run.
    """
    _require_finite(diag_h, sigma, beta, phi, (off, eps, mu, dt, t0))
    n = diag_h.shape[0]
    half = 0.5j * dt
    base = diag_h - 1j * sigma
    hdl = half * np.full(n - 1, off, dtype=np.complex128)
    # off * phi shifted down one node (lower[0] stays 0) and up one node
    # (upper[-1] stays 0): the off-diagonal part of H phi
    lower = np.zeros(n, dtype=np.complex128)
    upper = np.zeros(n, dtype=np.complex128)
    forcing = np.empty(n)
    diag = np.empty(n, dtype=np.complex128)
    rhs = np.empty(n, dtype=np.complex128)
    t = t0
    for i in range(nsteps):
        c = np.cos(mu * (t + 0.5 * dt))
        np.multiply(eps * c, beta, out=forcing)
        np.add(base, forcing, out=diag)
        # rhs = phi - half * (H - i sigma + forcing) phi, with the
        # operations and operand order of that expression written out
        # with temporaries, so the buffers change no rounding
        np.multiply(off, phi[:-1], out=lower[1:])
        np.multiply(off, phi[1:], out=upper[:-1])
        np.multiply(diag, phi, out=rhs)
        np.add(lower, rhs, out=rhs)
        np.add(rhs, upper, out=rhs)
        np.multiply(half, rhs, out=rhs)
        np.subtract(phi, rhs, out=rhs)
        phi[:] = _gtsv_solve(hdl, 1.0 + half * diag, hdl, rhs)
        t += dt
        if record is not None:
            record(i, t)
    return t
