"""Hot numerical kernels, implemented with numpy/scipy.

``BACKEND`` names the implementation and is recorded with benchmark runs.
Every BLAS and LAPACK routine that pdp calls is fetched here, once; other
modules reach them only through this one.  They are the nine f2py
routines dgtsv, zgtsv, dstebz, dstein, dpttrf, dtbsv, ztbsv, zdotu and
ddot, bound straight off scipy's compiled scipy.linalg._flapack and _fblas
modules.  zdotu and ddot serve pdp.timedomain's per-step samples, the
projection <psi, phi> and the squared interior norm; an f2py call of each
costs half of numpy's `@` on the same operands or less, with the same bits.
_linalg_extension loads those two from scipy's linalg directory and
registers them in sys.modules under their own names, so that
scipy/linalg/__init__.py never runs: that package init imports some 300
modules pdp does not use (numpy.f2py and numpy.testing among them), which
took most of the start-up time of a pdp command.  `import scipy` stays,
for the path to scipy's bundled OpenBLAS that its init sets up on some
platforms.  The routines are the very objects that
scipy.linalg.get_lapack_funcs and get_blas_funcs return, and a later
`import scipy.linalg` reuses the registered modules.

_lowest_eigenpair gives the ground state of a symmetric tridiagonal
matrix and the number of its negative eigenvalues.  A coarse LAPACK
bisection counts the negative eigenvalues and isolates the lowest one;
only when the next eigenvalue is too close for that does it bisect again
to full precision.  Inverse iteration at the coarse shift (?stein) and
one Rayleigh-quotient step (one ?gtsv solve) then give the eigenvector
and the eigenvalue to rounding.  _lowest_eigenpair_by_parity does the
same for a mirror-symmetric matrix of odd order from its even half: the
even block gives the eigenpair, and the odd block completes the count,
with one LDL^T pivot sweep (?pttrf, _positive_definite) when it has no
negative eigenvalue and a Sturm count when it has.  _even_block builds
that even block, in the orthonormal even coordinates of _even_scale, for
the eigensolve, for pdp.spectral's even solves and for pdp.timedomain's
even run alike, and _mirror_weights the one W = (2, ..., 2, 1) of its
nodes.  march_half_bound marches the zero-energy 3-point
recurrence of H_V in difference form, as one unit-lower banded
triangular system solved by one BLAS ?tbsv call; every entry but h^2 V is -1.  _support_march runs pdp.spectral's
support recurrence for a batch of wavenumbers: per k, one BLAS ?tbsv
call per block of rows, with the state renormalized by a power of two
at each block end.  The blocks are cut by a growth bound that depends on V and the batch's largest k, and
the end state's bits do not depend on the cuts.  A
tridiagonal solve with a matrix of its own ends in _gtsv_solve, a thin
LAPACK ?gtsv call that assumes finite input.  The
solvers in pdp.spectral check the potential and their forcing once per
solve with _require_finite and then call _gtsv_solve.  cn_step_loop
checks its operands once per call and calls zgtsv itself, with no
wrapper or dtype dispatch per step.  It writes the Crank-Nicolson map as
2 A^-1 - I, so a step is one solve with A and no right-hand-side product.
Its off-diagonal is a scalar or one value per row pair: pdp.timedomain
steps a mirror-symmetric run from an even start on the even half of the
grid, with sqrt(2) times the coupling of the last two rows, and that
half matrix is complex symmetric with Hermitian part >= I, as the full
one is.  A changes between steps only on the forced block, the rows the
forcing reaches, and a step is one block elimination toward it.  Once
per call the fixed outer blocks are factored without pivoting, the left
one top-down and the right one bottom-up, each with the forced block's
row next to it, which folds the block's fixed Schur term into that
corner of the forced block's diagonal: the Hermitian part of A is at
least I, which gives every pivot a real part of at least 1.  Each step
scales the right-hand side by r (2/p on the outer rows, p their pivots,
2 on the forced block) in one pass, sweeps every outer block in toward
the forced block with one unit-triangular BLAS ?tbsv of the
pivot-scaled factor (_sweep_bands), so that no pass multiplies by
reciprocal pivots, solves the forced block in place with one ?gtsv call
on buffers made once per call, sweeps back out with one more ?tbsv per
outer block, and subtracts.  Its steps therefore agree with a full ?gtsv
solve up to rounding, not bitwise.
No kernel calls another public kernel, so wrapping the module attributes
(as a tracer does) gives one span per outside call: one
kernels.cn_step_loop span covers a whole run of steps.
"""
import importlib.machinery
import importlib.util
import math
import os
import sys
from functools import lru_cache

import numpy as np
import scipy

__all__ = [
    "march_half_bound",
    "cn_step_loop",
]

BACKEND = "python"


# where scipy keeps its compiled linalg modules; `import scipy` above has
# set up the path to its bundled OpenBLAS
_LINALG_DIR = os.path.join(os.path.dirname(scipy.__file__), "linalg")


def _linalg_extension(name):
    """The compiled module scipy.linalg.<name>, loaded without scipy.linalg's init.

    A module already in sys.modules under that name is reused; otherwise
    the extension file in _LINALG_DIR is loaded and registered there, so a
    later `import scipy.linalg` finds this very module.  When the file is
    not there, the module is imported the ordinary way.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname not in sys.modules:
        finder = importlib.machinery.FileFinder(
            _LINALG_DIR,
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(fullname)
        if spec is None:
            return importlib.import_module(fullname)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[fullname] = module
    return sys.modules[fullname]


_flapack = _linalg_extension("_flapack")
_fblas = _linalg_extension("_fblas")
_dgtsv, _zgtsv = _flapack.dgtsv, _flapack.zgtsv
_stebz, _stein, _pttrf = _flapack.dstebz, _flapack.dstein, _flapack.dpttrf
_dtbsv = _fblas.dtbsv
# the CN matrix is always complex
_ztbsv = _fblas.ztbsv
# pdp.timedomain's per-step samples: the projection <psi, phi>, and the
# squared interior norm as one real dot of phi's interleaved Re and Im
_zdotu, _ddot = _fblas.zdotu, _fblas.ddot


def _gtsv(dtype):
    """LAPACK ?gtsv for one numpy dtype: zgtsv for a complex one, dgtsv
    otherwise, as scipy.linalg.get_lapack_funcs picks for float64 and
    complex128."""
    return _zgtsv if dtype.kind == "c" else _dgtsv


def _gtsv_solve(dl, d, du, b, *, scratch=False):
    """Solve the tridiagonal system with sub/main/super diagonals dl, d, du.

    dl and du have length n-1; b is (n,) or (n, nrhs).  Complex or real
    input; real input gives a real solution.  The caller guarantees finite
    input (see _require_finite).  The arguments are copied and passed to
    LAPACK ?gtsv (Gaussian elimination with partial pivoting), and the
    solution is a new array.  With scratch=True, d and b are not copied
    when ?gtsv can work in them (contiguous, of the solve's dtype): their
    contents are then lost, and the solution is b itself.  An exactly
    singular matrix raises numpy.linalg.LinAlgError.
    """
    gtsv = _gtsv(np.result_type(dl, d, du, b, np.float64))
    _, _, _, x, info = gtsv(dl, d, du, b, overwrite_d=scratch, overwrite_b=scratch)
    if info:
        raise _gtsv_error(info)
    return x


def _gtsv_error(info):
    """The exception for a nonzero ?gtsv info: numpy.linalg.LinAlgError for
    an exactly singular matrix (info > 0), ValueError for an illegal
    argument (info < 0)."""
    if info > 0:
        return np.linalg.LinAlgError("singular matrix")
    return ValueError(f"illegal value in argument {-info} of ?gtsv")


def _require_finite(*arrays) -> None:
    """ValueError unless every argument is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


# absolute tolerance of the bisection that isolates the lowest eigenvalue:
# on a design matrix it stops after about 8 Sturm sweeps instead of 39.
# The count is exact at any tolerance, and the shift it gives ?stein is at
# most half a tolerance from lambda_1
_SHIFT_TOL = 1e-2
# the lowest eigenvalue counts as isolated when the next one up (or 0, above
# which nothing is bisected) is at least this many tolerances away.  The
# shift is then 15 times nearer lambda_1 than any other eigenvalue, and
# after ?stein and the Rayleigh-quotient step lam is exact to rounding and
# v within 2e-11 of the dense eigenvector at that bound (double wells with
# the shift half a tolerance off: 1e-14 at 16 tolerances, 5e-9 at 4)
_ISOLATION = 8


def _rayleigh_quotient(d, e, v):
    """v^T T v for the symmetric tridiagonal T with diagonals d, e.

    T v is formed row by row first: its rows cancel to about (lam - d) v
    for an eigenvector, where d @ v^2 and the off-diagonal sum would each
    be of the size of T and cancel only in the total.
    """
    tv = d * v
    tv[:-1] += e * v[1:]
    tv[1:] += e * v[:-1]
    return float(v @ tv)


def _lowest_eigenpair(d, e, vl=-np.inf):
    """Lowest eigenpair of a symmetric tridiagonal matrix, if it is negative.

    d is the diagonal (length n), e the off-diagonal (length n-1).  Returns
    (count, lam, v): count is the number of eigenvalues strictly below 0,
    lam the lowest eigenvalue and v its unit eigenvector; lam and v are
    None when count is 0.  vl < 0 is a lower bound of the eigenvalues
    that the caller knows: no eigenvalue at or below it is seen.

    LAPACK ?stebz bisects every eigenvalue in (vl, 0], which it clips
    to the Gershgorin interval of each split-off block, to the absolute
    tolerance _SHIFT_TOL.  The number it finds comes from Sturm counts and
    is exact; an eigenvalue of exactly 0 is returned but not counted.  When the second lowest eigenvalue (or 0,
    if there is none) lies within _ISOLATION tolerances of the lowest, the
    same call is repeated at full precision (abstol 0), so that the shift
    below picks out lambda_1 alone.  ?stein computes the eigenvector at the
    shift.  One Rayleigh-quotient step polishes it: with rho the Rayleigh
    quotient of ?stein's vector, v solves (T - rho) v = (?stein's vector)
    by one real ?gtsv and is normalized, and lam is the Rayleigh quotient
    of v.  If T - rho is exactly singular, rho is an eigenvalue and
    ?stein's vector and rho are returned.  A NaN or inf raises ValueError,
    a bisection or inverse iteration that fails to converge
    numpy.linalg.LinAlgError.
    """
    _require_finite(d, e)
    for abstol in (_SHIFT_TOL, 0.0):
        # ?stebz clips (vl, 0] to the Gershgorin interval of each block
        m, w, iblock, isplit, info = _stebz(d, e, 1, vl, 0.0, 0, 0, abstol, "B")
        if info != 0:
            raise np.linalg.LinAlgError(f"?stebz failed with info={info}")
        w = w[:m]
        count = int(np.count_nonzero(w < 0.0))
        if count == 0:
            return 0, None, None
        i = int(np.argmin(w))
        above = float(np.partition(w, 1)[1]) if m > 1 else 0.0
        if above - w[i] >= _ISOLATION * _SHIFT_TOL:
            break
    # order "B" sorts w within each split-off block; ?stein reads the
    # block of its i-th eigenvalue from iblock[i]
    iblock[0] = iblock[i]
    z, info = _stein(d, e, w[i : i + 1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"?stein failed with info={info}")
    z = z[:, 0]
    rho = _rayleigh_quotient(d, e, z)
    try:
        v = _gtsv_solve(e, d - rho, e, z)
    except np.linalg.LinAlgError:  # rho is an eigenvalue of T exactly
        return count, rho, z
    v /= np.sqrt(v @ v)
    return count, _rayleigh_quotient(d, e, v), v


def _count_negative(d, e):
    """Number of eigenvalues strictly below 0 of a symmetric tridiagonal matrix.

    One ?stebz call whose tolerance ends the bisection before it starts:
    each split-off block contributes the difference of its Sturm counts at
    the ends of its Gershgorin interval clipped to (-inf, 0], and no
    eigenvalue is refined.  As in _lowest_eigenpair, a block that is one
    exact 0 is not counted.
    """
    if d.size == 1:  # ?stebz's wrapper takes no empty e
        return int(d[0] < 0.0)
    m, w, _, _, info = _stebz(d, e, 1, -np.inf, 0.0, 0, 0, np.inf, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"?stebz failed with info={info}")
    return int(np.count_nonzero(w[:m] < 0.0))


def _positive_definite(d, e) -> bool:
    """Whether a symmetric tridiagonal matrix is positive definite.

    d is the diagonal (length n), e the off-diagonal (length n-1); the
    caller guarantees finite input.  One LDL^T pivot sweep (LAPACK
    ?pttrf, O(n) with no bisection) stops at the first pivot <= 0, and
    the matrix is positive definite when there is none.  So it is exactly
    when _count_negative would count 0, except for an eigenvalue within
    rounding of 0, where the pivots and the Sturm sequence round apart.
    """
    if d.size == 1:  # ?pttrf's wrapper takes no empty e
        return bool(d[0] > 0.0)
    return _pttrf(d, e)[2] == 0


def _even_block(d, off):
    """Diagonal and off-diagonal of the even block of a mirrored tridiagonal matrix.

    The matrix has n = 2c + 1 rows and reads the same reversed; d is its
    diagonal on rows 0..c, and off its off-diagonal: one value, or its
    first c values.  The even block is rows 0..c in the orthonormal even
    basis, whose coordinates are sqrt(2) times the node value on nodes
    j < c and the node value on node c (_even_scale): the mirror row c at
    x = 0 and row c-1 couple by sqrt(2) off both ways, so the block is
    symmetric, or complex symmetric, as the full matrix is.  d is returned
    as it is, with the block's off-diagonal.
    """
    e = np.full(d.shape[0] - 1, off, dtype=d.dtype)
    e[-1] *= math.sqrt(2.0)
    return d, e


@lru_cache(maxsize=8)
def _mirror_weights(rows):
    """The mirror weights W = (2, ..., 2, 1) of nodes 0..rows-1, read-only.

    A sum over all 2c + 1 nodes of even arrays is their sum over nodes
    0..c (rows = c + 1) weighted by W: each node j < c counts its mirror.
    """
    W = np.full(rows, 2.0)
    W[-1] = 1.0
    W.setflags(write=False)
    return W


@lru_cache(maxsize=8)
def _even_scale(rows):
    """sqrt(_mirror_weights(rows)), read-only: times the node values of an
    even array on nodes 0..c, its orthonormal even coordinates (_even_block)."""
    s = np.sqrt(_mirror_weights(rows))
    s.setflags(write=False)
    return s


def _lowest_eigenpair_by_parity(d, e):
    """_lowest_eigenpair of a mirror-symmetric matrix of odd order.

    d (length n = 2c + 1 >= 3) and e must read the same reversed.  Such a
    matrix commutes with the reversal J, so it splits into an even block
    (v = Jv) and an odd one (v = -Jv; Cantoni & Butler, Linear Algebra
    Appl. 13 (1976) 275).  The even block (_even_block) is rows 0..c with
    v_c shared by both halves; scaling v_c by 1/sqrt(2) makes it symmetric,
    with sqrt(2) e_{c-1} coupling rows c-1 and c.  The odd block is rows 0..c-1 with
    v_c = 0, the leading c x c block of d and e.  With e nonzero, the
    lowest eigenvalue is simple, so Jv = +-v, and its eigenvector has no
    zero entry (up to the signs of e it is a Perron vector), so it is not
    odd: lam is the lowest eigenvalue of the even block.  The odd block is
    only counted: 0 when one pivot sweep finds it positive definite
    (_positive_definite), else by _count_negative; count is the sum of
    both counts.

    The sqrt(2) row widens the even block's Gershgorin interval to about
    0.41 |e| below the full matrix's, and ?stebz would bisect from there.
    The even eigenvalues are eigenvalues of the full matrix, so the
    bisection starts at a Gershgorin bound of the full matrix instead,
    min(d) - 2 max|e|, less the rounding allowance that ?stebz gives its
    own bound (2.1 n ulp times the larger end of the interval).
    """
    _require_finite(d, e)
    n = d.shape[0]
    c = n // 2
    r = 2.0 * float(np.max(np.abs(e)))
    gl, gu = float(np.min(d)) - r, float(np.max(d)) + r
    vl = gl - 2.1 * n * np.finfo(float).eps * max(abs(gl), abs(gu))
    if vl >= 0.0:
        return 0, None, None
    count, lam, u = _lowest_eigenpair(*_even_block(d[: c + 1], e[:c]), vl)
    if count == 0:
        return 0, None, None
    if not _positive_definite(d[:c], e[: c - 1]):
        count += _count_negative(d[:c], e[: c - 1])
    v = np.empty(n)
    np.multiply(u[:c], math.sqrt(0.5), out=v[:c])
    v[c] = u[c]
    v[c + 1 :] = v[:c][::-1]
    return count, lam, v


def march_half_bound(v, h, from_right):
    """March the zero-energy solution -eta'' + V eta = 0 across the grid.

    The 3-point stencil of H_V at energy 0, -eta_{j-1} + (2 + h^2 v_j)
    eta_j - eta_{j+1} = 0 on every inner node, in difference form
    (d_j = eta_{j+1} - eta_j), as pdp.spectral's support recurrence is
    marched:

        d_j = d_{j-1} + h^2 v_j eta_j,    eta_{j+1} = eta_j + d_j,

    from eta_0 = 1, d_0 = 0 at the starting end, where the potential
    vanishes (the end node's own v is not read).  Returns eta on the n
    nodes and eta' = d/h on the n-1 cells between them.  The Casoratian
    of two solutions, (a_j b_{j+1} - a_{j+1} b_j)/h, is the same on every
    cell in exact arithmetic.

    The whole march is one unit-lower triangular system with 2
    subdiagonals in the interleaved unknowns (eta_0, d_0, eta_1, d_1, ...,
    eta_{n-1}), solved by one BLAS ?tbsv call; apart from -h^2 v_j its
    entries are all -1.  The march from the right is the march from the
    left over the reversed potential, with eta' negated.  A march that
    overflows gives non-finite values and no floating-point warning.
    """
    v = np.asarray(v, dtype=float)
    if from_right:
        v = v[::-1]
    n = v.shape[0]
    # column c of the band (column-major, as BLAS reads it) holds A[c, c]
    # (unit, not read), A[c+1, c] and A[c+2, c]: the eta_j column couples
    # d_j (-h^2 v_j) and eta_{j+1} (-1), the d_j column eta_{j+1} and
    # d_{j+1} (-1 both)
    band = np.full((2 * n - 1, 3), -1.0).T
    np.multiply(-h * h, v, out=band[1, ::2])
    band[1, 0] = 0.0  # d_0 = 0: node 0's row is not marched
    y = np.zeros(2 * n - 1)
    y[0] = 1.0
    y = _dtbsv(2, band, y, lower=1, diag=1, overwrite_x=1)
    eta, deta = y[::2], y[1::2] / h
    if from_right:
        return eta[::-1], -deta[::-1]
    return eta, deta


# growth budget of one block of _support_march, in bits.  A block's per-row
# bounds sum to less than this plus its first row's bound, so from a state
# of size <= 1 it stays below 2**1024 while that bound is below 2**128
# (2 + (h k)^2 + h^2 |V| < 2**128 on every row); a larger V may overflow,
# and the state is then not finite
_BLOCK_BITS = 896


def _march_cuts(hv, hk2_max):
    """Block boundaries of _support_march: sorted row indices from 0 to len(hv).

    Row i grows max(|u|, |d|) by at most 2 + |hv_i - hk2|, which is at
    most 2 + hk2_max + |hv_i| for every hk2 <= hk2_max; a block ends where
    the sum of log2 of that bound passes a multiple of _BLOCK_BITS.
    hk2_max = 4 bounds every resolvable k (k h / 2 < 1).
    """
    bits = np.cumsum(np.log2((2.0 + hk2_max) + np.abs(hv)))
    ends = np.searchsorted(bits, np.arange(_BLOCK_BITS, bits[-1], _BLOCK_BITS))
    return sorted({0, hv.shape[0], *ends.tolist()})


def _support_march(hv, hk2, d):
    """March the state (d, u = 1) over the rows hv, once per entry of hk2.

    Row i maps (d, u) to (d', u') with

        d' = d - (hv_i - hk2) u,    u' = u - d',

    the support recurrence of pdp.spectral in difference form (hv_i is
    h^2 V of the row's node, hk2 = (h k)^2).  hv is a non-empty real
    array; hk2 (floats) and d (the start states' d, complex) are
    sequences with one entry per k.  Returns three lists (d, u, scale),
    one entry per k: the end state is (d, u) times 2**scale, with
    max(|u|, |d|) in [0.5, 1) unless it is 0 or not finite.  A march can
    overflow only where a row's bound 2 + hk2 + |hv_i| reaches 2**128
    (see _BLOCK_BITS); its state is then not finite, with no
    floating-point warning.

    Per k, the march is a unit lower-banded triangular system with two
    subdiagonals in the unknowns (u_start, d_0, u_0, d_1, u_1, ...),
    solved by BLAS ?tbsv in blocks of rows cut by _march_cuts(hv,
    max(hk2)): the batch's largest k bounds every row.
    A block carries the state it starts from in: the u of that state as
    its first unknown, the d as the right-hand side of its first d row, so
    every row is formed by ?tbsv alone.  The state is renormalized to a
    mantissa and a power-of-two exponent at each block end.  A row's
    coefficients are 1, -1 and the real hv_i - hk2, so its two entries
    are the same floating-point expressions in every position, and
    power-of-two scaling commutes with them exactly: the end state has
    the same bits whatever the cuts, and each k the same bits alone or in
    a batch.
    """
    m = hv.shape[0]
    cuts = _march_cuts(hv, max(hk2))
    # lower band storage (column-major (3, 2m + 1), unit diagonal implied)
    # of the unknowns u_start at column 0 and (d_i, u_i) of row i at
    # 2i + 1, 2i + 2: band[1] couples u_i to d_i (1) and d_{i+1} to u_i
    # (hv_{i+1} - hk2, real, written per k), band[2] holds the -1 of both
    # differences
    band = np.zeros((2 * m + 1, 3), dtype=np.complex128).T
    band[0] = 1.0
    band[1, 1::2] = 1.0
    band[2] = -1.0
    coef = band.real[1, :-1:2]
    y = np.empty(2 * m + 1, dtype=np.complex128)
    blocks = [(y[2 * b0 : 2 * b1 + 1], band[:, 2 * b0 : 2 * b1 + 1])
              for b0, b1 in zip(cuts[:-1], cuts[1:])]
    d_end, u_end, scale_end = [], [], []
    for c, di in zip(hk2, d):
        np.subtract(hv, c, out=coef)
        ui = 1.0 + 0.0j
        scale = 0
        y.fill(0.0)
        for yb, band_b in blocks:
            yb[0] = ui
            yb[1] = di
            yb = _ztbsv(2, band_b, yb, lower=1, diag=1, overwrite_x=1)
            di, ui = yb[-2:].tolist()
            e = math.frexp(max(abs(ui), abs(di)))[1]
            ui, di = ui * 2.0**-e, di * 2.0**-e
            scale += e
        d_end.append(di)
        u_end.append(ui)
        scale_end.append(scale)
    return d_end, u_end, scale_end


def _forced_block(beta):
    """Rows lo:hi of the CN matrix whose diagonal the forcing changes.

    The hull of beta's nonzeros, widened to at least two rows (?gtsv takes
    no fewer); when beta is zero everywhere, two rows at the centre.
    """
    n = beta.shape[0]
    nz = np.flatnonzero(beta)
    lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (n // 2, n // 2)
    lo = max(min(lo, hi - 2), 0)
    return lo, max(hi, lo + 2)


def _factor_unpivoted(e, d):
    """LU factors, without pivoting, of the tridiagonal matrix (e, d, e).

    e is both off-diagonals (length n-1), d the diagonal (length n).
    Returns (m, p): the pivots p (the diagonal of U) and m = e / p[:-1],
    which is both the subdiagonal of the unit-lower L and the
    superdiagonal of the unit-upper D^-1 U, D = diag(p).  A plain loop
    over the rows, for matrices whose pivots cannot vanish; a zero pivot
    raises ZeroDivisionError.
    """
    d = d.tolist()
    m = []
    p = [d[0]]
    for ei, di in zip(e.tolist(), d[1:]):
        mi = ei / p[-1]
        m.append(mi)
        p.append(di - mi * ei)
    return np.array(m, dtype=np.complex128), np.array(p, dtype=np.complex128)


def _sweep_bands(e, m, p, bottom_up):
    """Right-hand-side scale and ?tbsv sweeps of one outer block of cn_step_loop.

    e, m and p are the block's couplings, multipliers and pivots in the
    order _factor_unpivoted took and gave them, with the forced block's
    corner row last: the block's part of A is L D U, with L unit-lower
    (m below its diagonal), U unit-upper (m above it) and D = diag(p).
    The in-sweep must give D^-1 L^-1 (2 phi) on the block's own rows and
    L^-1 (2 phi) on the corner row, whose pivot belongs to C's solve.
    With D' = D but for a 1 on the corner row, D'^-1 L^-1 = Lh^-1 D'^-1
    for the unit-lower Lh = D'^-1 L D', whose row i couples to row i-1 by
    e[i-1] / p[i] on the own rows and by the plain e on the corner row
    (m[i-1] p[i-1] = e[i-1]).  So the step scales its right-hand side by
    r = 2/p on the own rows, sweeps in with Lh and sweeps out with U.

    Returns (r, sweep_in, sweep_out): r on the own rows, and each sweep
    as (band, lower), its ?tbsv band storage in Fortran order and whether
    it is lower triangular.  With bottom_up, the block was factored from
    the grid's end up: r, Lh and U are then given in row order, their
    mirror images, so that Lh is upper and U lower.
    """
    lh = e.astype(np.complex128)
    lh[:-1] /= p[1:-1]
    r = 2.0 / p[:-1]
    lower = np.ones((2, p.shape[0]), dtype=np.complex128, order="F")
    lower[1, :-1] = lh
    upper = np.ones_like(lower)
    upper[0, 1:] = m
    if bottom_up:
        # the reversal of a lower band is the upper band of the reversed rows
        return (r[::-1], (np.asfortranarray(lower[::-1, ::-1]), 0),
                (np.asfortranarray(upper[::-1, ::-1]), 1))
    return r, (lower, 1), (upper, 0)


def cn_step_loop(off, diag_h, sigma, beta, eps, mu, dt, t0, nsteps, phi, *, record=None):
    """Advance the forced Schrodinger equation by nsteps Crank-Nicolson steps.

    i phi_t = (H - i sigma) phi + eps cos(mu t) beta phi, with H the
    real symmetric tridiagonal operator with diagonal ``diag_h`` and
    off-diagonal ``off``: one value per pair of neighbouring rows (length
    n-1), or a scalar for all of them.  The time-dependent factor is frozen
    at the step midpoint, keeping the scheme second order.  phi is updated
    in place; returns the final time.

    With A = I + X, X = (i dt/2)(H - i sigma + forcing), the CN map is
    A^-1 (I - X) = 2 A^-1 - I, so each step solves A chi = 2 phi and sets
    phi to chi - phi; no right-hand side (I - X) phi is formed.  The
    Hermitian part of A is I + (dt/2) sigma >= I, whatever the forcing.
    Every Schur complement of A keeps that bound, so the blocks below are
    nonsingular and LU without pivoting exists with every pivot p of real
    part >= 1 (and |1/p| <= 1).

    Between steps A changes only on the diagonal of the forced block C =
    rows lo:hi (_forced_block); the outer blocks L = rows :lo and R =
    rows hi: are fixed.  The step is one block elimination toward C.
    Once per call, L is factored top-down and R bottom-up, each without
    pivoting (_factor_unpivoted) and together with the row of C next to
    it, so that the last pivot of each factorization is C's corner
    diagonal less the block's fixed Schur term b^2/p (b the coupling, p
    the block's pivot next to C); the forcing-free diagonal of C and
    hb = (i dt/2) eps beta on C are formed too, and so are each outer
    block's sweeps and the right-hand-side scale r (_sweep_bands): 2/p on
    the outer rows and 2 on C.  A step then forms C's diagonal as that
    fixed part plus cos(mu t_mid) hb; scales the right-hand side, y = r
    phi, in one pass over all rows; sweeps each outer block in toward C
    by one unit-triangular BLAS ?tbsv with the pivot-scaled factor Lh,
    whose last row is the block's update of C's corner right-hand side,
    so that no pass multiplies by reciprocal pivots; solves C by one
    LAPACK ?gtsv in place, on buffers made once per call (its two
    couplings, which ?gtsv overwrites, are refreshed by one copy); sweeps
    each outer block back out by one unit-triangular ?tbsv from C's
    solved corner; and sets phi = chi - phi by one subtraction over all
    rows.  The sweeps and the solve work in contiguous views of y, and
    the routines are called with positional arguments, which f2py parses
    faster than keywords.  The result agrees with solving (I + X) phi_new
    = (I - X) phi by one full ?gtsv per step up to rounding, not bitwise.
    When beta reaches both grid ends there is no outer block, and the
    step is one ?gtsv solve of the whole system.

    The operands are checked once per call (a NaN or inf raises
    ValueError); the steps then reuse one set of buffers.  If given,
    record(i, t) is called after step i (i = 0 .. nsteps-1) with the time t
    it reached and phi holding the new field; it may read phi, and an
    exception it raises ends the run.
    """
    _require_finite(off, diag_h, sigma, beta, phi, (eps, mu, dt, t0))
    n = diag_h.shape[0]
    half = 0.5j * dt
    hoff = half * np.broadcast_to(off, n - 1)  # the off-diagonal of A
    lo, hi = _forced_block(beta)
    a0 = 1.0 + half * (diag_h - 1j * sigma)  # A's diagonal without the forcing
    r = np.full(n, 2.0, dtype=np.complex128)
    y = np.empty(n, dtype=np.complex128)
    # per outer block: its rows with C's corner row, as a view of y, and
    # the (band, lower) of its in and out sweeps
    blocks = []
    if lo > 0:  # L and C's first row, top-down
        e = hoff[:lo]
        m, p = _factor_unpivoted(e, a0[: lo + 1])
        a0[lo] = p[-1]
        r[:lo], sweep_in, sweep_out = _sweep_bands(e, m, p, False)
        blocks.append((y[: lo + 1], *sweep_in, *sweep_out))
    if hi < n:  # R and C's last row, bottom-up
        e = hoff[hi - 1 :][::-1]
        m, p = _factor_unpivoted(e, a0[hi - 1 :][::-1])
        a0[hi - 1] = p[-1]
        r[hi:], sweep_in, sweep_out = _sweep_bands(e, m, p, True)
        blocks.append((y[hi - 1 :], *sweep_in, *sweep_out))
    a0_c = a0[lo:hi]
    hb = (half * eps) * beta[lo:hi]
    hoff_c = hoff[lo : hi - 1]
    # C's sub- and superdiagonal, which ?gtsv overwrites
    off_c = np.empty((2, hi - lo - 1), dtype=np.complex128)
    dl_c, du_c = off_c
    a_c = np.empty(hi - lo, dtype=np.complex128)
    y_c = y[lo:hi]
    t = t0
    # positional arguments, which f2py parses faster than keywords:
    # ztbsv(k, a, x, incx, offx, lower, trans, diag, overwrite_x) and
    # zgtsv(dl, d, du, b, overwrite_dl, overwrite_d, overwrite_du, overwrite_b)
    for i in range(nsteps):
        np.multiply(hb, math.cos(mu * (t + 0.5 * dt)), out=a_c)
        np.add(a_c, a0_c, out=a_c)
        off_c[...] = hoff_c
        np.multiply(r, phi, out=y)
        for rows, band, low, _, _ in blocks:
            _ztbsv(1, band, rows, 1, 0, low, 0, 1, 1)
        info = _zgtsv(dl_c, a_c, du_c, y_c, 1, 1, 1, 1)[-1]  # chi_C, in y_c
        if info:
            raise _gtsv_error(info)
        for rows, _, _, band, low in blocks:
            _ztbsv(1, band, rows, 1, 0, low, 0, 1, 1)
        np.subtract(y, phi, out=phi)
        t += dt
        if record is not None:
            record(i, t)
    return t
