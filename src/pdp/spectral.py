"""Spectral machinery for H_V = -d^2/dx^2 + V on a uniform grid.

Ground state (Dirichlet eigensolve), outgoing resolvent solves with Robin
radiation rows, distorted plane waves, the transmission and reflection
coefficients, the reduced resolvent at the eigenvalue, and the zero-energy
Wronskian of the half-bound states.

All boundary conditions are imposed through ghost-node elimination of a
centered first-derivative condition, which keeps every system tridiagonal
and the whole scheme O(h^2).

t(k) and r(k) are not read off the outgoing solves: a recurrence over the
rows where V != 0 marches the transmitted wave from the right-hand side of
the support to the left, where the solution grows as 1/|t|, and matches
lattice waves there.  The transmitted tail e_+ = e^{iqx} - phi_+ of a
full-grid solve is a difference of nearly equal numbers: its absolute
error stays near the solve's (about 1e-13), so its relative error grows as
1/|t| and it reads round-off once |t|^2 is below about 1e-25.  The
recurrence keeps relative accuracy to rounding and costs O(support) per k
instead of a full-grid solve.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, get_blas_funcs

from . import kernels
from .errors import NoBoundState, SolverFailure
from .grid import Grid, PotentialField, trapz
from .kernels import _gtsv_solve, _require_finite

_tbsv = get_blas_funcs(("tbsv",), dtype=np.complex128)[0]

__all__ = [
    "BoundState",
    "ScatteringState",
    "WronskianResult",
    "solve_ground_state",
    "outgoing_resolvent_solve",
    "reduced_resolvent_at_eigenvalue",
    "distorted_plane_waves",
    "transmission",
    "scattering_k_derivative",
    "wronskian_at_zero",
]

@dataclass(frozen=True)
class BoundState:
    """Normalized ground-state eigenpair of H_V with Dirichlet rows."""

    lam: float
    psi: np.ndarray
    count_negative_eigenvalues: int


@dataclass(frozen=True)
class ScatteringState:
    """Distorted plane waves e_{V+-}(x,k) and the scattering coefficients."""

    k: float
    e_plus: np.ndarray
    e_minus: np.ndarray
    t: complex
    r: complex

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.r) ** 2 + abs(self.t) ** 2 - 1.0)


@dataclass(frozen=True)
class WronskianResult:
    """Zero-energy Wronskian of the half-bound states eta_+- and diagnostics.

    w0 is the spatial mean of eta_+ eta_-' - eta_+' eta_-, variance the
    spread over nodes relative to 1 + w0^2 (the Wronskian is analytically
    constant, and can be exponentially large for potentials with tall
    positive parts); valid is False when the relative variance exceeds the
    tolerance supplied by the caller.
    """

    w0: float
    variance: float
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    valid: bool


def _tridiag(V: PotentialField, shift: float = 0.0):
    """Diagonal and off-diagonal of H_V - shift with plain (interior) rows."""
    h = V.grid.h
    d = 2.0 / h**2 + V.values - shift
    e = np.full(V.grid.n - 1, -1.0 / h**2)
    return d, e


def solve_ground_state(V: PotentialField) -> BoundState:
    """Most-negative eigenpair of H_V with Dirichlet rows at the domain ends.

    The eigenvector is normalized to unit L^2 norm under trapezoid
    quadrature and signed so that its peak is positive.  Also reports the
    total number of negative eigenvalues (for the one-bound-state check).
    """
    d, e = _tridiag(V)
    d_int, e_int = d[1:-1], e[1:-1]
    count = int(kernels.sturm_count_below(d_int, e_int, 0.0))
    if count == 0:
        raise NoBoundState("H_V has no negative eigenvalue on this grid")
    w, v = eigh_tridiagonal(d_int, e_int, select="i", select_range=(0, 0))
    lam = float(w[0])
    psi = np.zeros(V.grid.n)
    psi[1:-1] = v[:, 0]
    nrm = np.sqrt(trapz(V.grid, psi * psi))
    psi /= nrm
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    return BoundState(lam=lam, psi=psi, count_negative_eigenvalues=count)


def lattice_wavenumber(k: float, h: float) -> float:
    """Discrete wavenumber q with (2 - 2cos(qh))/h^2 = k^2.

    e^{iqx_j} solves the free 3-point equation at energy k^2 exactly; using
    q instead of k in wave phases and boundary rows removes the O(h^2)
    dispersion mismatch between the interior stencil and the radiation
    condition (spurious reflections would otherwise pollute t and r).
    """
    s = 0.5 * k * h
    if s >= 1.0:
        raise ValueError(f"k={k} is not resolvable on a grid with h={h}")
    return 2.0 * np.arcsin(s) / h


def _outgoing_system(V: PotentialField, k: float):
    """Tridiagonal (dl, d, du) for (H_V - k^2) with outgoing radiation rows.

    The ghost value at each end is eliminated through the exact discrete
    outgoing relation u_ghost = e^{iqh} u_end, so a pure outgoing lattice
    wave satisfies the boundary row exactly and the matrix stays complex
    symmetric.
    """
    h = V.grid.h
    n = V.grid.n
    q = lattice_wavenumber(k, h)
    d = np.asarray(2.0 / h**2 + V.values - k * k, dtype=np.complex128)
    d[0] = (2.0 - np.exp(1j * q * h)) / h**2 + V.values[0] - k * k
    d[-1] = (2.0 - np.exp(1j * q * h)) / h**2 + V.values[-1] - k * k
    dl = np.full(n - 1, -1.0 / h**2, dtype=np.complex128)
    return dl, d, dl


def outgoing_resolvent_solve(V: PotentialField, k: float, f: np.ndarray) -> np.ndarray:
    """Solve (H_V - k^2) u = f with outgoing radiation rows, k real > 0."""
    if not k > 0:
        raise ValueError("outgoing solves require real k > 0")
    f = np.asarray(f, dtype=np.complex128)
    if f.shape[0] != V.grid.n:
        raise ValueError("forcing length does not match grid")
    dl, d, du = _outgoing_system(V, k)
    try:
        _require_finite(V.values, f)  # k > 0 is resolvable, so d is finite too
        u = _gtsv_solve(dl, d, du, f)
    except (np.linalg.LinAlgError, ValueError) as exc:  # singular A, non-finite input
        raise SolverFailure(f"outgoing solve failed at k={k}: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SolverFailure(f"outgoing solve produced non-finite values at k={k}")
    return u


def reduced_resolvent_at_eigenvalue(
    V: PotentialField, bs: BoundState, f: np.ndarray
) -> np.ndarray:
    """Solve (H_V - lambda) u = P_c f with <psi, u> = 0.

    P_c f = f - <psi,f> psi.  At the domain ends the solution obeys the
    decaying condition u' = -+ kappa u with kappa = sqrt(-lambda), again via
    ghost-node elimination, which makes A = H_V - lambda tridiagonal.  The
    bordered system [[A, psi], [(w psi)^T, 0]] [u; c] = [P_c f; 0] is solved
    by Keller's (1977) bordering algorithm: one O(n) tridiagonal solve with
    two right-hand sides gives [z1, z2] = A^-1 [P_c f, psi], and
    u = z1 - s z2 with s = <psi, z1> / <psi, z2>.

    A is nearly singular (lambda is its eigenvalue up to the exponentially
    small difference between the decay and Dirichlet rows, and to machine
    precision on wide domains), so z1 and z2 are huge and dominated by
    their psi components.  Both come from the same factors of A, so
    their errors lie along the same near-null direction and cancel in
    z1 - s z2 (T. F. Chan, SIAM J. Numer. Anal. 21 (1984) 738); only an
    exactly zero pivot fails, and it raises SolverFailure.
    """
    grid = V.grid
    f = np.asarray(f, dtype=float)
    if f.shape[0] != grid.n:
        raise ValueError("forcing length does not match grid")
    lam, psi = bs.lam, bs.psi
    h = grid.h
    n = grid.n
    w = grid.weights

    # discrete decay rate: 2(cosh(kq h) - 1)/h^2 = -lam, exact for the
    # free lattice mode e^{-kq |x|}; ghost elimination as in _outgoing_system
    kq = np.arccosh(1.0 - lam * h * h / 2.0) / h
    d = 2.0 / h**2 + V.values - lam
    d[0] = (2.0 - np.exp(-kq * h)) / h**2 + V.values[0] - lam
    d[-1] = (2.0 - np.exp(-kq * h)) / h**2 + V.values[-1] - lam
    dl = np.full(n - 1, -1.0 / h**2)

    fc = f - (w @ (psi * f)) * psi
    try:
        _require_finite(d, fc, psi)
        z = _gtsv_solve(dl, d, dl, np.column_stack((fc, psi)))
    except (np.linalg.LinAlgError, ValueError) as exc:  # singular A, non-finite input
        raise SolverFailure(f"bordered eigenvalue solve failed: {exc}") from exc
    z1, z2 = z[:, 0], z[:, 1]
    wpsi = w * psi
    u = z1 - ((wpsi @ z1) / (wpsi @ z2)) * z2
    if not np.all(np.isfinite(u)):
        raise SolverFailure("bordered eigenvalue solve produced non-finite values")
    return u


# growth budget of one block of the support recurrence, in bits.  A block's
# per-row bounds sum to less than this plus its first row's bound, so from a
# state of size <= 1 it stays below 2**1024 while that bound is below 2**128
# (h^2 |V| < 2**128 on every row); a larger V may overflow, which raises
# SolverFailure
_BLOCK_BITS = 896


def _support_recurrence(V: PotentialField, ks: np.ndarray):
    """t(k) and r(k) of the discrete model for each k of the 1-D array ks.

    The march runs leftward over the rows jl..jr where V != 0, from the
    transmitted lattice wave u = e^{iq(x - x_jr)} at nodes jr, jr+1, in
    difference form (d_j = u_{j+1} - u_j):

        d_{j-1} = d_j - h^2 (V_j - k^2) u_j,    u_{j-1} = u_j - d_{j-1}.

    Rows outside jl..jr are free, so u = A e^{iqx} + B e^{-iqx} at nodes
    jl-1, jl (ghost nodes when the support touches a domain end), and
    t = 1/A, r = B/A.  Per k, the march is a unit lower-banded triangular
    system in the unknowns (d_{j-1}, u_{j-1}), solved by BLAS ?tbsv in
    blocks.  A row grows max(|u|, |d|) by at most 2 + |h^2 (V_j - k^2)|
    < 6 + h^2 |V_j| (k h / 2 < 1), so blocks cut where the sum of log2 of
    that bound passes a multiple of _BLOCK_BITS cannot overflow, and the
    state is renormalized to a mantissa and a power-of-two exponent at
    each block end.  The cuts depend on V only, and power-of-two scaling
    is exact, so each k gives the same bits alone or in a batch.
    """
    h = V.grid.h
    s = 0.5 * h * ks
    if not (np.all(ks > 0.0) and np.all(s < 1.0)):
        raise ValueError(f"k must satisfy 0 < k < 2/h = {2.0 / h:g}")
    v = np.asarray(V.values)
    try:
        _require_finite(v)
    except ValueError as exc:
        raise SolverFailure(f"transmission recurrence failed: {exc}") from exc
    t = np.ones(ks.shape, dtype=np.complex128)
    r = np.zeros(ks.shape, dtype=np.complex128)
    rows = np.flatnonzero(v)
    if rows.size == 0:
        return t, r
    jl, jr = int(rows[0]), int(rows[-1])
    m = jr - jl + 1
    hv = h * h * v[jl : jr + 1][::-1]  # row i of the march is node jr - i
    bits = np.cumsum(np.log2(6.0 + np.abs(hv)))
    ends = np.searchsorted(bits, np.arange(_BLOCK_BITS, bits[-1], _BLOCK_BITS))
    cuts = sorted({0, m, *ends.tolist()})
    hv_start = hv[cuts[:-1]].tolist()
    # unknowns (d, u) of row i at 2i, 2i+1, in lower band storage (column-
    # major (3, 2m), unit diagonal implied): band[1, 2i] = 1 couples u to d
    # of row i, band[1, 2i-1] carries h^2 (V - k^2) of row i, and band[2]
    # holds the -1 of both differences
    pattern = np.array([1.0, 1.0, -1.0, 1.0, 0.0, -1.0], dtype=np.complex128)
    band = np.tile(pattern, m).reshape(2 * m, 3).T
    x_a = 0.5 * (V.grid.x_min + V.grid.x_max) + h * (jl - 1 - (V.grid.n - 1) / 2.0)
    y = np.empty(2 * m, dtype=np.complex128)
    for i, (k, sk) in enumerate(zip(ks.tolist(), s.tolist())):
        hk2 = (h * k) ** 2
        np.subtract(hv[1:], hk2, out=band[1, 1:-1:2])
        w = complex(math.sqrt(1.0 - sk * sk), sk)  # e^{iqh/2}
        u, d = 1.0 + 0.0j, 2j * sk * w
        scale = 0
        y.fill(0.0)
        for b0, b1, hv0 in zip(cuts[:-1], cuts[1:], hv_start):
            yb = y[2 * b0 : 2 * b1]
            yb[0] = d - (hv0 - hk2) * u
            yb[1] = u
            _tbsv(2, band[:, 2 * b0 : 2 * b1], yb, lower=1, diag=1, overwrite_x=1)
            d, u = complex(yb[-2]), complex(yb[-1])
            e = math.frexp(max(abs(u), abs(d)))[1]
            u, d = u * 2.0**-e, d * 2.0**-e
            scale += e
        p = d + 2j * sk * w.conjugate() * u  # A e^{iqx_a}, times 2i sin(qh)
        if not cmath.isfinite(p):
            raise SolverFailure(f"transmission recurrence overflowed at k={k}")
        qh = 2.0 * math.asin(sk)
        z = cmath.exp(-1j * qh * m) * (4j * sk * w.real) / p
        t[i] = complex(math.ldexp(z.real, -scale), math.ldexp(z.imag, -scale))
        r[i] = (2j * sk * w * u - d) / p * cmath.exp(2j * (qh / h) * x_a)
    return t, r


def transmission(V: PotentialField, k):
    """Transmission coefficient t(k), as in distorted_plane_waves(V, k).t.

    k is a scalar (a complex is returned) or a 1-D array (an array).  t is
    read off one recurrence over the support (see _support_recurrence),
    marched from the transmitted side toward the incident one, where the
    wave grows, rather than off the transmitted tail of an outgoing solve,
    which cancels to round-off once |t| is far below 1 (see the module
    docstring).  t keeps its relative accuracy down to the float64 range
    and underflows to 0 beyond it.  k <= 0, or k h / 2 >= 1, raises
    ValueError; a NaN or inf in V raises SolverFailure.
    """
    ks = np.asarray(k, dtype=float)
    t, _ = _support_recurrence(V, ks.reshape(-1))
    return complex(t[0]) if ks.ndim == 0 else t.reshape(ks.shape)


def distorted_plane_waves(V: PotentialField, k: float) -> ScatteringState:
    """Distorted plane waves at wavenumber k, with t and r.

    phi_+- solves (H_V - k^2) phi = V e^{+-ikx} with outgoing rows and
    e_+- = e^{+-ikx} - phi_+-.  t and r come from the support recurrence
    that transmission uses, not from the exterior of e_+, whose
    transmitted tail is a difference of nearly equal numbers.
    """
    q = lattice_wavenumber(k, V.grid.h)
    x = V.grid.x
    vk = np.asarray(V.values)
    wave_p = np.exp(1j * q * x)
    e_p = wave_p - outgoing_resolvent_solve(V, k, vk * wave_p)
    wave_m = np.exp(-1j * q * x)
    e_m = wave_m - outgoing_resolvent_solve(V, k, vk * wave_m)
    t, r = _support_recurrence(V, np.array([float(k)]))
    return ScatteringState(
        k=float(k), e_plus=e_p, e_minus=e_m, t=complex(t[0]), r=complex(r[0])
    )


def scattering_k_derivative(
    V: PotentialField, st: ScatteringState
) -> tuple[np.ndarray, np.ndarray]:
    """d e_{V+-}/dk at fixed V, by differentiating the discrete system.

    Both the forcing phases and the radiation rows depend on k through the
    lattice wavenumber q(k); differentiating the assembled tridiagonal
    system (rather than discretizing a continuum formula) keeps the result
    consistent with distorted_plane_waves to rounding.
    """
    grid = V.grid
    h = grid.h
    x = grid.x
    k = st.k
    q = lattice_wavenumber(k, h)
    qp = 1.0 / np.sqrt(1.0 - (0.5 * k * h) ** 2)  # dq/dk
    wave_p = np.exp(1j * q * x)
    wave_m = np.conj(wave_p)
    dwave_p = 1j * x * qp * wave_p
    dwave_m = -1j * x * qp * wave_m
    dl, d, du = _outgoing_system(V, k)
    # dD/dk: -2k on the diagonal, plus the ghost factor at the end rows
    dd = np.full(grid.n, -2.0 * k, dtype=np.complex128)
    ghost = -1j * qp * np.exp(1j * q * h) / h
    dd[0] += ghost
    dd[-1] += ghost
    vk = np.asarray(V.values)
    out = []
    # phi_+- = e^{+-iqx} - e_+-, the scattered parts solved for by
    # distorted_plane_waves
    for phi, dwave in ((wave_p - st.e_plus, dwave_p), (wave_m - st.e_minus, dwave_m)):
        rhs = vk * dwave - dd * phi
        try:
            _require_finite(d, rhs)
            dphi = _gtsv_solve(dl, d, du, rhs)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolverFailure(f"k-derivative solve failed at k={k}: {exc}") from exc
        out.append(dwave - dphi)
    return out[0], out[1]


def wronskian_at_zero(V: PotentialField, tol: float = 1e-8) -> WronskianResult:
    """Zero-energy Wronskian W_V(0) of the half-bound states.

    eta_+ is marched in from the right end (eta=1, eta'=0 there, where V
    vanishes), eta_- from the left, both with the trapezoidal one-step
    scheme.  The Wronskian is formed at every node and averaged; the
    variance over nodes is the discretization self-check.
    """
    v = np.asarray(V.values, dtype=float)
    h = V.grid.h
    eta_p, deta_p = kernels.march_half_bound(v, h, True)
    eta_m, deta_m = kernels.march_half_bound(v, h, False)
    # tall-barrier potentials push W past the float range; overflow is
    # expected and resolved by the non-finite guard below
    with np.errstate(over="ignore", invalid="ignore"):
        W = eta_p * deta_m - deta_p * eta_m
        if not np.all(np.isfinite(W)):
            return WronskianResult(
                w0=np.nan, variance=np.inf, eta_plus=eta_p, eta_minus=eta_m, valid=False
            )
        w0 = float(np.mean(W))
        scale = np.sqrt(1.0 + w0 * w0)  # W grows exponentially with integral sqrt(V_+)
        variance = float(np.mean(((W - w0) / scale) ** 2))
    valid = bool(np.isfinite(variance)) and variance <= tol
    return WronskianResult(
        w0=w0, variance=variance, eta_plus=eta_p, eta_minus=eta_m, valid=valid
    )
