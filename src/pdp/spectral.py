"""Spectral machinery for H_V = -d^2/dx^2 + V on a uniform grid.

Ground state (Dirichlet eigensolve, from the even half of the grid when V
is mirror-symmetric), whether H_V has an eigenvalue at or below a given
energy (a Gershgorin bound, else one LDL^T pivot sweep, no eigensolve),
outgoing resolvent solves with Robin radiation rows, distorted plane
waves, the transmission coefficient, the reduced resolvent at the
eigenvalue, and the zero-energy Wronskian of the half-bound states.

Mirror symmetry is decided by one test, grid._even_half: a centred grid
(Grid.centred, where x is exactly odd) of odd n = 2c + 1, and a V that
reads the same reversed, bit for bit (PotentialField.mirrored, kept per
field).  The lattice wave of a centred grid keeps the bits of the full
exponential; the parity ground state agrees with the full-grid one to
rounding.  The outgoing and reduced-resolvent solves read which problem
they solve from their forcing's row count (_on_even_half): n rows are the
full grid, and c + 1 rows are nodes 0..c of an even forcing, for a V
that splits by parity, and give nodes 0..c of the even solution.  These
are solved on the even block alone (kernels._even_block, the one
builder of it that the eigensolve and pdp.timedomain use too: the
boundary row at node 0, a mirror row at x = 0, in the orthonormal even
basis of kernels._even_scale, so each block stays symmetric or complex
symmetric as the full matrix is).  They agree with the full-grid solves
to rounding, not bitwise, at half the rows.

All boundary conditions are imposed through ghost-node elimination of a
centered first-derivative condition, which keeps every system tridiagonal
and the whole scheme O(h^2).  The outgoing matrix H_V - k^2 is complex
symmetric (not Hermitian), so the transpose of its solve is the same
solve; gamma_gradient relies on that for the k-derivative of e_+-.

The distorted plane waves are the columns of one outgoing solve
(distorted_plane_waves), formed from the lattice wave e^{iqx} that
ScatteringState keeps (e^{-iqx} is its conjugate; on a centred grid it is
taken on x >= 0 and conjugated onto the mirror nodes): on the full grid
the columns are the forcings V e^{+-iqx}, for e_+-; for a
mirror-symmetric V, where e_- is e_+ reversed and a pairing with an even
function reads only e_even = (e_+ + e_-)/2 = cos(qx) - R(k)[V cos(qx)],
it is one column, V cos(qx), of an even solve on nodes 0..c.  A caller's
own forcing rides along as the last column of the same solve, and its
row count picks the grid.  The waves are returned, not kept: a state
holds no wave that it would have to solve for again.

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
from functools import cached_property

import numpy as np

from . import kernels
from .errors import NoBoundState, SolverFailure
from .grid import PotentialField, _even_half
from .kernels import _even_block, _even_scale, _gtsv_solve, _require_finite

__all__ = [
    "BoundState",
    "ScatteringState",
    "WronskianResult",
    "solve_ground_state",
    "has_eigenvalue_at_or_below",
    "outgoing_resolvent_solve",
    "reduced_resolvent_at_eigenvalue",
    "distorted_plane_waves",
    "transmission",
    "wronskian_at_zero",
]


def _stencil(V: PotentialField, shift: float = 0.0, ghost: complex | None = None,
             rows: int | None = None):
    """Diagonal and off-diagonal of the 3-point H_V - shift.

    The diagonal is 2/h^2 + V - shift on nodes 0..rows-1 (every node when
    rows is None) and the off-diagonal -1/h^2.  With ghost, each end row
    of the grid among them eliminates a ghost node u_ghost = ghost *
    u_end, so its diagonal is (2 - ghost)/h^2 + V - shift, complex when
    ghost is.  rows = c + 1 gives the rows of the even block
    (kernels._even_block), with the same expression per entry; node 0 is
    then its one end row.
    """
    h = V.grid.h
    v = V.values[:rows]
    d = 2.0 / h**2 + v
    if shift:
        d -= shift
    if ghost is not None:
        if isinstance(ghost, complex):
            d = d.astype(np.complex128)
        for j in (0, -1) if v.shape[0] == V.grid.n else (0,):
            d[j] = (2.0 - ghost) / h**2 + v[j] - shift
    return d, -1.0 / h**2


def _dirichlet_rows(V: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of H_V on the interior nodes (Dirichlet rows)."""
    d, off = _stencil(V)
    return d[1:-1], np.full(V.grid.n - 3, off)


def _require_finite_field(V: PotentialField, *arrays) -> None:
    """_require_finite(V.values, *arrays), with V's values read off its kept
    PotentialField.finite: they are scanned once per field, not per solve."""
    if not V.finite:
        _require_finite(V.values)
    _require_finite(*arrays)


@dataclass(frozen=True)
class BoundState:
    """Normalized ground-state eigenpair of H_V with Dirichlet rows.

    A state holds only V.  lam, psi and count_negative_eigenvalues come
    from one eigensolve on first read (see solve_ground_state, which reads
    them at once) and are kept; every state of the same V gives the same
    bits, and a V without a negative eigenvalue raises NoBoundState at the
    read.  So a state that is never read (as in an optimizer result) holds
    no grid-length array.

    A V that reads the same reversed (V.mirrored), on a centred grid
    with an odd number of nodes, is solved by parity from the even half of
    the grid (kernels._lowest_eigenpair_by_parity), which agrees with the
    full-grid solve to rounding; every other V is solved on the full grid.
    The odd half is only counted, and a pivot sweep that finds it positive
    definite counts it as 0 without bisecting.
    """

    V: PotentialField

    @cached_property
    def _eigenpair(self) -> tuple[float, np.ndarray, int]:
        V = self.V
        grid = V.grid
        h = grid.h
        d, e = _dirichlet_rows(V)
        if _even_half(V):
            count, lam, v = kernels._lowest_eigenpair_by_parity(d, e)
        else:
            count, lam, v = kernels._lowest_eigenpair(d, e)
        if count == 0:
            raise NoBoundState("H_V has no negative eigenvalue on this grid")
        # psi is 0 on the two end nodes, the only ones whose trapezoid
        # weight is not h, so its trapezoid norm is sqrt(h v.v); the sign
        # puts the peak positive
        scale = 1.0 / math.sqrt(h * (v @ v))
        if v[np.argmax(np.abs(v))] < 0:
            scale = -scale
        psi = np.zeros(V.grid.n)
        np.multiply(v, scale, out=psi[1:-1])
        return lam, psi, count

    @property
    def lam(self) -> float:
        return self._eigenpair[0]

    @property
    def psi(self) -> np.ndarray:
        return self._eigenpair[1]

    @property
    def count_negative_eigenvalues(self) -> int:
        return self._eigenpair[2]


@dataclass(frozen=True)
class ScatteringState:
    """The lattice wave and the transmission coefficient of V at wavenumber k.

    A state holds only k and V and computes nothing when it is built.
    wave, the free lattice wave e^{iqx} from one complex exponential, is
    computed on first read (distorted_plane_waves forms the waves from it,
    and the k-derivative in gamma_gradient reads it too).  t is computed
    on first read, from one support recurrence of V at k (see
    _support_recurrence), or by transmission_table together with a table
    of t(k).  A value is kept once read, and every state of the same
    (k, V) gives the same bits; a recurrence failure raises SolverFailure
    at the read.  So a state whose wave is never read (as in an optimizer
    result) holds no grid-length array.
    """

    k: float
    V: PotentialField

    @cached_property
    def wave(self) -> np.ndarray:
        """The free lattice wave e^{iqx} at the nodes (e^{-iqx} is its conjugate).

        On a centred grid x is exactly odd, so the exponential is taken on
        x >= 0 only and conjugated onto the mirror nodes, with the bits of
        the full exponential.
        """
        grid = self.V.grid
        q = lattice_wavenumber(self.k, grid.h)
        if not grid.centred:
            return np.exp(1j * q * grid.x)
        n, c = grid.n, grid.n // 2  # x[c:] >= 0
        wave = np.empty(n, dtype=np.complex128)
        np.exp(1j * q * grid.x[c:], out=wave[c:])
        np.conjugate(wave[: n - c - 1 : -1], out=wave[:c])
        return wave

    @cached_property
    def t(self) -> complex:
        t, _ = _support_recurrence(self.V, np.array([self.k]))
        return complex(t[0])

    def transmission_table(self, ks: np.ndarray) -> np.ndarray:
        """transmission(self.V, ks) for a 1-D ks, with t read in the same march.

        k rides in the batch of ks, and t is kept from it with the bits of
        its own march (see _support_recurrence): t and the table cost one
        march together.
        """
        ts = transmission(self.V, np.concatenate(([self.k], ks)))
        self.__dict__["t"] = complex(ts[0])  # kept as the cached property keeps it
        return ts[1:]


@dataclass(frozen=True)
class WronskianResult:
    """Zero-energy Wronskian of the half-bound states eta_+- and diagnostics.

    eta_+- are the nodal values of the half-bound states.  w0 is the mean
    over the n-1 cells of eta_+ eta_-' - eta_+' eta_-, variance its spread
    over cells relative to 1 + w0^2 (the 3-point recurrence keeps it the
    same on every cell up to rounding, and it can be exponentially large
    for potentials with tall positive parts); valid is False when the
    relative variance exceeds the tolerance supplied by the caller.
    """

    w0: float
    variance: float
    eta_plus: np.ndarray
    eta_minus: np.ndarray
    valid: bool


def solve_ground_state(V: PotentialField) -> BoundState:
    """Most-negative eigenpair of H_V with Dirichlet rows at the domain ends.

    The eigenvector is normalized to unit L^2 norm under trapezoid
    quadrature and signed so that its peak is positive.  The eigenpair and
    the number of eigenvalues strictly below 0 (for the one-bound-state
    check) come from kernels._lowest_eigenpair on the interior rows: a
    coarse LAPACK bisection of the negative half-line counts the
    eigenvalues and isolates the lowest (bisecting again to full precision
    only when the next one is too close), inverse iteration at that shift
    gives the eigenvector, and one Rayleigh-quotient step brings both to
    rounding.  A mirror-symmetric V is solved on the even half of the grid
    and counted on both halves (see BoundState).  An eigenvalue of exactly
    0 is not counted.  The solve runs here, not on first read:
    NoBoundState is raised by this call.
    """
    bs = BoundState(V)
    bs._eigenpair
    return bs


def has_eigenvalue_at_or_below(V: PotentialField, energy: float) -> bool:
    """Whether H_V with Dirichlet rows has an eigenvalue <= energy.

    Decided without an eigensolve, in up to three steps.  A NaN or inf in
    V raises ValueError first, as the eigensolve does; it is read off V's
    kept PotentialField.finite, so V is scanned once per field, not once
    per call.  Every eigenvalue
    is at least the smallest V on the interior nodes (Gershgorin: each
    row's diagonal 2/h^2 + V_j less its off-diagonal sum 2/h^2), so a
    minimum above energy by more than a few ulps of 2/h^2 + |energy|,
    which covers the rounding of the rows, answers False at once; the
    sweep below would find every pivot above 1/h^2 there.  Otherwise
    H_V - energy is positive definite exactly when it has no such
    eigenvalue, and one LDL^T pivot sweep of its interior rows tells which
    (kernels._positive_definite): of the even block alone
    (kernels._even_block) when V splits by parity (grid._even_half),
    since its lowest eigenvalue is H_V's.  The answer is
    solve_ground_state(V).lam <= energy, up to rounding of an eigenvalue
    at energy.
    """
    _require_finite_field(V)
    margin = 4.0 * np.finfo(float).eps * (2.0 / V.grid.h**2 + abs(energy))
    if float(V.values[1:-1].min()) - energy > margin:
        return False
    if _even_half(V):  # the even block of the interior rows: nodes 1..c
        d, off = _stencil(V, rows=V.grid.n // 2 + 1)
        d, e = _even_block(d[1:], off)
    else:
        d, e = _dirichlet_rows(V)
    return not kernels._positive_definite(d - energy, e)


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


def _robin_system(V: PotentialField, shift: float, ghost: complex, rows: int | None = None):
    """Tridiagonal (dl, d, du) for H_V - shift with Robin rows at the domain ends.

    The ghost value at each end is eliminated through u_ghost = ghost *
    u_end (see _stencil): the outgoing solve's exact discrete outgoing
    relation ghost = e^{iqh}, which a pure outgoing lattice wave satisfies
    exactly, or the reduced resolvent's decay ghost = e^{-kappa h}.  One
    array is both off-diagonals, so the matrix stays symmetric, or complex
    symmetric when ghost is complex.  With rows = c + 1, the system is the
    even block of a mirrored V (kernels._even_block): the Robin row at
    node 0 and the mirror row at x = 0.
    """
    d, off = _stencil(V, shift, ghost, rows)
    if d.shape[0] < V.grid.n:
        d, dl = _even_block(d, off)
    else:
        dl = np.full(V.grid.n - 1, off, dtype=d.dtype)
    return dl, d, dl


def _on_even_half(V: PotentialField, f: np.ndarray) -> bool:
    """Whether the forcing f is on V's even half (c + 1 rows) rather than the full grid (n).

    Any other row count, or c + 1 rows for a V that does not split by
    parity (grid._even_half), raises ValueError.
    """
    n = V.grid.n
    if f.shape[0] == n:
        return False
    if f.shape[0] != n // 2 + 1:
        raise ValueError("forcing length does not match grid")
    if not _even_half(V):
        raise ValueError("an even solve needs a V that reads the same reversed "
                         "on a centred grid of odd n")
    return True


def outgoing_resolvent_solve(V: PotentialField, k: float, f: np.ndarray) -> np.ndarray:
    """Solve (H_V - k^2) u = f with outgoing radiation rows, k real > 0.

    f is one forcing or m of them as the columns of a (rows, m) array,
    with rows n on the full grid or c + 1 on the even half (see the module
    docstring); u has f's shape.  All columns are solved with one LAPACK
    ?gtsv call, and each column of u has the bits of a one-column solve.
    A NaN or inf in V or f raises SolverFailure before the solve: f is
    scanned on every call, V once per field (PotentialField.finite).
    """
    if not k > 0:
        raise ValueError("outgoing solves require real k > 0")
    f = np.asarray(f, dtype=np.complex128)
    even = _on_even_half(V, f)
    h = V.grid.h
    q = lattice_wavenumber(k, h)
    dl, d, du = _robin_system(V, k * k, np.exp(1j * q * h), f.shape[0])
    if even:  # into orthonormal even coordinates, a copy that ?gtsv may work in
        s = _even_scale(f.shape[0])
        f = (f.T * s).T
    try:
        _require_finite_field(V, f)  # k > 0 is resolvable, so d is finite too
        u = _gtsv_solve(dl, d, du, f, scratch=even)
    except (np.linalg.LinAlgError, ValueError) as exc:  # singular A, non-finite input
        raise SolverFailure(f"outgoing solve failed at k={k}: {exc}") from exc
    if even:
        np.divide(u.T, s, out=u.T)
    if not np.isfinite(u).all():
        raise SolverFailure(f"outgoing solve produced non-finite values at k={k}")
    return u


# the diagonal scale of the reduced resolvent's second solve, after an
# exactly zero pivot: 4 ulps
_PIVOT_NUDGE = 1.0 + 4.0 * np.finfo(float).eps


def reduced_resolvent_at_eigenvalue(V: PotentialField, bs: BoundState, f: np.ndarray) -> np.ndarray:
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
    z1 - s z2 (T. F. Chan, SIAM J. Numer. Anal. 21 (1984) 738).  The
    argument holds for any tiny pivot, and on a domain where psi falls
    below rounding before the ends the last pivot is a small multiple of
    an ulp of 2/h^2, which can be exactly zero.  ?gtsv then fails, and
    the solve is made once more with A's diagonal scaled by 1 + 4 eps:
    the pivot moves off zero and u moves by O(eps).  A matrix that is
    singular after that raises SolverFailure.  A solve that meets no zero
    pivot never runs the retry, so its u keeps its bits.

    f and u have n rows on the full grid, or c + 1 on the even half (see
    the module docstring), where psi is even, the decay row sits at node
    0, and the trapezoid pairing of two even arrays is sum_j w_j a_j b_j
    over nodes 0..c of their orthonormal even coordinates.
    """
    grid = V.grid
    f = np.asarray(f, dtype=float)
    even = _on_even_half(V, f)
    rows = f.shape[0]
    lam, psi = bs.lam, bs.psi
    h = grid.h
    w = grid.weights

    # discrete decay rate: 2(cosh(kq h) - 1)/h^2 = -lam, exact for the
    # free lattice mode e^{-kq |x|}
    kq = np.arccosh(1.0 - lam * h * h / 2.0) / h
    dl, d, du = _robin_system(V, lam, np.exp(-kq * h), rows)
    if even:  # in orthonormal even coordinates
        s = _even_scale(rows)
        f, psi, w = f * s, psi[:rows] * s, w[:rows]

    fc = f - (w @ (psi * f)) * psi
    try:
        # d and psi are finite when V is: they are formed from V and its
        # ground state
        _require_finite_field(V, fc)
        rhs = np.column_stack((fc, psi))
        try:
            z = _gtsv_solve(dl, d, du, rhs)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            z = _gtsv_solve(dl, d * _PIVOT_NUDGE, du, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:  # singular A, non-finite input
        raise SolverFailure(f"bordered eigenvalue solve failed: {exc}") from exc
    z1, z2 = z[:, 0], z[:, 1]
    wpsi = w * psi
    u = z1 - ((wpsi @ z1) / (wpsi @ z2)) * z2
    if even:
        u /= s
    if not np.isfinite(u).all():
        raise SolverFailure("bordered eigenvalue solve produced non-finite values")
    return u


def _support_recurrence(V: PotentialField, ks: np.ndarray):
    """t(k) and r(k) of the discrete model for each k of the 1-D array ks.

    The march runs leftward over the rows jl..jr where V != 0, from the
    transmitted lattice wave u = e^{iq(x - x_jr)} at nodes jr, jr+1, in
    difference form (d_j = u_{j+1} - u_j):

        d_{j-1} = d_j - h^2 (V_j - k^2) u_j,    u_{j-1} = u_j - d_{j-1}.

    Rows outside jl..jr are free, so u = A e^{iqx} + B e^{-iqx} at nodes
    jl-1, jl (ghost nodes when the support touches a domain end), and
    t = 1/A, r = B/A.  The march itself is kernels._support_march: per k,
    a banded BLAS ?tbsv solve in blocks of rows, renormalized by a power
    of two at each block end.  The blocks are cut where a growth bound
    that holds for every k of the batch, 2 + (h k_max)^2 + h^2 |V_j| per
    row, passes a multiple of kernels._BLOCK_BITS, so the cuts depend on
    V and the batch's largest k.  Every row is formed inside the BLAS
    solve by the same floating-point expressions wherever a block starts,
    and power-of-two scaling is exact, so t and r do not depend on the
    cuts: each k gives the same bits alone or in a batch.  Here the march's
    end state is matched to the lattice waves.
    """
    h = V.grid.h
    s = 0.5 * h * ks
    if not (np.all(ks > 0.0) and np.all(s < 1.0)):
        raise ValueError(f"k must satisfy 0 < k < 2/h = {2.0 / h:g}")
    v = np.asarray(V.values)
    try:
        _require_finite_field(V)
    except ValueError as exc:
        raise SolverFailure(f"transmission recurrence failed: {exc}") from exc
    t = np.ones(ks.shape, dtype=np.complex128)
    r = np.zeros(ks.shape, dtype=np.complex128)
    rows = np.flatnonzero(v)
    if rows.size == 0 or ks.size == 0:
        return t, r
    jl, jr = int(rows[0]), int(rows[-1])
    m = jr - jl + 1
    hv = h * h * v[jl : jr + 1][::-1]  # row i of the march is node jr - i
    x_a = 0.5 * (V.grid.x_min + V.grid.x_max) + h * (jl - 1 - (V.grid.n - 1) / 2.0)
    ks, s = ks.tolist(), s.tolist()
    w = [complex(math.sqrt(1.0 - sk * sk), sk) for sk in s]  # e^{iqh/2}
    # the transmitted wave at nodes jr, jr+1: u = 1, d = e^{iqh} - 1
    d0 = [2j * sk * wk for sk, wk in zip(s, w)]
    d, u, scale = kernels._support_march(hv, [(h * k) ** 2 for k in ks], d0)
    for i, (k, sk, wk, dk, uk, ek) in enumerate(zip(ks, s, w, d, u, scale)):
        p = dk + 2j * sk * wk.conjugate() * uk  # A e^{iqx_a}, times 2i sin(qh)
        if not cmath.isfinite(p):
            raise SolverFailure(f"transmission recurrence overflowed at k={k}")
        qh = 2.0 * math.asin(sk)
        z = cmath.exp(-1j * qh * m) * (4j * sk * wk.real) / p
        t[i] = complex(math.ldexp(z.real, -ek), math.ldexp(z.imag, -ek))
        r[i] = (2j * sk * wk * uk - dk) / p * cmath.exp(2j * (qh / h) * x_a)
    return t, r


def transmission(V: PotentialField, k):
    """Transmission coefficient t(k), as in ScatteringState(k, V).t.

    k is a scalar (a complex is returned) or a 1-D array (an array).  t is
    read off one recurrence over the support (see _support_recurrence),
    marched from the transmitted side toward the incident one, where the
    wave grows, rather than off the transmitted tail of an outgoing solve,
    which cancels to round-off once |t| is far below 1 (see the module
    docstring).  t keeps its relative accuracy down to the float64 range
    and underflows to 0 beyond it.  All k of an array share one march,
    whose blocks are cut by a bound on the largest k; the cuts move only
    exact power-of-two rescalings, so each t has the bits of a scalar
    call.  An empty array gives an empty t.  k <= 0, or k h / 2 >= 1,
    raises ValueError; a NaN or inf in V raises SolverFailure.
    """
    ks = np.asarray(k, dtype=float)
    t, _ = _support_recurrence(V, ks.reshape(-1))
    return complex(t[0]) if ks.ndim == 0 else t.reshape(ks.shape)


def distorted_plane_waves(st: ScatteringState, source=None):
    """(waves, response): the distorted plane waves of st.V at st.k, from one outgoing solve.

    phi_+- solves (H_V - k^2) phi = V e^{+-iqx} with outgoing rows and
    e_+- = e^{+-iqx} - phi_+-, and waves is (e_+, e_-) on all n nodes,
    from one solve with two right-hand sides.  A source, if given, rides
    as the last column of the same solve, and response is R(k)[source],
    or None without one.  Each column has the bits of its one-column
    solve.

    A source of c + 1 rows is on the even half (see the module
    docstring): waves is then (e_even,) on nodes 0..c, e_even = (e_+ +
    e_-)/2 = cos(qx) - R(k)[V cos(qx)], from the forcing V cos(qx), cos(qx)
    being the real part of the lattice wave, and the response is on nodes
    0..c too.  e_even agrees with the half sum of the full-grid e_+- to
    rounding, not bitwise.  Any other row count raises ValueError
    (_on_even_half) before a column is formed.

    Every wave is formed in its column of the solution, the response is
    the last, and one array holds them all.  A half-grid complex array of
    its own, 16(c + 1) = 8n + 8 bytes, is one allocator granule larger
    than a full-grid real one; made on every evaluation, such arrays leave
    heap holes that the full-grid arrays cannot reuse, and a process that
    keeps many results grows with them.
    """
    V = st.V
    even = source is not None and _on_even_half(V, np.asarray(source))
    rows = V.grid.n // 2 + 1 if even else V.grid.n
    wave = st.wave[:rows]
    free = (wave.real,) if even else (wave, np.conj(wave))
    f = np.empty((rows, len(free) + (source is not None)), dtype=np.complex128, order="F")
    for j, w in enumerate(free):
        np.multiply(V.values[:rows], w, out=f[:, j])
    if source is not None:
        f[:, -1] = source
    phi = outgoing_resolvent_solve(V, st.k, f)
    for j, w in enumerate(free):
        np.subtract(w, phi[:, j], out=phi[:, j])
    waves = tuple(phi[:, j] for j in range(len(free)))
    return waves, (None if source is None else phi[:, -1])


def wronskian_at_zero(V: PotentialField, tol: float = 1e-8) -> WronskianResult:
    """Zero-energy Wronskian W_V(0) of the half-bound states.

    eta_+ is marched in from the right end (eta=1, eta'=0 there, where V
    vanishes), eta_- from the left, both by H_V's own 3-point recurrence
    (kernels.march_half_bound), the one that gives lambda, k, e_+- and
    t(k).  The Wronskian is formed on every cell j between nodes j and
    j+1, with eta' the cell's difference quotient: eta_+ eta_-' - eta_+'
    eta_- there is the Casoratian (eta_+_j eta_-_{j+1} - eta_+_{j+1}
    eta_-_j)/h, which the recurrence conserves in exact arithmetic.  W is
    averaged over cells; the variance over cells is the rounding
    self-check.
    """
    v = np.asarray(V.values, dtype=float)
    h = V.grid.h
    # across tall barriers eta and W pass the float range: the march then
    # returns inf or NaN, W is not finite, and the result is invalid
    with np.errstate(over="ignore", invalid="ignore"):
        eta_p, deta_p = kernels.march_half_bound(v, h, True)
        eta_m, deta_m = kernels.march_half_bound(v, h, False)
        W = eta_p[:-1] * deta_m - deta_p * eta_m[:-1]
        if not np.isfinite(W).all():
            return WronskianResult(
                w0=np.nan, variance=np.inf, eta_plus=eta_p, eta_minus=eta_m, valid=False
            )
        # np.mean's pairwise sum over the same count, without its call cost
        w0 = float(W.sum()) / W.size
        scale = math.sqrt(1.0 + w0 * w0)  # W grows exponentially with integral sqrt(V_+)
        variance = float((((W - w0) / scale) ** 2).sum()) / W.size
    valid = math.isfinite(variance) and variance <= tol
    return WronskianResult(
        w0=w0, variance=variance, eta_plus=eta_p, eta_minus=eta_m, valid=valid
    )
