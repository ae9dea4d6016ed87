"""Independent numerical oracles used by the test suite.

Everything here but hamiltonian_apply, lattice_barrier_transmission and
scattering_k_derivative deliberately avoids the package's own
discretization: scattering amplitudes come from adaptive ODE integration
of the continuum equation, bound-state energies from bisection on
analytic matching conditions, and the zero-energy Wronskian from
high-order shooting.  hamiltonian_apply forms
the residuals of the package's discrete solves by applying the 3-point
stencil of H_V directly, not through any solver.
lattice_barrier_transmission is the closed form of the 3-point model
itself for a flat barrier, so it checks the package's t(k) to rounding
rather than to O(h^2).  march_half_bound_loop is the package's
zero-energy 3-point recurrence of H_V written as a plain loop, one node
per step; it checks the banded solve of the same recurrence to rounding.
square_well samples the square well onto a package grid, with the mean
value on nodes that land on a jump.  scattering_k_derivative
differentiates the package's assembled outgoing system in k (forward
mode, two tangent solves); it checks the Gamma gradient's adjoint k-term,
which needs no solve of its own, to rounding.  mp_gamma solves the
package's whole discrete problem (eigenpair, outgoing waves, Gamma) in
mpmath at 40 digits, from plain loops, so it bounds the package's
rounding error rather than checking float64 against float64.
"""
import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from pdp.grid import PotentialField
from pdp.spectral import _robin_system, lattice_wavenumber


def square_well(depth, halfwidth, a, grid):
    """Square well -depth on |x| <= halfwidth, zero outside, support [-a, a].

    Nodes that land exactly on the jump get the mean value -depth/2, which
    restores second-order accuracy of the 3-point stencil across the
    discontinuity.
    """
    x = grid.x
    v = np.where(np.abs(x) <= halfwidth, -depth, 0.0)
    v[np.isclose(np.abs(x), halfwidth, rtol=0.0, atol=1e-12 * max(1.0, halfwidth))] = -0.5 * depth
    v[np.abs(x) > a] = 0.0
    return PotentialField(grid, v, a)


def scattering_amplitudes(v_func, a, k, rtol=1e-11):
    """(t, r) for u'' = (V - k^2) u by integrating from the transmitted side.

    Sets u = e^{ikx} for x >= a and decomposes u at x = -a into incoming
    and reflected waves; the physical amplitudes follow by normalizing the
    incident wave to 1.
    """

    def rhs(x, y):
        return [y[1], (v_func(x) - k * k) * y[0]]

    y0 = [np.exp(1j * k * a), 1j * k * np.exp(1j * k * a)]
    sol = solve_ivp(rhs, [a, -a], y0, rtol=rtol, atol=1e-13)
    u, du = sol.y[0][-1], sol.y[1][-1]
    # u(-a) = A e^{-ika} + B e^{ika} with A the incident amplitude
    em = np.exp(-1j * k * a)
    A = 0.5 * (u + du / (1j * k)) / em
    B = 0.5 * (u - du / (1j * k)) * em
    return 1.0 / A, B / A


def square_well_transmission(V0, w, k):
    """Closed-form t(k) for the well -V0 on [-w, w] (two-interface matching)."""
    kp = np.sqrt(k * k + V0)
    return np.exp(-2j * k * w) / (
        np.cos(2 * kp * w) - 0.5j * (k * k + kp * kp) / (k * kp) * np.sin(2 * kp * w)
    )


def lattice_barrier_transmission(V0, m, h, k):
    """t(k) of the 3-point model for V = V0 on m consecutive nodes, 0 elsewhere.

    On the barrier rows u_{j-1} = 2x u_j - u_{j+1} with
    x = cosh(theta) = 1 + h^2 (V0 - k^2)/2, so the m rows act on
    (u_j, u_{j+1}) as the m-th power of T = [[2x, -1], [1, 0]], which is
    [[U_m, -U_{m-1}], [U_{m-1}, -U_{m-2}]] in the Chebyshev polynomials
    U_n(x) = sinh((n+1) theta)/sinh(theta).  Matching the transmitted
    lattice wave e^{iqx} on one side and e^{iqx} + r e^{-iqx} on the other
    (2 - 2cos(qh) = h^2 k^2) gives

        1/t = e^{iqhm} (U_{m-1} (1 - x e^{-iqh}) / (i sin(qh)) - U_{m-2}).

    theta = 2 asinh(sqrt(c)/2), c = h^2 (V0 - k^2), keeps theta accurate
    for small c; it is complex (oscillating rows) when V0 < k^2, and its
    real part is >= 0.  The U_n are evaluated as e^{(n+1) theta}
    (1 - e^{-2(n+1) theta}) / (2 sinh theta) with the common factor
    e^{m theta} divided out, so nothing overflows when m Re(theta) is past
    the float64 range of e^{m theta}; t then underflows as it should.
    """
    c = h * h * (V0 - k * k)
    theta = 2.0 * np.arcsinh(np.sqrt(complex(c)) / 2.0)
    qh = 2.0 * np.arcsin(0.5 * k * h)
    sh = np.sinh(theta)
    # 1 - x e^{-iqh} without forming x: 1 - e^{-iqh} = 2i sin(qh/2) e^{-iqh/2}
    one_minus = 2j * np.sin(0.5 * qh) * np.exp(-0.5j * qh) - 0.5 * c * np.exp(-1j * qh)

    def u_scaled(n):  # U_n(x) e^{-m theta}
        return np.exp((n + 1 - m) * theta) * -np.expm1(-2.0 * (n + 1) * theta) / (2.0 * sh)

    inv_t_scaled = np.exp(1j * qh * m) * (
        u_scaled(m - 1) * one_minus / (1j * np.sin(qh)) - u_scaled(m - 2)
    )
    # t = e^{-m theta} / inv_t_scaled
    return np.exp(-m * theta - np.log(inv_t_scaled))


def square_well_ground_energy(V0, w):
    """Most-negative eigenvalue of the well -V0 on [-w, w].

    Bisection on the even-mode matching condition
    sqrt(V0-|lam|) tan(w sqrt(V0-|lam|)) = sqrt(|lam|).
    """

    def f(lam):
        q = np.sqrt(V0 + lam)  # lam negative
        return q * np.tan(w * q) - np.sqrt(-lam)

    # ground state: w*q in (0, pi/2)
    lo = -V0 + 1e-12
    hi = min(-1e-12, -V0 + (np.pi / (2 * w)) ** 2 - 1e-9)
    return brentq(f, lo, hi, xtol=1e-13)


def wronskian_shooting(v_func, a, breakpoints=(), rtol=1e-12):
    """W(0) = eta_+ eta_-' - eta_+' eta_- by adaptive shooting.

    Integrates eta'' = V eta from each flat end; breakpoints split the
    integration at discontinuities of V so the integrator never steps
    across a jump.
    """

    def rhs(x, y):
        return [y[1], v_func(x) * y[0]]

    def march(x0, x1):
        pts = sorted({x0, x1, *[b for b in breakpoints if min(x0, x1) < b < max(x0, x1)]})
        if x0 > x1:
            pts = pts[::-1]
        y = [1.0, 0.0]
        for lo, hi in zip(pts[:-1], pts[1:]):
            sol = solve_ivp(rhs, [lo, hi], y, rtol=rtol, atol=1e-14)
            y = [sol.y[0][-1], sol.y[1][-1]]
        return y

    ep, dep = march(a, 0.0)
    em, dem = march(-a, 0.0)
    return ep * dem - dep * em


def march_half_bound_loop(v, h, from_right):
    """March the zero-energy solution -eta'' + V eta = 0 across the grid.

    H_V's 3-point recurrence in difference form, one node per step:
    d_j = d_{j-1} + h^2 v_j eta_j and eta_{j+1} = eta_j + d_j, from
    eta = 1, d = 0 at the starting end, where the potential vanishes.
    Returns eta at every node and eta' = d/h on every cell, both in the
    direction of x.
    """
    n = v.shape[0]
    vm = v[::-1] if from_right else v
    eta = np.empty(n)
    d = np.empty(n - 1)
    eta[0], eta[1], d[0] = 1.0, 1.0, 0.0
    for j in range(1, n - 1):
        d[j] = d[j - 1] + h * h * vm[j] * eta[j]
        eta[j + 1] = eta[j] + d[j]
    if from_right:
        return eta[::-1], -d[::-1] / h
    return eta, d / h


def pt_ground_state(x):
    """Normalized ground state of -2 sech^2: psi = sech(x)/sqrt(2), lam = -1."""
    return -1.0, (1.0 / np.sqrt(2.0)) / np.cosh(x)


def hamiltonian_apply(V, u):
    """Apply the 3-point discretization of H_V to u.

    Interior rows only are meaningful; the endpoint rows use a zero ghost
    value, matching Dirichlet callers.  Raises on length mismatch.
    """
    u = np.asarray(u)
    if u.shape[0] != V.grid.n:
        raise ValueError("vector length does not match grid")
    h2 = V.grid.h**2
    out = np.empty_like(u, dtype=np.result_type(u, float))
    out[1:-1] = (-u[:-2] + 2.0 * u[1:-1] - u[2:]) / h2
    out[0] = (2.0 * u[0] - u[1]) / h2
    out[-1] = (2.0 * u[-1] - u[-2]) / h2
    return out + V.values * u


def scattering_k_derivative(V, k, waves):
    """d e_{V+-}/dk at fixed V, by differentiating the discrete system.

    waves are the package's full-grid distorted plane waves (e_+, e_-) of
    V at k, as spectral.distorted_plane_waves gives them.  Both the
    forcing phases and the radiation rows depend on k through the lattice
    wavenumber q(k); the assembled tridiagonal system A phi = V w (with
    e = w - phi, w = e^{+-iqx}) is differentiated, and the two tangent
    systems A dphi = V dw - (dA/dk) phi are solved (forward mode).
    """
    grid = V.grid
    h, x = grid.h, grid.x
    q = lattice_wavenumber(k, h)
    qp = 1.0 / np.sqrt(1.0 - (0.5 * k * h) ** 2)  # dq/dk
    wave_p = np.exp(1j * q * x)
    wave_m = np.conj(wave_p)
    dwave_p = 1j * x * qp * wave_p
    dwave_m = -1j * x * qp * wave_m
    dl, d, du = _robin_system(V, k * k, np.exp(1j * q * h))
    # dA/dk: -2k on the diagonal, plus the ghost factor at the end rows
    dd = np.full(grid.n, -2.0 * k, dtype=np.complex128)
    ghost = -1j * qp * np.exp(1j * q * h) / h
    dd[0] += ghost
    dd[-1] += ghost
    ab = np.zeros((3, grid.n), dtype=np.complex128)
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    vk = np.asarray(V.values)
    out = []
    e_p, e_m = waves
    for phi, dwave in ((wave_p - e_p, dwave_p), (wave_m - e_m, dwave_m)):
        out.append(dwave - solve_banded((1, 1), ab, vk * dwave - dd * phi))
    return out[0], out[1]


def _mp_sturm_count(diag, off2, sigma):
    """Eigenvalues below sigma of the symmetric tridiagonal (diag, off), off2 = off^2.

    The number of negative pivots of the LDL^T factors of the matrix less
    sigma (Sylvester's law of inertia); a zero pivot is moved to the
    smallest positive number of the working precision.
    """
    count, pivot = 0, None
    for d in diag:
        pivot = d - sigma if pivot is None else d - sigma - off2 / pivot
        if pivot == 0:
            pivot = mpmath.eps ** 2
        count += pivot < 0
    return count


def _mp_tridiagonal_solve(diag, off, rhs):
    """x with T x = rhs, T tridiagonal with diagonal diag and each off-diagonal off.

    Gaussian elimination without pivoting (the Thomas algorithm), real or
    complex, in the working precision.
    """
    n = len(diag)
    piv, y = [diag[0]], [rhs[0]]
    for j in range(1, n):
        ratio = off / piv[j - 1]
        piv.append(diag[j] - ratio * off)
        y.append(rhs[j] - ratio * y[j - 1])
    x = [None] * n
    x[-1] = y[-1] / piv[-1]
    for j in range(n - 2, -1, -1):
        x[j] = (y[j] - off * x[j + 1]) / piv[j]
    return x


def mp_gamma(V, params, dps=40):
    """(Gamma, lambda, m_+, m_-) of the package's discrete problem, to dps digits.

    V's float64 node values, beta's (params.beta_values), h, mu and the
    grid's ends are taken as exact inputs, and every step is made in
    mpmath at dps digits on all n nodes, whether or not V is mirrored:

    - lambda is bisected on the Sturm count of H_V's interior (Dirichlet)
      rows, 2/h^2 + V_j on the diagonal and -1/h^2 off it, from
      Gershgorin's lower bound min V to 0, down to a few ulps;
    - psi is four steps of inverse iteration at lambda - 10^-(dps/2) from
      a vector of ones, zero at the two end nodes, normalized under the
      trapezoid rule and signed so that its peak is positive;
    - k = sqrt(lambda + mu), q = 2 asin(k h / 2) / h, and the outgoing
      system H_V - k^2 on all n nodes eliminates the ghost node at each
      end as u_ghost = e^{iqh} u_end; e_+- = e^{+-iqx} - phi_+- with
      (H_V - k^2) phi_+- = V e^{+-iqx}, on the nodes
      x_j = (x_min + x_max)/2 + (j - (n - 1)/2) h;
    - m_+- = sum_j w_j beta_j psi_j e_+-_j with trapezoid weights w, and
      Gamma = (|m_+|^2 + |m_-|^2) / (16 k).

    Raises ValueError when H_V has no eigenvalue below 0 or lambda + mu
    is not positive.
    """
    with mpmath.workdps(dps):
        grid = V.grid
        n = grid.n
        h = mpmath.mpf(grid.h)
        v = [mpmath.mpf(x) for x in V.values.tolist()]
        beta = [mpmath.mpf(b) for b in params.beta_values(V).tolist()]
        off = -1 / h**2

        # the ground state on the interior rows 1..n-2
        diag = [2 / h**2 + vj for vj in v[1:-1]]
        lo, hi = min(v[1:-1]), mpmath.mpf(0)
        if _mp_sturm_count(diag, off**2, hi) == 0:
            raise ValueError("H_V has no eigenvalue below 0")
        while hi - lo > 4 * mpmath.eps * max(abs(lo), abs(hi)):
            mid = (lo + hi) / 2
            if _mp_sturm_count(diag, off**2, mid) >= 1:
                hi = mid
            else:
                lo = mid
        lam = (lo + hi) / 2
        shift = lam - mpmath.mpf(10) ** (-(dps // 2))
        shifted = [d - shift for d in diag]
        u = [mpmath.mpf(1)] * (n - 2)
        for _ in range(4):
            u = _mp_tridiagonal_solve(shifted, off, u)
            top = max(u, key=abs)
            u = [x / top for x in u]
        psi = [mpmath.mpf(0), *u, mpmath.mpf(0)]
        w = [h] * n
        w[0] = w[-1] = h / 2
        norm = mpmath.sqrt(mpmath.fsum(wj * p * p for wj, p in zip(w, psi)))
        psi = [p / norm for p in psi]

        # the distorted plane waves at k
        if lam + params.mu <= 0:
            raise ValueError(f"lambda + mu = {lam + params.mu} is not positive")
        k = mpmath.sqrt(lam + params.mu)
        q = 2 * mpmath.asin(k * h / 2) / h
        ghost = mpmath.expj(q * h)
        outgoing = [2 / h**2 + vj - k**2 for vj in v]
        for j in (0, -1):
            outgoing[j] = (2 - ghost) / h**2 + v[j] - k**2
        centre = (mpmath.mpf(grid.x_min) + mpmath.mpf(grid.x_max)) / 2
        m = []
        for sign in (1, -1):
            wave = [mpmath.expj(sign * q * (centre + (j - mpmath.mpf(n - 1) / 2) * h))
                    for j in range(n)]
            phi = _mp_tridiagonal_solve(outgoing, off, [vj * e for vj, e in zip(v, wave)])
            m.append(mpmath.fsum(
                wj * bj * pj * (e - f) for wj, bj, pj, e, f in zip(w, beta, psi, wave, phi)
            ))
        rate = (abs(m[0]) ** 2 + abs(m[1]) ** 2) / (16 * k)
        return rate, lam, m[0], m[1]
