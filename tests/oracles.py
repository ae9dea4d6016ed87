"""Independent numerical oracles used by the test suite.

Everything here but hamiltonian_apply deliberately avoids the package's
own discretization: scattering amplitudes come from adaptive ODE
integration of the continuum equation, bound-state energies from bisection
on analytic matching conditions, and the zero-energy Wronskian from
high-order shooting.  hamiltonian_apply forms the residuals of the
package's discrete solves by applying the 3-point stencil of H_V directly,
not through any solver.
"""
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


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
