"""Fermi-golden-rule decay rate of the forced bound state and its gradients.

The rate is

    Gamma[V] = (1/16k) sum_{+-} |<beta psi, e_{V+-}(.,k)>|^2,
    k = sqrt(lambda_V + mu),

with psi the normalized ground state of H_V at energy lambda_V and e_{V+-}
the distorted plane waves at the resonant wavenumber.  Each gradient is
the Riesz representative with respect to the L^2 pairing,

    d/deps F[V + eps w] |_0  =  integral g w dx  (trapezoid rule),

as a plain array with a value on every node.  The optimizer restricts it
to the support [-a, a], its design space, and applies the quadrature
weights.  Each gradient takes the solved state of V that it
differentiates: lambda_gradient a BoundState, wronskian_gradient a
WronskianResult and k_gradient an FgrResult; gamma_gradient takes an
FgrResult too, and gets one from gamma when given none.

gamma makes the one complex solve of Gamma and its gradient: the outgoing
matrix at k_res is factored once for e_+- and R(k_res)[beta psi], which
the result keeps for gamma_gradient.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceBelowCutoff, SolverFailure
from .grid import BetaMode, DesignParams, PotentialField, trapz
from .spectral import (
    BoundState,
    ScatteringState,
    WronskianResult,
    distorted_plane_waves,
    has_eigenvalue_at_or_below,
    lattice_wavenumber,
    outgoing_resolvent_solve,
    reduced_resolvent_at_eigenvalue,
    solve_ground_state,
)

__all__ = [
    "FgrResult",
    "gamma",
    "gamma_jost_form",
    "gamma_gradient",
    "lambda_gradient",
    "k_gradient",
    "wronskian_gradient",
    "clear_cache",
]


@dataclass(frozen=True)
class FgrResult:
    """Decay rate together with the spectral data used to form it.

    source_response is R(k_res)[beta psi], the outgoing response to the
    golden-rule source, solved with e_+- for gamma_gradient; it is None in
    a result that keeps no grid-length array, and gamma_gradient then
    solves for it.
    """

    gamma: float
    k_res: float
    m_plus: complex
    m_minus: complex
    bound_state: BoundState
    scattering: ScatteringState
    source_response: np.ndarray | None = None

    def diagnostics(self) -> dict:
        """Scalar summary for run manifests."""
        return {
            "gamma": self.gamma,
            "k_res": self.k_res,
            "lambda": self.bound_state.lam,
            "t_sq_at_k_res": abs(self.scattering.t) ** 2,
            "m_plus_sq": abs(self.m_plus) ** 2,
            "m_minus_sq": abs(self.m_minus) ** 2,
        }


# The last point gamma solved, as (V, params, result).  It serves the
# repeats of the last point that still occur: the optimizer's
# re-evaluation of its current point at each new tau stage, the start Gamma
# that pdp optimize prints before optimizing from the same potential, and
# gamma_gradient called without a result, and gamma_jost_form.
# It stays only while benchmark workloads call clear_cache.
_last: tuple[PotentialField, DesignParams, FgrResult] | None = None


def clear_cache() -> None:
    """Forget the kept result, so that the next gamma call solves."""
    global _last
    _last = None


def gamma(V: PotentialField, params: DesignParams) -> FgrResult:
    """Gamma[V] via the distorted-plane-wave form.

    Raises:
        ResonanceBelowCutoff: lambda_V + mu <= 0, no continuum channel at
            the forcing frequency.  One pivot sweep of H_V + mu
            (spectral.has_eigenvalue_at_or_below) rejects such a V before
            the eigensolve, with a message that quotes mu, not lambda;
            lambda + mu is checked again after the eigensolve, for an
            eigenvalue within rounding of -mu.
        NoBoundState: H_V has no negative eigenvalue.
        SolverFailure: k h / 2 >= 1, the resonance lies above the
            lattice's highest wavenumber, so the grid cannot carry the
            outgoing wave.
        ValueError: a NaN or inf in V.

    A repeat of the last point solved, with params the same object and V
    on the same grid and support with equal values, returns that point's
    result without solving.
    """
    global _last
    if _last is not None:
        W, p, res = _last
        if (
            p is params
            and W.grid == V.grid
            and W.support_halfwidth == V.support_halfwidth
            and np.array_equal(W.values, V.values)
        ):
            return res
    if has_eigenvalue_at_or_below(V, -params.mu):
        raise ResonanceBelowCutoff(
            f"H_V has an eigenvalue at or below -mu = {-params.mu:.6g}: "
            "forced state below the continuum"
        )
    bs = solve_ground_state(V)
    ksq = bs.lam + params.mu
    if ksq <= 0.0:
        raise ResonanceBelowCutoff(
            f"lambda + mu = {ksq:.6g} <= 0: forced state below the continuum"
        )
    k = float(np.sqrt(ksq))
    if 0.5 * k * V.grid.h >= 1.0:
        raise SolverFailure(
            f"resonance k = {k:.6g} is above the lattice cutoff 2/h = "
            f"{2.0 / V.grid.h:.6g} (h = {V.grid.h:.6g}): refine the grid"
        )
    src = params.beta_values(V) * bs.psi
    st, rbp = distorted_plane_waves(V, k, src)
    m_p = complex(trapz(V.grid, src * st.e_plus))
    m_m = complex(trapz(V.grid, src * st.e_minus))
    rate = (abs(m_p) ** 2 + abs(m_m) ** 2) / (16.0 * k)
    res = FgrResult(
        gamma=rate,
        k_res=k,
        m_plus=m_p,
        m_minus=m_m,
        bound_state=bs,
        scattering=st,
        source_response=rbp,
    )
    _last = (V, params, res)
    return res


def gamma_jost_form(V: PotentialField, params: DesignParams) -> float:
    """Gamma[V] via the Jost-normalized waves f_{+-} = e_{+-}/t.

    Algebraically identical to gamma; kept as an independent assembly path
    for cross-checking the transmission normalization.  When t(k_res)
    underflows to 0 (an opaque potential) f_{+-} is not representable and
    SolverFailure is raised.
    """
    res = gamma(V, params)
    st = res.scattering
    if st.t == 0.0:
        raise SolverFailure(
            f"t underflows to 0 at k = {res.k_res}: e/t is not representable"
        )
    src = params.beta_values(V) * res.bound_state.psi
    f_p = st.e_plus / st.t
    f_m = st.e_minus / st.t
    s = abs(trapz(V.grid, src * f_p)) ** 2 + abs(trapz(V.grid, src * f_m)) ** 2
    return abs(st.t) ** 2 * s / (16.0 * res.k_res)


def lambda_gradient(bs: BoundState) -> np.ndarray:
    """Riesz field of the ground-state energy: psi^2 (Rayleigh-Schrodinger).

    bs is the ground state of V, as solve_ground_state gives it.
    """
    return bs.psi * bs.psi


def k_gradient(res: FgrResult) -> np.ndarray:
    """Riesz field of the resonant wavenumber k = sqrt(lambda + mu).

    res is the decay rate of V, as gamma gives it.
    """
    return res.bound_state.psi ** 2 / (2.0 * res.k_res)


def wronskian_gradient(wr: WronskianResult) -> np.ndarray:
    """Riesz field of the zero-energy Wronskian: eta_+ eta_-.

    wr is the Wronskian of V, as spectral.wronskian_at_zero gives it: the
    Casoratian W of the two half-bound solutions of H_V's 3-point
    recurrence (eta_+ normalized at the right end, eta_- at the left).  By
    discrete variation of parameters (summation by parts of the stencil
    against eta_+ on one side of a cell and eta_- on the other),
    perturbing V by w changes W by sum_j h eta_+_j eta_-_j w_j over the
    inner nodes, exactly to first order.  So eta_+ eta_- is the exact
    Riesz field of the discrete W under the trapezoid pairing, not an
    O(h^2) approximation of it; only the two end nodes, which the
    recurrence does not read and which lie off every support, differ.
    """
    return wr.eta_plus * wr.eta_minus


def _wave_k_pairings(
    V: PotentialField, st: ScatteringState, src: np.ndarray, rbp: np.ndarray
) -> tuple[complex, complex]:
    """c_+- = trapz(src de_+-/dk) at fixed V, from rbp = R(k)[src].

    With w = e^{+-iqx}, e = w - phi and A phi = V w (A = H_V - k^2 with
    outgoing rows, see spectral._outgoing_system), differentiating the
    assembled system gives de/dk = dw - A^-1 r with r = V dw - (dA/dk) phi;
    dA/dk is -2k on the diagonal plus g = -i q' e^{iqh}/h on the two end
    rows (the k-dependence of the ghost factor), and q' = dq/dk.  The
    solve A^-1 r is not needed: src = beta psi is 0 on the two end nodes,
    the only ones whose trapezoid weight is not h, so trapz(src u) =
    h src^T u exactly; and A = A^T, so src^T A^-1 r = (A^-1 src)^T r =
    rbp^T r (reverse mode, Griewank & Walther, Evaluating Derivatives 2e
    (2008), ch. 3).  Hence

        c = h ((src - V rbp)^T dw - 2k rbp^T phi + g (rbp phi)_{ends}).
    """
    grid = V.grid
    h, k = grid.h, st.k
    qp = 1.0 / math.sqrt(1.0 - (0.5 * k * h) ** 2)
    ghost = -1j * qp * cmath.exp(1j * lattice_wavenumber(k, h) * h) / h
    # dw_+- = +-i q' x w_+-, and w_- is the conjugate of w_+
    ax = (src - V.values * rbp) * grid.x
    out = []
    for sign, w, e in ((1j, st.wave, st.e_plus), (-1j, np.conj(st.wave), st.e_minus)):
        phi = w - e
        ends = rbp[0] * phi[0] + rbp[-1] * phi[-1]
        out.append(h * (sign * qp * (ax @ w) - 2.0 * k * (rbp @ phi) + ghost * ends))
    return complex(out[0]), complex(out[1])


def gamma_gradient(
    V: PotentialField, params: DesignParams, res: FgrResult | None = None
) -> np.ndarray:
    """Riesz field of Gamma[V], res the decay rate of V as gamma gives it.

    Assembles the four first-order responses: the eigenvector shift through
    the reduced resolvent at lambda, the explicit potential dependence of
    the scattering waves through the outgoing resolvent at k, the shift of
    the resonant wavenumber (prefactor and wave dephasing), and - when the
    forcing profile is the potential itself - the direct beta = V term.

    Gamma and its gradient together make one complex solve, the
    three-column outgoing solve in gamma for e_+- and rbp = R(k)[beta
    psi] (res.source_response; solved here when res keeps none), plus one
    real reduced-resolvent solve here.  rbp serves both the explicit wave
    term and the k-derivative of the waves:
    A = H_V - k^2 with outgoing rows is complex symmetric, so the pairings
    of beta psi with de_+-/dk follow from rbp by dot products (the adjoint
    identity, see _wave_k_pairings).  Its weight h is exact, not a
    quadrature approximation, because psi is 0 on the two end nodes, the
    only nodes whose trapezoid weight is not h.
    """
    if res is None:
        res = gamma(V, params)
    bs, st = res.bound_state, res.scattering
    psi, k = bs.psi, res.k_res
    beta = params.beta_values(V)
    src = beta * psi
    pref = 1.0 / (8.0 * k)

    # field paired against the (real) eigenvector and beta shifts
    resp = np.real(np.conj(res.m_plus) * st.e_plus + np.conj(res.m_minus) * st.e_minus)

    # d psi: psi' = -Rtilde P_c[w psi], moved onto the data by symmetry
    g_psi = -pref * psi * reduced_resolvent_at_eigenvalue(V, bs, beta * resp)

    # explicit dependence of e_+- on V: de = -R(k)[w e]
    rbp = res.source_response
    if rbp is None:
        rbp = outgoing_resolvent_solve(V, k, src)
    g_wave = -pref * np.real(
        np.conj(res.m_plus) * st.e_plus * rbp
        + np.conj(res.m_minus) * st.e_minus * rbp
    )

    # k shift: prefactor 1/16k and the k-dependence of the waves
    c_p, c_m = _wave_k_pairings(V, st, src, rbp)
    dk_coef = pref * np.real(np.conj(res.m_plus) * c_p + np.conj(res.m_minus) * c_m)
    dk_coef -= res.gamma / k
    g_k = dk_coef * psi * psi / (2.0 * k)

    g = g_psi + g_wave + g_k
    if params.beta_mode is BetaMode.EQUALS_V:
        g = g + pref * psi * resp
    return g
