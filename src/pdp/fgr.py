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

When V and beta read the same reversed, bit for bit, on a centred grid of
odd n = 2c + 1 (grid._even_half), Gamma and its gradient are solved on the
even half of the grid, nodes 0..c.  psi and beta psi are even and e_- is
e_+ reversed, so m_+ = m_- = m = trapz(beta psi e_even), with e_even =
(e_+ + e_-)/2 = cos(qx) - R(k)[V cos(qx)], and Gamma = |m|^2 / 8k.  e_even
and R(k)[beta psi] come from one two-column outgoing solve on nodes 0..c,
and the gradient's reduced resolvent takes its even forcing on nodes 0..c
too.  This path agrees with the full-grid one to rounding, not bitwise,
and it prints m_+ = m_- exactly.  That removes the visible m_+ != m_- of a
mirror-symmetric optimum, not its cause: m is still a difference of O(1)
waves, accurate to about 1e-13 absolute.  gamma_jost_form keeps reading
the full-grid e_+- as an independent check.  Every other input (an
asymmetric V or beta, an off-centre grid, an even n) keeps the full-grid
path.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceBelowCutoff, SolverFailure
from .grid import BetaMode, DesignParams, PotentialField, _even_half, _even_weights, _unfold, trapz
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

    source_response is R(k_res)[beta psi] on every node, the outgoing
    response to the golden-rule source, solved with e_+- for
    gamma_gradient; it is None in a result that keeps no grid-length
    array, and gamma_gradient then solves for it.  On the even half of the
    grid (see the module docstring) it is solved with scattering.e_even on
    nodes 0..c and mirrored, and m_plus and m_minus are the same number.
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


def _splits_by_parity(V: PotentialField, params: DesignParams) -> bool:
    """Whether Gamma and its gradient at V are solved on the even half of the grid.

    They are when V and beta read the same reversed, bit for bit, on a
    centred grid of odd n (grid._even_half): psi is then even as well.
    """
    return _even_half(V, params.beta if params.beta_mode is BetaMode.FIXED else V)


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
    result without solving.  A V and beta that read the same reversed on
    a centred grid of odd n are solved on the even half of the grid (see
    the module docstring).
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
    if _splits_by_parity(V, params):
        # beta psi and e_+ + e_- = 2 e_even are even, and e_- is e_+
        # reversed: m_+ = m_- = trapz(beta psi e_even)
        rows = V.grid.n // 2 + 1
        src = params.beta_values(V)[:rows] * bs.psi[:rows]
        st, u = distorted_plane_waves(V, k, src, even=True)
        m_p = m_m = complex(_even_weights(V.grid) @ (src * st.e_even))
        rate = abs(m_p) ** 2 / (8.0 * k)
        rbp = _unfold(u)
    else:
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


def _even_wave_k_pairing(
    V: PotentialField, st: ScatteringState, src: np.ndarray, rbp: np.ndarray
) -> complex:
    """trapz(src de_even/dk) at fixed V, from rbp = R(k)[src] on the even half.

    src, rbp and st.e_even hold nodes 0..c.  As _wave_k_pairings, with the
    even half's system (spectral.outgoing_resolvent_solve with even=True):
    w = cos(qx), so dw = -q' x sin(qx), and one outgoing row, at node 0;
    the mirror row at x = 0 does not depend on k.  That system is complex
    symmetric in the orthonormal even basis, whose coordinates are
    sqrt(W) times the node values, W = 2 on nodes j < c (each counts its
    mirror image) and 1 on node c.  So in node values the adjoint identity
    holds under W: sum W src A^-1 r = sum W rbp r, and since src is 0 at
    node 0, trapz(src u) = h sum W src u.  Hence

        c = h ((W (src - V rbp))^T dw - 2k (W rbp)^T phi + 2 g rbp_0 phi_0).
    """
    grid = V.grid
    h, k = grid.h, st.k
    rows = src.shape[0]
    qp = 1.0 / math.sqrt(1.0 - (0.5 * k * h) ** 2)
    ghost = -1j * qp * cmath.exp(1j * lattice_wavenumber(k, h) * h) / h
    wave = st.wave[:rows]
    phi = wave.real - st.e_even
    dw = -qp * grid.x[:rows] * wave.imag
    W = np.full(rows, 2.0)
    W[-1] = 1.0
    wr = W * rbp
    c = (W * src - V.values[:rows] * wr) @ dw - 2.0 * k * (wr @ phi)
    return complex(h * (c + 2.0 * ghost * rbp[0] * phi[0]))


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

    When gamma took the even half of the grid, so does the gradient: each
    term is even, and is formed on nodes 0..c from e_even and rbp there
    (m_+ = m_- and e_+ + e_- = 2 e_even fold each +- sum into one term),
    the reduced resolvent is solved for its even forcing on nodes 0..c,
    the k-derivative pairing is _even_wave_k_pairing, and the field is
    mirrored onto the other nodes at the end, so it reads the same
    reversed, bit for bit.  Without a kept result, e_even and rbp come
    from two one-column solves with the bits of gamma's two-column one.
    """
    if res is None:
        res = gamma(V, params)
    bs, st = res.bound_state, res.scattering
    psi, k = bs.psi, res.k_res
    beta = params.beta_values(V)
    pref = 1.0 / (8.0 * k)
    rbp = res.source_response
    half = _splits_by_parity(V, params)
    if half:
        # every field below is even: it is formed on nodes 0..c, where
        # m_+ = m_- = m and e_+ + e_- = 2 e_even turn each +- sum into
        # twice its e_even term
        rows = V.grid.n // 2 + 1
        psi, beta = psi[:rows], beta[:rows]
        src = beta * psi
        rbp = outgoing_resolvent_solve(V, k, src, even=True) if rbp is None else rbp[:rows]
        cm2 = 2.0 * np.conj(res.m_plus)
        resp = np.real(cm2 * st.e_even)
        g_psi = -pref * psi * reduced_resolvent_at_eigenvalue(V, bs, beta * resp, even=True)
        g_wave = -pref * np.real(cm2 * st.e_even * rbp)
        dk_coef = pref * np.real(cm2 * _even_wave_k_pairing(V, st, src, rbp))
    else:
        src = beta * psi

        # field paired against the (real) eigenvector and beta shifts
        resp = np.real(np.conj(res.m_plus) * st.e_plus + np.conj(res.m_minus) * st.e_minus)

        # d psi: psi' = -Rtilde P_c[w psi], moved onto the data by symmetry
        g_psi = -pref * psi * reduced_resolvent_at_eigenvalue(V, bs, beta * resp)

        # explicit dependence of e_+- on V: de = -R(k)[w e]
        if rbp is None:
            rbp = outgoing_resolvent_solve(V, k, src)
        g_wave = -pref * np.real(
            np.conj(res.m_plus) * st.e_plus * rbp
            + np.conj(res.m_minus) * st.e_minus * rbp
        )

        # k shift: the k-dependence of the waves
        c_p, c_m = _wave_k_pairings(V, st, src, rbp)
        dk_coef = pref * np.real(np.conj(res.m_plus) * c_p + np.conj(res.m_minus) * c_m)
    # k shift: the prefactor 1/16k
    dk_coef -= res.gamma / k
    g_k = dk_coef * psi * psi / (2.0 * k)

    g = g_psi + g_wave + g_k
    if params.beta_mode is BetaMode.EQUALS_V:
        g = g + pref * psi * resp
    return _unfold(g) if half else g
