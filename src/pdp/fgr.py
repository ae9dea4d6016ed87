"""Fermi-golden-rule decay rate of the forced bound state and its gradients.

The rate is

    Gamma[V] = (1/16k) sum_{+-} |<beta psi, e_{V+-}(.,k)>|^2,
    k = sqrt(lambda_V + mu),

with psi the normalized ground state of H_V at energy lambda_V and e_{V+-}
the distorted plane waves at the resonant wavenumber.  Gradients are
returned as GradientField Riesz representatives with respect to the L^2
pairing,

    d/deps F[V + eps w] |_0  =  integral g w dx  (trapezoid rule),

zeroed outside the support window.  Callers doing nodal optimization
multiply by the quadrature weights.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceBelowCutoff, SolverFailure
from .grid import BetaMode, DesignParams, Grid, PotentialField, trapz
from .spectral import (
    BoundState,
    ScatteringState,
    WronskianResult,
    distorted_plane_waves,
    outgoing_resolvent_solve,
    reduced_resolvent_at_eigenvalue,
    scattering_k_derivative,
    solve_ground_state,
    wronskian_at_zero,
)

__all__ = [
    "FgrResult",
    "GradientField",
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
    """Decay rate together with the spectral data used to form it."""

    gamma: float
    k_res: float
    m_plus: complex
    m_minus: complex
    bound_state: BoundState
    scattering: ScatteringState

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


@dataclass(frozen=True)
class GradientField:
    """Riesz representative of a Frechet derivative, zero outside [-a, a]."""

    grid: Grid
    values: np.ndarray

    def pair(self, w: np.ndarray) -> float:
        """Directional derivative along the perturbation w."""
        return float(trapz(self.grid, self.values * w))


# memoized (ground state, scattering) solves keyed by potential content;
# the optimizer evaluates Gamma and its gradient at the same point many
# times during line searches
_CACHE_MAX = 32
_cache: OrderedDict[str, FgrResult] = OrderedDict()


def clear_cache() -> None:
    _cache.clear()


def gamma(V: PotentialField, params: DesignParams) -> FgrResult:
    """Gamma[V] via the distorted-plane-wave form.

    Raises ResonanceBelowCutoff when lambda_V + mu <= 0 (no continuum
    channel at the forcing frequency) and NoBoundState when H_V has no
    negative eigenvalue.
    """
    key = V.content_hash() + f"|{params.mu!r}|{params.beta_mode.value}"
    if params.beta_mode is BetaMode.FIXED:
        key += "|" + params.beta.content_hash()
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit
    bs = solve_ground_state(V)
    ksq = bs.lam + params.mu
    if ksq <= 0.0:
        raise ResonanceBelowCutoff(
            f"lambda + mu = {ksq:.6g} <= 0: forced state below the continuum"
        )
    k = float(np.sqrt(ksq))
    st = distorted_plane_waves(V, k)
    src = params.beta_values(V) * bs.psi
    m_p = complex(trapz(V.grid, src * st.e_plus))
    m_m = complex(trapz(V.grid, src * st.e_minus))
    rate = (abs(m_p) ** 2 + abs(m_m) ** 2) / (16.0 * k)
    res = FgrResult(
        gamma=rate, k_res=k, m_plus=m_p, m_minus=m_m, bound_state=bs, scattering=st
    )
    _cache[key] = res
    if len(_cache) > _CACHE_MAX:
        _cache.popitem(last=False)
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


def _masked(V: PotentialField, g: np.ndarray) -> GradientField:
    return GradientField(V.grid, np.where(V.support_mask, g, 0.0))


def lambda_gradient(V: PotentialField, bs: BoundState | None = None) -> GradientField:
    """Riesz field of the ground-state energy: psi^2 (Rayleigh-Schrodinger)."""
    if bs is None:
        bs = solve_ground_state(V)
    return _masked(V, bs.psi * bs.psi)


def k_gradient(
    V: PotentialField, params: DesignParams, res: FgrResult | None = None
) -> GradientField:
    """Riesz field of the resonant wavenumber k = sqrt(lambda + mu)."""
    if res is None:
        res = gamma(V, params)
    return _masked(V, res.bound_state.psi ** 2 / (2.0 * res.k_res))


def wronskian_gradient(
    V: PotentialField, wr: WronskianResult | None = None
) -> GradientField:
    """Riesz field of the zero-energy Wronskian: eta_+ eta_-.

    Variation-of-parameters on eta'' = V eta: perturbing V by w changes the
    constant Wronskian W = eta_+ eta_-' - eta_+' eta_- of the two half-bound
    solutions (eta_+ normalized at the right end, eta_- at the left) by
    +integral w eta_+ eta_- dx.
    """
    if wr is None:
        wr = wronskian_at_zero(V)
    return _masked(V, wr.eta_plus * wr.eta_minus)


def gamma_gradient(
    V: PotentialField, params: DesignParams, res: FgrResult | None = None
) -> GradientField:
    """Riesz field of Gamma[V].

    Assembles the four first-order responses: the eigenvector shift through
    the reduced resolvent at lambda, the explicit potential dependence of
    the scattering waves through the outgoing resolvent at k, the shift of
    the resonant wavenumber (prefactor and wave dephasing), and - when the
    forcing profile is the potential itself - the direct beta = V term.
    """
    if res is None:
        res = gamma(V, params)
    grid = V.grid
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
    rbp = outgoing_resolvent_solve(V, k, src)
    g_wave = -pref * np.real(
        np.conj(res.m_plus) * st.e_plus * rbp
        + np.conj(res.m_minus) * st.e_minus * rbp
    )

    # k shift: prefactor 1/16k and the k-dependence of the waves
    a_p, a_m = scattering_k_derivative(V, st)
    c_p = complex(trapz(grid, src * a_p))
    c_m = complex(trapz(grid, src * a_m))
    dk_coef = pref * np.real(np.conj(res.m_plus) * c_p + np.conj(res.m_minus) * c_m)
    dk_coef -= res.gamma / k
    g_k = dk_coef * psi * psi / (2.0 * k)

    g = g_psi + g_wave + g_k
    if params.beta_mode is BetaMode.EQUALS_V:
        g = g + pref * psi * resp
    return _masked(V, g)
