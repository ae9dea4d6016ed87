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
FgrResult too, and gets one from gamma when given none, or one that keeps
no waves.

gamma makes the one complex solve of Gamma and its gradient: the outgoing
matrix at k_res is factored once for the distorted plane waves and
R(k_res)[beta psi] (spectral.distorted_plane_waves with beta psi as the
source), and the result keeps both, as columns of that solve's array, for
gamma_gradient.

Gamma and its gradient are each assembled once, over the waves on the
solved nodes.  When V and beta read the same reversed, bit for bit, on a
centred grid of odd n = 2c + 1 (grid._even_half, asked by
_splits_by_parity), the solved nodes are the even half of the grid, 0..c:
psi and beta psi are even and e_- is e_+ reversed, so the one wave e_even
= (e_+ + e_-)/2 = cos(qx) - R(k)[V cos(qx)] holds all that a pairing with
beta psi reads.  Then m_+ = m_- = m = trapz(beta psi e_even), each +- sum
of the gradient is twice its e_even term, and each field is mirrored onto
nodes c+1..n-1 at the end.  Every other input (an asymmetric V or beta,
an off-centre grid, an even n) is solved on all n nodes.  The assembly
reads the two only through their data:

    rows             n                       c + 1
    waves            (e_+, e_-)              (e_even,)
    coefficients     conj(m_+), conj(m_-)    2 conj(m)
    mirror weights   W = 1                   kernels._mirror_weights
    outgoing rows    {0, n - 1}              {0}

(kernels._mirror_weights is W = (2, ..., 2, 1): each node j < c counts
its mirror image) and adds the terms of each sum left to right over the
waves, so on the even half Gamma = 2|m|^2/16k = |m|^2/8k exactly.  The
even half agrees with the full grid to rounding, not bitwise, and prints
m_+ = m_- exactly.  That removes the visible m_+ != m_- of a mirror-symmetric
optimum, not its cause: m is still a difference of O(1) waves, accurate
to about 1e-13 absolute.  gamma_jost_form solves for the full-grid e_+-
as an independent check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import ResonanceBelowCutoff, SolverFailure
from .grid import BetaMode, DesignParams, PotentialField, _even_half, _unfold, trapz
from .kernels import _mirror_weights
from .spectral import (
    BoundState,
    ScatteringState,
    WronskianResult,
    distorted_plane_waves,
    has_eigenvalue_at_or_below,
    lattice_wavenumber,
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

    waves are the distorted plane waves at k_res on the solved nodes, as
    spectral.distorted_plane_waves gives them: (e_+, e_-) on every node,
    or (e_even,) on nodes 0..c on the even half of the grid (see the
    module docstring), where m_plus and m_minus are the same number.
    source_response is R(k_res)[beta psi] on every node, the outgoing
    response to the golden-rule source, solved with the waves (on the
    even half on nodes 0..c, and mirrored).  Both are None in a result
    that keeps no grid-length array, and gamma_gradient then calls gamma
    again.
    """

    gamma: float
    k_res: float
    m_plus: complex
    m_minus: complex
    bound_state: BoundState
    scattering: ScatteringState
    waves: tuple[np.ndarray, ...] | None = None
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
# that pdp optimize prints before optimizing from the same potential,
# gamma_gradient called without a result or with one that keeps no waves,
# and gamma_jost_form.
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
    The spectral solves read this from the rows of the forcings built
    here, and the optimizer's symmetric mode requires it of its start.
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
    k = math.sqrt(ksq)
    if 0.5 * k * V.grid.h >= 1.0:
        raise SolverFailure(
            f"resonance k = {k:.6g} is above the lattice cutoff 2/h = "
            f"{2.0 / V.grid.h:.6g} (h = {V.grid.h:.6g}): refine the grid"
        )
    half = _splits_by_parity(V, params)
    rows = V.grid.n // 2 + 1 if half else V.grid.n
    src = params.beta_values(V)[:rows] * bs.psi[:rows]
    st = ScatteringState(k, V)
    waves, u = distorted_plane_waves(st, src)  # on nodes 0..c when src has c + 1 rows
    weights = _mirror_weights(rows) * V.grid.weights[:rows] if half else V.grid.weights
    m = [complex(weights @ (src * e)) for e in waves]
    m_p, m_m = m[0], m[-1]
    rate = (abs(m_p) ** 2 + abs(m_m) ** 2) / (16.0 * k)
    rbp = _unfold(u) if half else u
    res = FgrResult(
        gamma=rate,
        k_res=k,
        m_plus=m_p,
        m_minus=m_m,
        bound_state=bs,
        scattering=st,
        waves=waves,
        source_response=rbp,
    )
    _last = (V, params, res)
    return res


def gamma_jost_form(V: PotentialField, params: DesignParams) -> float:
    """Gamma[V] via the Jost-normalized waves f_{+-} = e_{+-}/t.

    Algebraically identical to gamma; kept as an independent assembly path
    for cross-checking the transmission normalization, which solves for the
    full-grid e_+- itself, whichever nodes gamma solved on.  When t(k_res)
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
    (e_p, e_m), _ = distorted_plane_waves(st)
    f_p = e_p / st.t
    f_m = e_m / st.t
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


def _sum(terms):
    """The terms added left to right, from the first (no 0 + in front)."""
    return reduce(add, terms)


def _wave_k_pairings(
    V: PotentialField, st: ScatteringState, waves: tuple[np.ndarray, ...],
    src: np.ndarray, rbp: np.ndarray,
) -> tuple[complex, ...]:
    """trapz(src de/dk) at fixed V per wave e of waves, rbp = R(k)[src].

    waves, src and rbp hold the solved nodes, as an FgrResult's waves do:
    (e_+, e_-) on all n, or (e_even,) on nodes 0..c of the even half.
    With w the free lattice wave of e (e^{+-iqx}, or cos(qx) on the even
    half), e = w - phi and A phi = V w, A = H_V - k^2 with outgoing rows
    (spectral._robin_system with the ghost factor e^{iqh}; on the even
    half its even block, with one outgoing row, at node 0, and a mirror
    row at x = 0 that does not depend on k).  Differentiating the
    assembled system gives de/dk = dw - A^-1 r with r = V dw - (dA/dk)
    phi; dA/dk is -2k on the diagonal plus g = -i q' e^{iqh}/h on each
    outgoing row (the k-dependence of the ghost factor), and q' = dq/dk.
    The solve A^-1 r is not needed.  A is complex symmetric in the
    orthonormal coordinates of the solved nodes, which are sqrt(W) times
    the node values, with the mirror weights W = 1 on the full grid and
    kernels._mirror_weights on the even half.  So in node values the
    adjoint identity holds under W: sum W src A^-1 r = sum W rbp r
    (reverse mode, Griewank & Walther, Evaluating Derivatives 2e (2008),
    ch. 3).  src = beta psi is 0 on the domain's end nodes, the only
    solved nodes whose trapezoid weight is not h W, so trapz(src u) =
    h sum W src u exactly.  Hence, summing over the outgoing rows j,

        c = h ((W (src - V rbp))^T dw - 2k (W rbp)^T phi + sum_j g W_j rbp_j phi_j).
    """
    grid = V.grid
    h, k = grid.h, st.k
    rows = src.shape[0]
    qp = 1.0 / math.sqrt(1.0 - (0.5 * k * h) ** 2)
    ghost = -1j * qp * cmath.exp(1j * lattice_wavenumber(k, h) * h) / h
    wave, x = st.wave[:rows], grid.x[:rows]
    if rows < grid.n:
        W, ends = _mirror_weights(rows), (0,)
        free = ((wave.real, -qp * x * wave.imag),)  # cos(qx) and its k-derivative
    else:
        W, ends = 1.0, (0, -1)
        dw = 1j * qp * x * wave  # w_- is the conjugate of w_+, and so is its k-derivative
        free = ((wave, dw), (np.conj(wave), np.conj(dw)))
    wr = W * rbp
    a = W * src - V.values[:rows] * wr
    out = []
    for (w, dw), e in zip(free, waves):
        phi = w - e
        c = a @ dw - 2.0 * k * (wr @ phi)
        for j in ends:
            c = c + ghost * wr[j] * phi[j]
        out.append(complex(h * c))
    return tuple(out)


def gamma_gradient(
    V: PotentialField, params: DesignParams, res: FgrResult | None = None
) -> np.ndarray:
    """Riesz field of Gamma[V], res the decay rate of V as gamma gives it.

    Assembles the four first-order responses: the eigenvector shift through
    the reduced resolvent at lambda, the explicit potential dependence of
    the scattering waves through the outgoing resolvent at k, the shift of
    the resonant wavenumber (prefactor and wave dephasing), and - when the
    forcing profile is the potential itself - the direct beta = V term.

    Gamma and its gradient together make one complex solve, gamma's
    outgoing solve for the waves and rbp = R(k)[beta psi] (res.waves and
    res.source_response; a result that keeps neither, as an optimizer's,
    is formed again by gamma, to the same bits), plus one real
    reduced-resolvent solve here, both on the solved nodes (see the
    module docstring).  rbp serves both the explicit wave term and the
    k-derivative of the waves: A = H_V - k^2 with outgoing rows is
    complex symmetric, so the pairings of beta psi with de/dk follow from
    rbp by dot products (the adjoint identity, see _wave_k_pairings).  On
    the even half every term is even and formed on nodes 0..c, and the
    field is mirrored onto the other nodes at the end, so it reads the
    same reversed, bit for bit.
    """
    if res is None or res.waves is None:
        res = gamma(V, params)
    bs, waves = res.bound_state, res.waves
    rows = waves[0].shape[0]
    half = rows < V.grid.n
    psi, k = bs.psi[:rows], res.k_res
    beta = params.beta_values(V)[:rows]
    src = beta * psi
    pref = 1.0 / (8.0 * k)
    rbp = res.source_response[:rows]
    # on the even half m_+ = m_- = m and e_+ + e_- = 2 e_even turn each
    # +- sum into twice its e_even term
    if half:
        coefs = (2.0 * np.conj(res.m_plus),)
    else:
        coefs = (np.conj(res.m_plus), np.conj(res.m_minus))

    # field paired against the (real) eigenvector and beta shifts
    terms = [c * e for c, e in zip(coefs, waves)]
    resp = np.real(_sum(terms))

    # d psi: psi' = -Rtilde P_c[w psi], moved onto the data by symmetry
    g_psi = -pref * psi * reduced_resolvent_at_eigenvalue(V, bs, beta * resp)

    # explicit dependence of the waves on V: de = -R(k)[w e]
    g_wave = -pref * np.real(_sum([t * rbp for t in terms]))

    # k shift: the k-dependence of the waves, then the prefactor 1/16k
    c_k = _wave_k_pairings(V, res.scattering, waves, src, rbp)
    dk_coef = pref * np.real(_sum([c * ck for c, ck in zip(coefs, c_k)]))
    dk_coef -= res.gamma / k
    g_k = dk_coef * psi * psi / (2.0 * k)

    g = g_psi + g_wave + g_k
    if params.beta_mode is BetaMode.EQUALS_V:
        g = g + pref * psi * resp
    return _unfold(g) if half else g
