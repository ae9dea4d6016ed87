"""Time-domain verification of the golden-rule decay law.

Integrates the parametrically forced Schrodinger equation

    i phi_t = H_V phi + eps cos(mu t) beta(x) phi

on a large domain with a complex absorbing potential -i sigma(x) near the
ends, tracks the bound-state projection |<psi_V, phi(t)>|^2, and fits the
observed decay rate for comparison with 2 eps^2 Gamma[V].  Time stepping is
Crank-Nicolson with the forcing factor frozen at the step midpoint
(second order, unconditionally stable, norm-conserving when sigma = 0).

A run that is mirror-symmetric with an even start stays even, and is
stepped on the even half of the grid: V, beta and sigma read the same
reversed, bit for bit, on a centred grid (Grid.centred) with an odd
number of nodes n = 2c + 1, and phi(0) reads the same reversed too (the
parity test grid._even_half, which the ground state and Gamma share).  The
half problem is nodes 0..c in the orthonormal even basis of
kernels._even_block: u_j = sqrt(2) phi_j for j < c and u_c = phi_c, with
sqrt(2) times the off-diagonal coupling rows c-1 and c.
Its CN matrix is complex symmetric with Hermitian part >= I, as the full
one is.  It agrees with the full-grid run to rounding, not bitwise.  Every
other run (an asymmetric V, beta or start, an off-centre grid, an even n)
is stepped on the full grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import SolverFailure
from .grid import Grid, PotentialField, _even_half, interpolate_potential, make_grid, trapz
from .kernels import _even_block, _even_scale
from .spectral import _stencil, solve_ground_state

__all__ = [
    "Absorber",
    "SimConfig",
    "SimResult",
    "absorber_profile",
    "resample_potential",
    "propagate",
    "fit_decay_rate",
    "filter_experiment",
]


@dataclass(frozen=True)
class Absorber:
    """Quartic complex-absorber ramp occupying the outer `width` of each end.

    strength must be non-negative: the unpivoted Crank-Nicolson
    factorization of kernels.cn_step_loop needs sigma >= 0.
    """

    width: float = 15.0
    strength: float = 1.0

    def __post_init__(self):
        if not self.strength >= 0.0:
            raise ValueError(f"absorber strength must be non-negative, got {self.strength!r}")


@dataclass(frozen=True)
class SimConfig:
    """Forcing, integration horizon and absorbing layer for one run.

    nsteps, the number of time steps, is ceil(t_final / dt_max).  A count
    that is not finite, or for which numpy cannot size the run's three
    float64 series of nsteps + 1 samples, raises ValueError here.
    """

    epsilon: float
    mu: float
    t_final: float
    dt_max: float = 0.05
    absorber: Absorber = Absorber()
    domain: Grid = field(default_factory=lambda: make_grid(-60.0, 60.0, 3001))
    nsteps: int = field(init=False)

    def __post_init__(self):
        if self.t_final <= 0 or self.dt_max <= 0:
            raise ValueError("t_final and dt_max must be positive")
        if not 0 < self.absorber.width < 0.5 * (self.domain.x_max - self.domain.x_min):
            raise ValueError("absorber layers must fit inside the domain")
        steps = self.t_final / self.dt_max
        # numpy sizes an array only while its byte count fits in intp
        if not math.isfinite(steps) or 8 * (math.ceil(steps) + 1) > np.iinfo(np.intp).max:
            raise ValueError(
                f"t_final / dt_max gives {steps:.6g} time steps, too many to record"
            )
        object.__setattr__(self, "nsteps", math.ceil(steps))

    @property
    def dt(self) -> float:
        """The time step, t_final / nsteps (at most dt_max)."""
        return self.t_final / self.nsteps

    def sample_times(self) -> np.ndarray:
        """The nsteps + 1 times at which a run samples its field.

        0, then the running sum of dt: the very times that
        kernels.cn_step_loop reaches by t += dt from t0 = 0, bit for bit
        (cumsum adds in order).  The last may miss t_final by the rounding
        of that sum: 400.0000000000567 for t_final = 400, dt = 0.05.
        """
        times = np.zeros(self.nsteps + 1)
        np.cumsum(np.full(self.nsteps, self.dt), out=times[1:])
        return times


def _window_mask(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Mask of the times t0 <= t <= t1, window = (t0, t1)."""
    t0, t1 = window
    return (times >= t0) & (times <= t1)


@dataclass
class SimResult:
    """Projection and norm time series of one propagation."""

    times: np.ndarray
    projection_sq: np.ndarray
    norm: np.ndarray
    fitted_rate: float = np.nan


def absorber_profile(cfg: SimConfig) -> np.ndarray:
    """sigma(x): quartic ramp from 0 at the layer edge to `strength` at the wall."""
    x = cfg.domain.x
    w = cfg.absorber.width
    ramp_lo = np.clip((cfg.domain.x_min + w - x) / w, 0.0, 1.0)
    ramp_hi = np.clip((x - (cfg.domain.x_max - w)) / w, 0.0, 1.0)
    return cfg.absorber.strength * (ramp_lo**4 + ramp_hi**4)


def resample_potential(V: PotentialField, grid: Grid) -> PotentialField:
    """Linear interpolation of a potential onto another (usually larger) grid."""
    return interpolate_potential(V.grid.x, V.values, V.support_halfwidth, grid)


def propagate(
    V: PotentialField,
    beta: PotentialField,
    phi0: np.ndarray,
    cfg: SimConfig,
) -> SimResult:
    """Integrate the forced equation and record projection and norm series.

    V, beta and phi0 live on cfg.domain; the bound state used for the
    projection is re-solved on that grid.  The reported norm is restricted
    to the interior, the nodes with x_min + width <= x <= x_max - width
    between the two absorbing layers.  All steps run in one
    kernels.cn_step_loop call, which steps phi in place and calls a record
    hook after every step.  The hook takes sample i + 1 after step i with
    two BLAS dots on the stepped array: the projection |<psi, phi>|^2 as
    abs(zdotu(w psi, phi)) ** 2 and the norm as sqrt(h ddot(re_im, re_im)),
    re_im a float64 view of the interior's Re and Im parts, made once.
    These have the bits of numpy's abs(w_psi @ phi) ** 2 and
    sqrt(h (re_im @ re_im)) at a fraction of their call cost.  The sample
    times are cfg.sample_times(), not stored by the hook.  When V, beta,
    absorber_profile(cfg) and phi0 each read the same reversed, bit for
    bit, on a centred grid of odd n, the steps run on the even half of the
    grid (see the module docstring), and the hook takes the projection with
    half-grid weights and the norm over the same interior nodes; the series
    then agree with a full-grid run to rounding.  Raises SolverFailure on
    non-finite field values: phi0 before any solve, and after a step the
    first sample whose projection is not finite (its message names that
    sample's time); and, before any step, when
    the simulation grid cannot carry the wave that the forcing drives:
    lambda + mu > 0 with k h / 2 >= 1, k = sqrt(lambda + mu), as
    fgr.gamma refuses it on the design grid.  phi0 must be a 1-D array of
    grid.n values (ValueError otherwise).
    """
    grid = cfg.domain
    if V.grid != grid or beta.grid != grid:
        raise ValueError("V and beta must be sampled on the simulation grid")
    phi = np.asarray(phi0, dtype=np.complex128).copy()
    if phi.shape != (grid.n,):
        raise ValueError(
            f"phi0 must be a 1-D array of the simulation grid's {grid.n} values, "
            f"got shape {phi.shape}"
        )
    # checked here, as the even half's scaling below would make inf * 0
    if not np.isfinite(phi).all():
        raise SolverFailure("non-finite field at t=0")
    bs = solve_ground_state(V)
    k = math.sqrt(max(bs.lam + cfg.mu, 0.0))  # 0: no one-photon channel
    if 0.5 * k * grid.h >= 1.0:
        raise SolverFailure(
            f"resonance k = {k:.6g} is above the lattice cutoff 2/h = {2.0 / grid.h:.6g} "
            f"of the simulation grid (h = {grid.h:.6g}, n = {grid.n}): refine the grid"
        )
    psi = bs.psi
    sigma = absorber_profile(cfg)
    h = grid.h
    diag_h, off = _stencil(V)
    beta_v = beta.values
    w_psi = grid.weights * psi  # <psi, phi> = w_psi @ phi
    # the nodes with x_min + width <= x <= x_max - width, as a slice kept
    # off the two end nodes, so that every trapezoid weight in it is h
    width = cfg.absorber.width
    interior = slice(
        max(np.searchsorted(grid.x, grid.x_min + width, side="left"), 1),
        min(np.searchsorted(grid.x, grid.x_max - width, side="right"), grid.n - 1),
    )
    if _even_half(V, beta, sigma, phi):
        # even coordinates u of nodes 0..c; psi is even too, so <psi, phi>
        # = sum over j < c of (sqrt(2) w psi)_j u_j, plus w_c psi_c u_c
        c = grid.n // 2
        scale = _even_scale(c + 1)
        phi = phi[: c + 1] * scale
        w_psi = w_psi[: c + 1] * scale
        diag_h, off = _even_block(diag_h[: c + 1], off)
        sigma, beta_v = sigma[: c + 1], beta_v[: c + 1]
        # x is exactly odd, so the interior is mirrored and holds x = 0;
        # |u_j|^2 = 2 |phi_j|^2 for j < c counts both mirror nodes
        interior = slice(interior.start, c + 1)
    w_psi = w_psi.astype(np.complex128)

    nsteps = cfg.nsteps
    proj = np.empty(nsteps + 1)
    norm = np.empty(nsteps + 1)
    # the kernel steps phi in place, so this view of its interior, Re and
    # Im interleaved as in phi's memory, follows the field
    re_im = phi[interior].view(np.float64)
    zdotu, ddot = kernels._zdotu, kernels._ddot

    def record(i, t):
        # sample i + 1, taken after step i at time t, by two BLAS dots.
        # w psi is finite, and 0 * NaN = 0 * inf = NaN, so the projection
        # is non-finite whenever any entry of phi is (end nodes included);
        # a projection too large for a float is inf
        try:
            p = abs(zdotu(w_psi, phi)) ** 2
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise SolverFailure(f"non-finite field at t={t:.4g}")
        proj[i + 1] = p
        norm[i + 1] = math.sqrt(h * ddot(re_im, re_im))

    record(-1, 0.0)  # sample 0, the start
    kernels.cn_step_loop(
        off, diag_h, sigma, beta_v, cfg.epsilon, cfg.mu, cfg.dt, 0.0, nsteps, phi,
        record=record,
    )
    return SimResult(times=cfg.sample_times(), projection_sq=proj, norm=norm)


def fit_decay_rate(result: SimResult, window: tuple[float, float]) -> float:
    """Least-squares decay rate of projection_sq over the time window.

    Fits log projection_sq = c - rate * t; the golden-rule model value is
    2 eps^2 Gamma (the squared modulus doubles the amplitude exponent).
    Raises on non-positive data in the window.
    """
    sel = _window_mask(result.times, window)
    if np.count_nonzero(sel) < 2:
        raise ValueError("window contains fewer than two samples")
    p = result.projection_sq[sel]
    if np.any(p <= 0.0):
        raise ValueError("projection_sq must be positive on the fit window")
    slope = np.polyfit(result.times[sel], np.log(p), 1)[0]
    return float(-slope)


def filter_experiment(
    V: PotentialField,
    beta: PotentialField,
    cfg: SimConfig,
    noise_amplitude: float,
    seed: int,
) -> SimResult:
    """Propagate psi_V plus seeded noise, normalized to unit projection.

    Complex i.i.d. normal noise is added on the support window only; the
    initial state is rescaled so <psi, phi(0)> = 1, making runs with
    different noise draws directly comparable.
    """
    grid = cfg.domain
    psi = solve_ground_state(V).psi
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    phi0 = psi + noise_amplitude * np.where(V.support_mask, noise, 0.0)
    overlap = complex(trapz(grid, psi * phi0))
    if overlap == 0:
        raise ValueError("initial state is orthogonal to the bound state")
    phi0 = phi0 / overlap
    return propagate(V, beta, phi0, cfg)
