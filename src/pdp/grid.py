"""Uniform 1D grid, potential representation and design parameters."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "PotentialField",
    "BetaMode",
    "DesignParams",
    "make_grid",
    "sech_well",
    "interpolate_potential",
    "h1_norm_sq",
    "h1_gradient",
    "trapz",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with n nodes.

    h, x and weights are built on first read and kept (x and weights
    read-only), so the many reads of h in one solve cost no arithmetic;
    equality and hashing compare the three fields only.
    """

    x_min: float
    x_max: float
    n: int

    @cached_property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def centred(self) -> bool:
        """Whether the grid is centred at 0 (x_min = -x_max), so x is exactly odd."""
        return self.x_min == -self.x_max

    @cached_property
    def x(self) -> np.ndarray:
        # centered generation: reproducible bit-exactly, and exactly
        # antisymmetric on symmetric domains (x[j] == -x[n-1-j]), which the
        # reflection-symmetry machinery downstream relies on
        center = 0.5 * (self.x_min + self.x_max)
        x = center + self.h * (np.arange(self.n) - (self.n - 1) / 2.0)
        x.setflags(write=False)
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights."""
        w = np.full(self.n, self.h)
        w[0] = w[-1] = 0.5 * self.h
        w.setflags(write=False)
        return w


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Uniform grid of n >= 4 nodes on [x_min, x_max].

    Fewer nodes leave H_V at most one interior (Dirichlet) row, which has
    no off-diagonal and, for a mirror-symmetric V, no even and odd block
    for the ground-state solve to split it into.  An n for which numpy
    cannot size the 8n bytes of x is refused here, not at the first read
    of x.
    """
    if n < 4:
        raise ValueError(f"need at least 4 nodes, got n={n}")
    # numpy sizes an array only while its byte count fits in intp
    if 8 * n > np.iinfo(np.intp).max:
        raise ValueError(f"n={n} is too many nodes: numpy cannot size a float64 array of n")
    if not x_max > x_min:
        raise ValueError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    return Grid(float(x_min), float(x_max), int(n))


def trapz(grid: Grid, values: np.ndarray) -> float | complex:
    """Trapezoidal rule on the uniform grid."""
    return grid.weights @ values


@lru_cache(maxsize=8)
def _support_mask(grid: Grid, a: float) -> np.ndarray:
    """|x| <= a on the nodes of grid, read-only; kept per (grid, a)."""
    mask = np.abs(grid.x) <= a
    mask.setflags(write=False)
    return mask


def _mirrored(a: np.ndarray) -> bool:
    """Whether the float or complex array a reads the same reversed, bit for bit."""
    b = a.view(np.uint64).reshape(a.shape[0], -1)  # a complex entry is one (re, im) row
    return bool(np.array_equal(b, b[::-1]))


@dataclass(frozen=True)
class PotentialField:
    """Sampled potential with compact support in [-a, a].

    support_mask (|x| <= a) is read-only and built once per grid and a,
    not per field.  mirrored is decided on first read and kept: whether
    the values read the same reversed, bit for bit (so -0.0 and 0.0
    differ, and a NaN equals its mirror image only with the same payload).
    finite is decided and kept the same way: whether no value is a NaN or
    an inf.  The solvers of pdp.spectral read it instead of scanning the
    values on every solve; the values are read-only, so it cannot go stale.
    """

    grid: Grid
    values: np.ndarray
    support_halfwidth: float

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.array(self.values, dtype=float, copy=True))
        if len(self.values) != self.grid.n:
            raise ValueError("values length does not match grid")
        a = self.support_halfwidth
        if not (self.grid.x_min < -a and a < self.grid.x_max):
            raise ValueError(
                f"support [-{a}, {a}] must lie strictly inside the domain "
                f"[{self.grid.x_min}, {self.grid.x_max}]"
            )
        if self.values[~self.support_mask].any():  # a NaN counts as nonzero
            raise ValueError("potential must vanish outside [-a, a]")
        self.values.setflags(write=False)

    @cached_property
    def mirrored(self) -> bool:
        return _mirrored(self.values)

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    @property
    def support_mask(self) -> np.ndarray:
        return _support_mask(self.grid, self.support_halfwidth)

    def with_values(self, values: np.ndarray) -> "PotentialField":
        v = np.where(self.support_mask, values, 0.0)
        return PotentialField(self.grid, v, self.support_halfwidth)


def _even_half(V: PotentialField, *others) -> bool:
    """Whether a problem on V splits by parity onto the even half of the grid.

    True when the grid is centred (x exactly odd) with an odd number of
    nodes n = 2c + 1, and V and each of others read the same reversed, bit
    for bit; others are fields (their kept mirrored is read) or arrays.
    Such a problem commutes with the reversal of the nodes, and its even
    part lives on nodes 0..c, node c at x = 0 (Cantoni & Butler, Linear
    Algebra Appl. 13 (1976) 275).
    """
    grid = V.grid
    return (
        grid.n % 2 == 1 and grid.centred and V.mirrored
        and all(a.mirrored if isinstance(a, PotentialField) else _mirrored(a) for a in others)
    )


def _unfold(half: np.ndarray) -> np.ndarray:
    """The even array on all 2c + 1 nodes whose nodes 0..c hold half."""
    return np.concatenate((half, half[-2::-1]))


class BetaMode(enum.Enum):
    FIXED = "fixed"
    EQUALS_V = "equals_v"


@dataclass(frozen=True)
class DesignParams:
    """Constraint set parameters and forcing profile.

    a: support halfwidth; b: H1 bound; mu: forcing frequency; delta:
    Wronskian relaxation margin; beta: fixed forcing profile (ignored when
    beta_mode is EQUALS_V); wronskian_tol: the largest relative variance
    of a valid Wronskian.  a, b, mu, delta and wronskian_tol must be
    positive (a NaN is not).
    """

    a: float
    b: float
    mu: float
    delta: float
    beta_mode: BetaMode = BetaMode.FIXED
    beta: PotentialField | None = None
    wronskian_tol: float = 1e-8

    def __post_init__(self):
        # written as not x > 0, so that a NaN is rejected too
        if not (self.a > 0 and self.b > 0 and self.mu > 0 and self.delta > 0):
            raise ValueError("a, b, mu, delta must all be positive")
        if not self.wronskian_tol > 0:
            raise ValueError(f"wronskian_tol must be positive, got {self.wronskian_tol!r}")
        if self.beta_mode is BetaMode.FIXED and self.beta is None:
            raise ValueError("fixed beta_mode requires a beta profile")

    def beta_values(self, V: PotentialField) -> np.ndarray:
        """beta on V's nodes; a fixed profile on another grid raises ValueError."""
        if self.beta_mode is BetaMode.EQUALS_V:
            return np.asarray(V.values)
        if self.beta.grid != V.grid:
            raise ValueError(f"beta is sampled on {self.beta.grid}, V on {V.grid}")
        return np.asarray(self.beta.values)


def sech_well(A: float, B: float, a: float, grid: Grid) -> PotentialField:
    """Truncated sech well -A*sech(B*x) on |x| <= a, zero outside."""
    if A <= 0 or B <= 0:
        raise ValueError("A and B must be positive")
    v = np.where(_support_mask(grid, a), -A / np.cosh(B * grid.x), 0.0)
    return PotentialField(grid, v, a)


def interpolate_potential(
    x: np.ndarray, values: np.ndarray, a: float, grid: Grid
) -> PotentialField:
    """Linear interpolation of samples (x, values) onto grid, zero outside [-a, a].

    Nodes beyond the sampled range also get zero.
    """
    v = np.interp(grid.x, x, values, left=0.0, right=0.0)
    return PotentialField(grid, np.where(_support_mask(grid, a), v, 0.0), a)


def _derivative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Centered differences on interior nodes, one-sided at the endpoints."""
    h = grid.h
    d = np.empty(values.shape[0])
    inner = np.subtract(values[2:], values[:-2], out=d[1:-1])
    inner /= 2 * h
    d[0] = (values[1] - values[0]) / h
    d[-1] = (values[-1] - values[-2]) / h
    return d


def h1_norm_sq(V: PotentialField) -> float:
    """Squared H1 norm: trapezoidal integral of V^2 + (V')^2."""
    v = np.asarray(V.values, dtype=float)
    dv = _derivative(V.grid, v)
    return float(trapz(V.grid, v * v + dv * dv))


def h1_gradient(V: PotentialField) -> np.ndarray:
    """Exact nodal gradient of the discrete h1_norm_sq quadratic form.

    h1_norm_sq(V) = V^T Q V with Q = W + D^T W D (W trapezoid weights, D
    the difference stencil above); the gradient is 2 Q V.  Each term is
    formed once and added in place, in the order of the formula.
    """
    grid = V.grid
    v = np.asarray(V.values, dtype=float)
    w = grid.weights
    wd = w * _derivative(grid, v)
    h = grid.h
    # apply D^T to (w * Dv)
    inner = wd[1:-1] / (2 * h)
    first, last = float(wd[0]) / h, float(wd[-1]) / h
    g = np.zeros_like(v)
    g[2:] += inner
    g[:-2] -= inner
    g[0] -= first
    g[1] += first
    g[-2] -= last
    g[-1] += last
    g += w * v
    g *= 2.0
    return g
