"""Log-barrier interior-point minimization of the decay rate.

Minimizes Gamma[V] over potentials supported in [-a, a] subject to the
strict constraints

    lambda_V + mu > 0,      W_V(0)^2 > delta,      ||V||_H1^2 < b^2,

by descending the barrier objective

    F_tau[V] = Gamma[V] - tau [log(lambda+mu) + log(W^2-delta) + log(b^2-||V||^2)]

with limited-memory BFGS directions, Armijo backtracking, and outer
continuation tau -> tau/10.  Design variables are the nodal values of V on
the support; nodes outside are frozen at zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fgr
from .errors import InfeasiblePoint, InfeasibleStart, PdpError
from .grid import DesignParams, PotentialField, h1_gradient, h1_norm_sq
from .spectral import BoundState, ScatteringState, wronskian_at_zero

__all__ = [
    "BarrierEval",
    "OptOptions",
    "OptResult",
    "barrier_objective",
    "lbfgs_direction",
    "optimize",
    "classify_mechanism",
]

# each tau subproblem is solved loosely: at most its split of max_iters
# steps and to gradient tolerance max(GRAD_TOL, STAGE_GRAD_FACTOR * tau).
# Without this the -tau log(m) terms, unbounded below as a margin grows,
# can hijack the whole budget at the first tau driving the iterate deep
# into the interior.
STAGE_GRAD_FACTOR = 1e-3
# end a stage once gamma < TAU_ADVANCE_FACTOR * tau: the subproblem is then
# pure barrier and polishing it only drifts the iterate.  At tau_min this
# ends the run: no smaller tau follows, and the Gamma of a tau-subproblem
# minimizer is within m * tau (m = 3 constraints) of the constrained
# minimum anyway
TAU_ADVANCE_FACTOR = 1e-2
# trial steps per line search, each BACKTRACK times the last; if none
# is accepted the stage ends on a line-search failure
MAX_BACKTRACKS = 40
# tau shrinks tenfold per stage: 7 stages over the default 1e-2 .. 1e-8
TAU_FACTOR = 0.1
# relative slack for reaching tau_min: 1e-2 * 0.1**6 lands 4e-16 above 1e-8
TAU_MIN_RTOL = 1e-12
# L-BFGS history length; Nocedal & Wright (2006, sec. 7.2) advise 3 to 20
MEMORY = 10
# Armijo sufficient-decrease constant, Nocedal & Wright's c1 (sec. 3.1)
ARMIJO = 1e-4
# step shrink per rejected or infeasible trial: 40 halvings reach 1e-12
BACKTRACK = 0.5
# final-stage gradient tolerance; design runs end on TAU_ADVANCE_FACTOR first
GRAD_TOL = 1e-10
# the per-step record of a run, in trace.csv column order
TRACE_COLUMNS = (
    "iter", "tau", "gamma", "barrier_value", "grad_norm", "step_length",
    "margin_resonance", "margin_wronskian", "margin_h1", "wronskian_variance",
)


@dataclass(frozen=True)
class BarrierEval:
    """Value and nodal gradient of the barrier objective at one potential.

    gradient is the full-grid nodal gradient (quadrature weights already
    applied; zero off the support, the one place where a gradient is
    restricted to the design space).  margins = (lambda+mu, W^2-delta,
    b^2-||V||^2), all strictly positive.  result is the decay rate of the
    potential, Gamma included.
    """

    value: float
    gradient: np.ndarray
    margins: tuple[float, float, float]
    wronskian_variance: float
    result: fgr.FgrResult


@dataclass(frozen=True)
class OptOptions:
    """Optimizer settings; defaults chosen for n ~ 2000 node grids.

    tau falls by TAU_FACTOR per stage from tau_start to tau_min > 0, and
    the max_iters steps are shared by all stages.  symmetric starts from
    the mirror average (V + V reversed)/2 of the start, which with beta
    must split by parity (fgr._splits_by_parity): the descent then stays
    mirrored, bit for bit, with no projection (see optimize).
    """

    tau_start: float = 1e-2
    tau_min: float = 1e-8
    max_iters: int = 150
    symmetric: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau_start < np.inf:
            raise ValueError(f"tau_start must be finite and positive, got {self.tau_start}")
        if not 0.0 < self.tau_min:
            raise ValueError(f"tau_min must be positive, got {self.tau_min}")
        # tau only falls, so a tau_min above tau_start is never reached
        if self.tau_min > self.tau_start:
            raise ValueError(
                f"tau_min = {self.tau_min} must not exceed tau_start = {self.tau_start}"
            )
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")


@dataclass(frozen=True)
class OptResult:
    """Final potential and its evaluation.

    trace_rows holds one row per accepted step and one column per
    TRACE_COLUMNS name, in that order, as floats (iter is a whole number);
    trace gives its columns as one array per name, with iter as integers.
    One array instead of ten keeps a kept result small (a sweep keeps one
    per value).  stages holds one (tau, steps, reason) entry per tau
    stage that the run entered, in order, a stage that ended before its
    first step included: reason is why it ended ("gradient tolerance
    reached", "gamma negligible against tau", "stage budget reached",
    "line-search failure" or "iteration budget exhausted").  status is the
    last stage's reason: why the run ended.

    result.bound_state and result.scattering are a fresh BoundState and
    ScatteringState of V_opt, and result.waves and result.source_response
    are None: psi, lam and t are computed again when first read, to the
    same bits, and fgr.gamma_gradient forms the waves again with gamma, so
    a kept result holds no grid-length array but V_opt.
    """

    V_opt: PotentialField
    trace_rows: np.ndarray
    result: fgr.FgrResult
    margins: tuple[float, float, float]
    stages: tuple[tuple[float, int, str], ...]

    @property
    def iterations(self) -> int:
        """The number of accepted steps, one trace row each."""
        return len(self.trace_rows)

    @property
    def trace(self) -> dict[str, np.ndarray]:
        trace = dict(zip(TRACE_COLUMNS, self.trace_rows.T))
        trace["iter"] = trace["iter"].astype(np.int64)
        return trace

    @property
    def status(self) -> str:
        return self.stages[-1][2]


def classify_mechanism(res: fgr.FgrResult) -> str:
    """Low-density-of-states ('A') vs matrix-element-cancellation ('B').

    'A': the continuum is nearly opaque at the resonant wavenumber
    (|t(k)|^2 < 1e-2); 'B': the continuum is transparent (|t|^2 > 0.25)
    and smallness comes from the coupling matrix elements.
    """
    tsq = abs(res.scattering.t) ** 2
    if tsq < 1e-2:
        return "A"
    if tsq > 0.25:
        return "B"
    return "mixed"


def barrier_objective(V: PotentialField, params: DesignParams, tau: float) -> BarrierEval:
    """Barrier value and nodal gradient; raises InfeasiblePoint off-interior.

    tau is the weight of the log-barrier terms, params the constraints.

    The Gamma and constraint gradients are Riesz fields on every node (the
    Wronskian's is exact for its discrete W), so the nodal gradient applies
    the trapezoid weights; the H1 term is an exact discrete quadratic form
    and contributes its own nodal gradient.  The sum is then zeroed off the
    support [-a, a].
    """
    res = fgr.gamma(V, params)  # raises NoBoundState / ResonanceBelowCutoff
    if res.bound_state.count_negative_eigenvalues != 1:
        raise InfeasiblePoint(
            f"{res.bound_state.count_negative_eigenvalues} bound states (need exactly 1)"
        )
    wr = wronskian_at_zero(V, params.wronskian_tol)
    if not wr.valid:
        raise InfeasiblePoint(
            f"Wronskian variance {wr.variance:.3g} above tolerance"
        )
    m1 = res.bound_state.lam + params.mu
    m3 = params.b ** 2 - h1_norm_sq(V)
    aw = abs(wr.w0)
    if m1 <= 0 or m3 <= 0 or aw * aw <= params.delta:
        raise InfeasiblePoint(
            f"constraint margins (lam+mu={m1:.3g}, W0={wr.w0:.3g}, b^2-H1={m3:.3g})"
        )
    # m2 is the margin that evaluate prints (inf once |W0| passes about
    # 1.3e154); past 1e100 its log and coefficient are taken in log space,
    # as W0 grows like exp(integral sqrt(V_+)) and its square can overflow
    m2 = aw * aw - params.delta
    if aw > 1e100:
        log_m2 = 2.0 * np.log(aw)
        w_coef = 2.0 / wr.w0  # 2 W0 / (W0^2 - delta), asymptotically
    else:
        log_m2 = np.log(m2)
        w_coef = 2.0 * wr.w0 / m2
    value = res.gamma - tau * (np.log(m1) + log_m2 + np.log(m3))

    w = V.grid.weights
    # the constraint fields that gradcheck verifies
    g_field = fgr.gamma_gradient(V, params, res) - tau * (
        fgr.lambda_gradient(res.bound_state) / m1 + w_coef * fgr.wronskian_gradient(wr)
    )
    grad = w * g_field + (tau / m3) * h1_gradient(V)
    grad = np.where(V.support_mask, grad, 0.0)
    return BarrierEval(
        value=float(value),
        gradient=grad,
        margins=(float(m1), float(m2), float(m3)),
        wronskian_variance=wr.variance,
        result=res,
    )


def lbfgs_direction(history: list[tuple[np.ndarray, np.ndarray]], g: np.ndarray) -> np.ndarray:
    """Two-loop recursion over (s, y) pairs; steepest descent when empty.

    Pairs with non-positive curvature s.y are skipped, so the output is a
    descent direction whenever any valid pair (or none) remains.
    """
    q = -g
    if not history:
        return q
    alphas = []
    pairs = [(s, y, sy) for s, y in history if (sy := float(s @ y)) > 0.0]
    if not pairs:
        return q
    for s, y, sy in reversed(pairs):
        a = (s @ q) / sy
        alphas.append(a)
        q -= a * y
    s, y, sy = pairs[-1]
    q *= sy / float(y @ y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        b = (y @ q) / sy
        q += (a - b) * s
    return q


def optimize(
    V_init: PotentialField,
    params: DesignParams,
    opts: OptOptions = OptOptions(),
) -> OptResult:
    """Barrier-continuation L-BFGS descent from a strictly feasible start.

    Each tau stage restarts the curvature history (the objective changes)
    and runs Armijo-backtracked L-BFGS steps with feasibility-preserving
    clipping (infeasible or invalid trial points just shrink the step).  A
    stage ends on its gradient tolerance, its step budget (not at tau_min),
    a line-search failure, or once gamma < TAU_ADVANCE_FACTOR * tau.
    That last rule also ends the run at tau_min: the subproblem is then pure
    barrier, and the barrier bound already puts the Gamma of its minimizer
    within m * tau_min (m = 3 constraints) of the constrained minimum, so
    further steps only chase the -tau log terms towards ever taller walls.
    The shared iteration budget opts.max_iters spans all stages.  A
    symmetric start and beta that do not split by parity raise ValueError.
    """
    v = V_init.values
    if opts.symmetric:
        v = 0.5 * (v + v[::-1])
    V = V_init.with_values(v)
    if opts.symmetric and not fgr._splits_by_parity(V, params):
        raise ValueError("symmetric mode needs a centred grid of odd n and a mirrored beta")

    try:
        cur = barrier_objective(V, params, opts.tau_start)
    except PdpError as exc:
        raise InfeasibleStart(f"initial potential is not strictly feasible: {exc}") from exc

    schedule = [opts.tau_start]
    while schedule[-1] > opts.tau_min * (1.0 + TAU_MIN_RTOL):
        schedule.append(max(schedule[-1] * TAU_FACTOR, opts.tau_min))
    stage_cap = max(1, math.ceil(opts.max_iters / len(schedule)))

    gnorm = None  # max |cur.gradient|, once formed
    rows: list[tuple] = []  # one per accepted step, in TRACE_COLUMNS order
    stages: list[tuple[float, int, str]] = []  # one per stage entered
    cur_tau = opts.tau_start
    budget_hit = False
    for stage, tau in enumerate(schedule):
        # Gamma does not depend on tau, so a stage that ends on the
        # Gamma-negligible rule needs no evaluation at its own tau
        if cur_tau != tau and cur.result.gamma >= TAU_ADVANCE_FACTOR * tau:
            cur, cur_tau = barrier_objective(V, params, tau), tau
            gnorm = None
        history: list[tuple[np.ndarray, np.ndarray]] = []
        stage_status = "gradient tolerance reached"
        final_stage = stage == len(schedule) - 1
        stage_tol = GRAD_TOL if final_stage else max(GRAD_TOL, STAGE_GRAD_FACTOR * tau)
        stage_it = 0
        while True:
            if cur.result.gamma < TAU_ADVANCE_FACTOR * tau:
                stage_status = "gamma negligible against tau"
                break
            if gnorm is None:
                gnorm = float(np.abs(cur.gradient).max())
            if gnorm <= stage_tol:
                break
            if not final_stage and stage_it >= stage_cap:
                stage_status = "stage budget reached"
                break
            if len(rows) >= opts.max_iters:
                budget_hit = True
                break
            # a V and beta that split by parity have a gradient that reads
            # the same reversed, bit for bit, and so do d, the support mask
            # (Grid.x is exactly odd) and every trial V + step * d
            d = lbfgs_direction(history, cur.gradient)
            slope = float(d @ cur.gradient)
            if slope >= 0.0:
                d = -cur.gradient
                slope = float(d @ cur.gradient)
            step = 1.0
            accepted = None
            for _ in range(MAX_BACKTRACKS):
                try:
                    trial = V.with_values(V.values + step * d)
                    ev = barrier_objective(trial, params, tau)
                except PdpError:
                    step *= BACKTRACK  # clip back into the interior
                    continue
                if ev.value <= cur.value + ARMIJO * step * slope:
                    accepted = (trial, ev)
                    break
                step *= BACKTRACK
            if accepted is None:
                stage_status = "line-search failure"
                break
            trial, ev = accepted
            s = trial.values - V.values
            y = ev.gradient - cur.gradient
            history.append((s, y))
            if len(history) > MEMORY:
                history.pop(0)
            V, cur = trial, ev
            gnorm = float(np.abs(cur.gradient).max())
            stage_it += 1
            rows.append((
                len(rows) + 1, tau, cur.result.gamma, cur.value,
                gnorm, step, *cur.margins, cur.wronskian_variance,
            ))
        if budget_hit:
            stage_status = "iteration budget exhausted"
        stages.append((tau, stage_it, stage_status))
        if budget_hit:
            break
    # a kept result holds no psi, no waves and no source response (a sweep
    # keeps one result per value); a reader of psi or t, or the gradient,
    # gets them recomputed, to the same bits
    res = cur.result
    return OptResult(
        V_opt=V,
        trace_rows=np.array(rows, dtype=float).reshape(len(rows), len(TRACE_COLUMNS)),
        result=replace(
            res,
            bound_state=BoundState(V),
            scattering=ScatteringState(res.k_res, V),
            waves=None,
            source_response=None,
        ),
        margins=cur.margins,
        stages=tuple(stages),
    )

