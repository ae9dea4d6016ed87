"""The four benchmark workloads: seeded inputs, the timed operation, its gate.

Each workload writes its inputs (a pdp JSON config plus data files) into
a directory during set-up and builds the objects the timed operation needs
from those files only.  ``run`` performs one timed operation (the i-th of
a run), ``pass_ops`` is the number of operations that cover every input
once, and ``check`` applies two tests to an operation's outcome:

* ``valid``: the outputs are self-consistent (the design is strictly
  feasible and Gamma recomputes to the same bits, the decay series is
  well-formed, the CLI wrote its artifacts, and repeats of the same input
  reproduce the same numbers);
* ``gate``: the acceptance threshold of the matching release criterion,
  reused unchanged from tests/test_acceptance.py.  Operations that miss
  it are counted as failed.

pdp is imported inside the set-up functions so that set-up time includes
the package import.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

# criterion 7: epsilon, horizon and fit window of the eps = 0.2 run
SIM_EPSILON = 0.2
SIM_T_FINAL = 400.0
SIM_WINDOW = (50.0, 400.0)
# evaluate-batch: wells per pool; the closed loop cycles through them
POOL_SIZE = 16


@dataclass
class Outcome:
    """One timed operation: when it started and how long it took, on the
    clock passed to ``run``, and what the gates look at."""

    start: float
    seconds: float
    op_ms: float  # the workload's unit of latency, in ms
    data: dict = field(default_factory=dict)


@dataclass
class Verdict:
    valid: bool
    gate: bool
    detail: str


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _design_config(a: float, half: float, n: int) -> dict:
    """Paper settings shared by the design workloads (criteria 5 and 6)."""
    return {
        "grid": {"x_min": -half, "x_max": half, "n": n},
        "design": {"a": a, "b": 1e3, "mu": 2.0, "delta": 1e-4,
                   "beta_mode": "fixed", "beta_halfwidth": 2.0},
        "init": {"A": 1.5, "B": 1.5},
        "optimizer": {"symmetric": True},
    }


class Design:
    """One symmetric barrier L-BFGS descent from the sech start.

    The inputs are the paper's problem and do not depend on the seed: on
    the pure-Python backend a start perturbed by 1e-12 already changes the
    optimizer's iteration count (85, 105 or 108), so a seeded start would
    measure that chaos instead of the code's speed.
    """

    def __init__(self, a: float, half: float, n: int, criterion: int):
        self.cfg = _design_config(a, half, n)
        self.criterion = criterion

    def write_inputs(self, seed: int, work: str) -> None:
        _write_json(os.path.join(work, "config.json"), self.cfg)

    def load(self, work: str) -> dict:
        from pdp.config import builders, load_config

        cfg = load_config(os.path.join(work, "config.json"))
        grid = builders.grid(cfg)
        return {
            "params": builders.design(cfg, grid),
            "V0": builders.initial_potential(cfg, grid),
            "opts": builders.opt_options(cfg),
        }

    def pass_ops(self, st: dict) -> int:
        return 1

    def run(self, st: dict, i: int, clock=time.perf_counter) -> Outcome:
        from pdp import fgr, optimizer

        fgr.clear_cache()
        t0 = clock()
        out = optimizer.optimize(st["V0"], st["params"], st["opts"])
        dt = clock() - t0
        return Outcome(t0, dt, 1e3 * dt, {"out": out})

    def check(self, st: dict, oc: Outcome, first: Outcome) -> Verdict:
        from pdp import fgr, optimizer

        params, out = st["params"], oc.data["out"]
        m1, m2, m3 = out.margins
        v = out.V_opt.values
        fgr.clear_cache()
        regamma = fgr.gamma(out.V_opt, params).gamma
        ref = first.data["out"]
        valid = (
            m1 > 0 and m2 > 0 and m3 > 0
            and bool((v == v[::-1]).all())
            and regamma == out.result.gamma
            and out.iterations == ref.iterations
            and out.result.gamma == ref.result.gamma
        )
        if "gamma_init" not in st:  # criterion 5's start value, once per run
            fgr.clear_cache()
            st["gamma_init"] = fgr.gamma(st["V0"], params).gamma
        g0, g1 = st["gamma_init"], out.result.gamma
        if self.criterion == 5:
            gate = (
                1e-3 <= g0 <= 1e-1
                and g1 <= 1e-6
                and out.iterations <= 150
                and m1 > 0.01 * params.mu
                and m2 > 0.01 * params.delta
                and m3 > 0.01 * params.b**2
                and oc.seconds < 1800
            )
            detail = (
                f"criterion 5: gamma {g0:.3e} -> {g1:.3e} in {out.iterations} iterations, "
                f"margins ({m1:.3g}, {m2:.3g}, {m3:.3g}) vs 1% scales "
                f"({0.01 * params.mu:.3g}, {0.01 * params.delta:.3g}, {0.01 * params.b**2:.3g})"
            )
        else:
            mech = optimizer.classify_mechanism(out.result)
            gate = mech == "A"
            detail = (
                f"criterion 6: mechanism {mech} (|t|^2 = {abs(out.result.scattering.t) ** 2:.2e}, "
                f"gamma = {g1:.2e}, {out.iterations} iterations)"
            )
        return Verdict(valid, gate, detail)


class Simulate:
    """Criterion 7's eps = 0.2 propagation of the a=12 sech well's bound state.

    The seed sets a global phase of the start state.  The projection
    |<psi, phi(t)>|^2 does not depend on it, so every seed does the same
    work and must fit the same rate, while the inputs differ.
    """

    def write_inputs(self, seed: int, work: str) -> None:
        import random

        cfg = _design_config(12.0, 20.0, 2001)
        cfg["simulator"] = {
            "epsilon": SIM_EPSILON, "t_final": SIM_T_FINAL, "dt_max": 0.05,
            "domain": {"x_min": -60.0, "x_max": 60.0, "n": 3001},
            "fit_window": list(SIM_WINDOW),
        }
        _write_json(os.path.join(work, "config.json"), cfg)
        phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        _write_json(os.path.join(work, "start.json"), {"phase": phase})

    def load(self, work: str) -> dict:
        from pdp import fgr
        from pdp.config import builders, load_config

        cfg = load_config(os.path.join(work, "config.json"))
        with open(os.path.join(work, "start.json")) as fh:
            phase = float(json.load(fh)["phase"])
        grid = builders.grid(cfg)
        sim = builders.sim_config(cfg)
        V_design = builders.initial_potential(cfg, grid)
        fgr.clear_cache()
        gamma = fgr.gamma(V_design, builders.design(cfg, grid)).gamma
        return {
            "sim": sim,
            "V_design": V_design,
            "beta": builders.beta(cfg, sim.domain),
            "phase": complex(math.cos(phase), math.sin(phase)),
            "gamma": gamma,
        }

    def pass_ops(self, st: dict) -> int:
        return 1

    def run(self, st: dict, i: int, clock=time.perf_counter) -> Outcome:
        from pdp import fgr, timedomain
        from pdp.spectral import solve_ground_state

        fgr.clear_cache()
        sim = st["sim"]
        V = timedomain.resample_potential(st["V_design"], sim.domain)
        phi0 = st["phase"] * solve_ground_state(V).psi
        t0 = clock()
        res = timedomain.propagate(V, st["beta"], phi0, sim)
        dt = clock() - t0
        rate = timedomain.fit_decay_rate(res, SIM_WINDOW)
        steps = len(res.times) - 1
        return Outcome(t0, dt, 1e3 * dt / steps, {"res": res, "rate": rate, "steps": steps})

    def check(self, st: dict, oc: Outcome, first: Outcome) -> Verdict:
        res, rate = oc.data["res"], oc.data["rate"]
        valid = (
            math.isfinite(rate)
            and abs(res.projection_sq[0] - 1.0) < 1e-9
            and bool((res.norm[1:] <= res.norm[0] * (1 + 1e-9)).all())
            and rate == first.data["rate"]
        )
        model = 2 * SIM_EPSILON**2 * st["gamma"]
        rel = abs(rate - model) / model
        detail = (
            f"criterion 7: rate {rate:.4e} vs 2 eps^2 Gamma = {model:.4e} "
            f"({100 * rel:.1f}%), {oc.data['steps']} CN steps"
        )
        return Verdict(valid, rel < 0.2, detail)


def random_symmetric_wells(grid, params, rng, count):
    """Feasible symmetric wells: sech core plus a symmetric bump pair.

    The family of criteria 1 and 4: draws are kept when H_V has exactly one
    bound state, the Wronskian is resolved with W^2 > delta, and the H1
    budget holds.
    """
    import numpy as np

    from pdp import fgr
    from pdp.errors import PdpError
    from pdp.grid import PotentialField, h1_norm_sq
    from pdp.spectral import wronskian_at_zero

    out = []
    x = grid.x
    while len(out) < count:
        A = rng.uniform(0.9, 2.0)
        B = rng.uniform(0.6, 1.6)
        amp = rng.uniform(-0.25, 0.25)
        c = rng.uniform(1.0, 6.0)
        s = rng.uniform(1.5, 3.0)
        v = -A / np.cosh(B * x) + amp * (
            np.exp(-((x - c) ** 2) / s) + np.exp(-((x + c) ** 2) / s)
        )
        V = PotentialField(grid, np.where(np.abs(x) <= params.a, v, 0.0), params.a)
        try:
            res = fgr.gamma(V, params)
        except PdpError:
            continue
        if res.bound_state.count_negative_eigenvalues != 1:
            continue
        wr = wronskian_at_zero(V, params.wronskian_tol)
        if wr.valid and wr.w0**2 > params.delta and h1_norm_sq(V) < params.b**2:
            out.append(V)
    return out


class Evaluate:
    """Closed loop, one client: ``pdp evaluate`` on seeded feasible wells.

    Each request runs in-process through ``pdp.cli.main`` and writes Gamma,
    W, a 40-point t(k) table, three CSVs and a manifest.  The fgr cache is
    cleared before every request, so every Gamma is computed afresh.
    """

    def write_inputs(self, seed: int, work: str) -> None:
        import numpy as np

        from pdp.config import builders, load_config

        path = os.path.join(work, "config.json")
        _write_json(path, _design_config(12.0, 20.0, 2001))
        cfg = load_config(path)
        grid = builders.grid(cfg)
        params = builders.design(cfg, grid)
        wells = random_symmetric_wells(grid, params, np.random.default_rng(seed), POOL_SIZE)
        for j, V in enumerate(wells):
            with open(os.path.join(work, f"well_{j:02d}.csv"), "w", newline="\n") as fh:
                fh.write("x,V\n")
                for xi, vi in zip(grid.x, V.values):
                    fh.write(f"{xi:.17g},{vi:.17g}\n")

    def load(self, work: str) -> dict:
        from pdp.config import builders, load_config

        cfg_path = os.path.join(work, "config.json")
        cfg = load_config(cfg_path)
        wells = sorted(f for f in os.listdir(work) if f.startswith("well_"))
        grid = builders.grid(cfg)
        return {
            "config": cfg_path,
            "wells": [os.path.join(work, f) for f in wells],
            "out": os.path.join(work, "out"),  # one artifact directory per well
            "grid": grid,
            "params": builders.design(cfg, grid),
            "a": float(cfg["design"]["a"]),
            # per well, filled by check: Gamma from the Jost form, and the
            # Gamma of the first request, which every repeat must reproduce
            "jost": {},
            "gamma": {},
        }

    def pass_ops(self, st: dict) -> int:
        return len(st["wells"])

    def run(self, st: dict, i: int, clock=time.perf_counter) -> Outcome:
        from pdp import cli, fgr

        well = st["wells"][i % len(st["wells"])]
        out = os.path.join(st["out"], os.path.basename(well)[:-4])
        argv = ["evaluate", "--config", st["config"], "--potential", well, "--out", out]
        sink = io.StringIO()
        fgr.clear_cache()
        t0 = clock()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        dt = clock() - t0
        return Outcome(t0, dt, 1e3 * dt, {"well": well, "rc": rc, "out": out})

    def check(self, st: dict, oc: Outcome, first: Outcome) -> Verdict:
        import numpy as np

        from pdp import fgr
        from pdp.grid import PotentialField

        well, rc = oc.data["well"], oc.data["rc"]
        if rc != 0:
            return Verdict(False, False, f"{os.path.basename(well)}: exit code {rc}")
        with open(os.path.join(oc.data["out"], "manifest.json")) as fh:
            man = json.load(fh)
        head = man["headline"]
        g = head["gamma"]
        if well not in st["jost"]:
            data = np.loadtxt(well, delimiter=",", skiprows=1)
            V = PotentialField(st["grid"], data[:, 1], st["a"])
            fgr.clear_cache()
            st["jost"][well] = fgr.gamma_jost_form(V, st["params"])
            st["gamma"][well] = g
        rel = abs(st["jost"][well] - g) / g
        valid = (
            sorted(man["outputs"]) == ["V_opt.csv", "psi.csv", "transmission.csv"]
            and g == st["gamma"][well]
        )
        gate = head["n_bound_states"] == 1 and rel <= 1e-8
        detail = (
            f"{os.path.basename(well)}: gamma {g:.4e}, {head['n_bound_states']} bound "
            f"state(s), |jost - gamma| / gamma = {rel:.1e}"
        )
        return Verdict(valid, gate, detail)


WORKLOADS = {
    "design-a12": Design(a=12.0, half=20.0, n=2001, criterion=5),
    "design-a64": Design(a=64.0, half=80.0, n=3001, criterion=6),
    "simulate-decay": Simulate(),
    "evaluate-batch": Evaluate(),
}
