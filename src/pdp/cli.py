"""Command-line front end: batch runs, manifests, CSV/JSON artifacts.

Subcommands: evaluate, optimize, sweep, simulate, gradcheck, filter.
All runs are driven by a JSON config (see config.DEFAULTS); flags override
individual fields.  Outputs are CSV for arrays and JSON for manifests,
formatted deterministically so identical configs reproduce files
byte-identically.

Exit codes: 0 success, 1 gradcheck found a gradient off by more than its
tolerance, 2 domain error (no bound state, infeasible point), 3 solver
failure, 4 configuration error.
"""
from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, fgr, optimizer, timedomain
from .config import builders, load_config, merge
from .errors import ConfigError, PdpError, SolverFailure
from .grid import Grid, PotentialField, h1_norm_sq, interpolate_potential, trapz
from .spectral import solve_ground_state, transmission, wronskian_at_zero

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _fmt(value) -> str:
    """Deterministic shortest-roundtrip cell formatting."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _quote(cell):
    """A string cell holding a comma, quote or newline, quoted as RFC 4180 says.

    The cell is wrapped in double quotes and each quote in it doubled; any
    other cell is returned unchanged.
    """
    if isinstance(cell, str) and any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_column(name: str, values) -> tuple[str, list]:
    """printf conversion and cell values of one column, formatted as _fmt does.

    A column of floats takes %.17g (format(v, ".17g")); a column of ints or
    strings takes %s (str(v)), with string cells quoted by _quote.  A float
    array is classified by its dtype, without a pass over its cells.
    """
    if isinstance(values, np.ndarray):
        return ("%.17g" if values.dtype.kind == "f" else "%s"), values.tolist()
    values = list(values)
    floats = sum(isinstance(v, (float, np.floating)) for v in values)
    if 0 < floats < len(values):
        raise TypeError(f"CSV column {name!r} mixes floats with other values")
    if floats:
        return "%.17g", values
    return "%s", [_quote(v) for v in values]


def _write_csv(path: str, columns: dict) -> None:
    """Write equal-length columns, keyed by header name, as one CSV file.

    All cells are formatted in one %-operation over a row template repeated
    once per row, byte-identical to joining _fmt(v) cell by cell (string
    cells quoted by _quote first).
    """
    convs, cols = zip(*(_csv_column(name, v) for name, v in columns.items()))
    nrows = len(cols[0])
    if any(len(c) != nrows for c in cols):
        raise ValueError("CSV columns differ in length")
    template = ",".join(convs) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*cols)))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write(template * nrows % cells)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Emitter:
    """Collects written artifact names for the run manifest."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.outputs: list[str] = []
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

    def csv(self, name: str, columns: dict) -> None:
        """Write columns ({header: values}) to out_dir/name."""
        if self.out_dir is None:
            return
        _write_csv(os.path.join(self.out_dir, name), columns)
        self.outputs.append(name)

    def manifest(self, command: str, cfg: dict, headline: dict) -> None:
        if self.out_dir is None:
            return
        doc = {
            "command": command,
            "config": cfg,
            "version": __version__,
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": sorted(self.outputs),
            "headline": headline,
        }
        _write_json(os.path.join(self.out_dir, "manifest.json"), doc)


def _load_potential_csv(path: str, grid: Grid, a: float) -> PotentialField:
    """Read an (x, V) CSV and sample it onto the working grid."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read potential file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"potential file {path} is not (x,V) CSV: {exc}") from exc
    if data.shape[1] < 2:
        raise ConfigError(f"potential file {path} needs x and V columns")
    if not np.isfinite(data[:, :2]).all():
        raise ConfigError(f"potential file {path} has a non-finite x or V value")
    if not (np.diff(data[:, 0]) > 0).all():
        raise ConfigError(f"potential file {path} needs strictly increasing x")
    return interpolate_potential(data[:, 0], data[:, 1], a, grid)


def _resolve_potential(cfg: dict, grid: Grid, path: str | None) -> PotentialField:
    if path is None:
        return builders.initial_potential(cfg, grid)
    return _load_potential_csv(path, grid, float(cfg["design"]["a"]))


def _emit_potential_artifacts(em: Emitter, V: PotentialField, res) -> None:
    x = V.grid.x
    em.csv("V_opt.csv", {"x": x, "V": V.values})
    em.csv("psi.csv", {"x": x, "psi": res.bound_state.psi})
    ks = np.linspace(0.1, 4.0, 40)
    ts = transmission(V, ks)
    em.csv(
        "transmission.csv",
        {
            "k": ks,
            "t_sq": [abs(t) ** 2 for t in ts.tolist()],
            "re_t": ts.real,
            "im_t": ts.imag,
        },
    )


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    grid = builders.grid(cfg)
    params = builders.design(cfg, grid)
    V = _resolve_potential(cfg, grid, args.potential)
    res = fgr.gamma(V, params)
    wr = wronskian_at_zero(V, params.wronskian_tol)
    diag = res.diagnostics()
    diag.update(
        {
            "w0": wr.w0,
            "wronskian_variance": wr.variance,
            "margin_resonance": res.bound_state.lam + params.mu,
            "margin_wronskian": wr.w0**2 - params.delta,
            "margin_h1": params.b**2 - h1_norm_sq(V),
            "n_bound_states": res.bound_state.count_negative_eigenvalues,
        }
    )
    for key in sorted(diag):
        print(f"{key} = {_fmt(diag[key])}")
    em = Emitter(args.out)
    if args.out:
        _emit_potential_artifacts(em, V, res)
        em.manifest("evaluate", cfg, diag)
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    if args.symmetric:
        cfg["optimizer"]["symmetric"] = True
    grid = builders.grid(cfg)
    params = builders.design(cfg, grid)
    opts = builders.opt_options(cfg)
    V0 = _resolve_potential(cfg, grid, args.potential)
    gamma_init = fgr.gamma(V0, params).gamma
    out = optimizer.optimize(V0, params, opts)
    headline = {
        "gamma_init": gamma_init,
        "gamma_opt": out.result.gamma,
        "lambda": out.result.bound_state.lam,
        "k_res": out.result.k_res,
        "iterations": out.iterations,
        "status": out.status,
        "mechanism": optimizer.classify_mechanism(out.result),
        "margins": list(out.margins),
    }
    print(
        f"gamma: {_fmt(gamma_init)} -> {_fmt(out.result.gamma)} "
        f"in {out.iterations} iterations ({out.status})"
    )
    em = Emitter(args.out)
    if args.out:
        trace_cols = [
            "iter",
            "tau",
            "gamma",
            "barrier_value",
            "grad_norm",
            "step_length",
            "margin_resonance",
            "margin_wronskian",
            "margin_h1",
            "wronskian_variance",
        ]
        em.csv(
            "trace.csv",
            {c: [rec[c] for rec in out.trace.iterates] for c in trace_cols},
        )
        _emit_potential_artifacts(em, out.V_opt, out.result)
        em.manifest("optimize", cfg, headline)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    vary = args.vary or cfg["sweep"]["vary"]
    try:
        raw = args.values.split(",") if args.values else cfg["sweep"]["values"]
        values = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep values must be numbers: {exc}") from exc
    if vary not in ("a", "mu", "b", "delta"):
        raise ConfigError(f"cannot sweep over {vary!r} (one of a, mu, b, delta)")
    grid = builders.grid(cfg)
    opts = builders.opt_options(cfg)
    labels, gamma_init, outs, errors = [], [], [], []
    for v in values:
        sub = merge(cfg, {"design": {vary: v}})
        # a bad config ends the whole sweep; a value whose optimization
        # fails is recorded in its row
        params = builders.design(sub, grid)
        V0 = builders.initial_potential(sub, grid)
        g0 = out = error = None
        try:
            g0 = fgr.gamma(V0, params).gamma
            out = optimizer.optimize(V0, params, opts)
        except PdpError as exc:
            error = f"{type(exc).__name__}: {exc}"
        labels.append(f"{vary}={_fmt(v)}")
        gamma_init.append(g0)
        outs.append(out)
        errors.append(error)
        print(
            f"{labels[-1]}: gamma_opt="
            + ("failed: " + error if error else _fmt(out.result.gamma))
        )
    if args.out:
        em = Emitter(args.out)
        em.csv(
            "summary.csv",
            {
                "label": labels,
                vary: values,
                "gamma_init": ["" if g is None else _fmt(g) for g in gamma_init],
                "gamma_opt": ["" if o is None else _fmt(o.result.gamma) for o in outs],
                "iterations": [0 if o is None else o.iterations for o in outs],
                "mechanism": [
                    "" if o is None else optimizer.classify_mechanism(o.result) for o in outs
                ],
                "error": [e or "" for e in errors],
            },
        )
        for label, out in zip(labels, outs):
            if out is not None:
                name = f"V_opt_{label.replace('=', '_')}.csv"
                em.csv(name, {"x": grid.x, "V": out.V_opt.values})
        em.manifest(
            "sweep",
            cfg,
            {
                "vary": vary,
                "values": values,
                "gamma_opt": [None if o is None else o.result.gamma for o in outs],
                "errors": errors,
            },
        )
    return EXIT_OK


def _sim_inputs(cfg, args):
    sim = builders.sim_config(cfg)
    grid = builders.grid(cfg)
    V_design = _resolve_potential(cfg, grid, args.potential)
    V = timedomain.resample_potential(V_design, sim.domain)
    if cfg["design"]["beta_mode"] == "equals_v":
        beta = V
    else:
        beta = builders.beta(cfg, sim.domain)
    return sim, V, beta


def _emit_sim(em: Emitter, cfg: dict, command: str, result) -> None:
    em.csv(
        "projection.csv",
        {"t": result.times, "projection_sq": result.projection_sq, "norm": result.norm},
    )
    em.manifest(
        command,
        cfg,
        {
            "final_projection_sq": float(result.projection_sq[-1]),
            "initial_projection_sq": float(result.projection_sq[0]),
            "fitted_rate": None if np.isnan(result.fitted_rate) else result.fitted_rate,
        },
    )


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim, V, beta = _sim_inputs(cfg, args)
    psi = solve_ground_state(V).psi
    result = timedomain.propagate(V, beta, psi.astype(np.complex128), sim)
    try:
        window = tuple(cfg["simulator"]["fit_window"])
        result.fitted_rate = timedomain.fit_decay_rate(result, window)
    except ValueError:
        pass  # non-positive data or empty window: rate stays nan
    print(
        f"projection_sq: {_fmt(result.projection_sq[0])} -> {_fmt(result.projection_sq[-1])}"
        + ("" if np.isnan(result.fitted_rate) else f", fitted rate {_fmt(result.fitted_rate)}")
    )
    em = Emitter(args.out)
    if args.out:
        _emit_sim(em, cfg, "simulate", result)
    return EXIT_OK


def cmd_filter(args) -> int:
    cfg = load_config(args.config)
    sim, V, beta = _sim_inputs(cfg, args)
    amp = float(cfg["simulator"]["noise_amplitude"])
    seed = int(cfg["simulator"]["seed"]) if args.seed is None else args.seed
    result = timedomain.filter_experiment(V, beta, sim, amp, seed)
    retained = result.projection_sq[-1] / result.projection_sq[0]
    print(f"projection retained: {_fmt(retained)}")
    em = Emitter(args.out)
    if args.out:
        _emit_sim(em, cfg, "filter", result)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    grid = builders.grid(cfg)
    params = builders.design(cfg, grid)
    gc = cfg["gradcheck"]
    rng = np.random.default_rng(int(gc["seed"]))
    eps = float(gc["fd_step"])
    n_dir = int(gc["n_directions"])
    V = builders.initial_potential(cfg, grid)
    x = grid.x
    a = params.a

    def bump():
        c = rng.uniform(-0.7 * a, 0.7 * a)
        width = rng.uniform(0.5, 2.0)
        w = np.exp(-(((x - c) / width) ** 2))
        return np.where(np.abs(x) <= a, w, 0.0)

    res = fgr.gamma(V, params)
    wr = wronskian_at_zero(V, params.wronskian_tol)
    fields = {
        "gamma": (fgr.gamma_gradient(V, params, res), lambda W: fgr.gamma(W, params).gamma),
        "lambda": (
            fgr.lambda_gradient(V, res.bound_state),
            lambda W: solve_ground_state(W).lam,
        ),
        "k": (fgr.k_gradient(V, params, res), lambda W: fgr.gamma(W, params).k_res),
        "wronskian": (fgr.wronskian_gradient(V, wr), lambda W: wronskian_at_zero(W).w0),
    }
    worst = {}
    for name, (gfield, functional) in fields.items():
        errs = []
        for _ in range(n_dir):
            w = bump()
            fp = functional(V.with_values(V.values + eps * w))
            fm = functional(V.with_values(V.values - eps * w))
            fd = (fp - fm) / (2 * eps)
            an = gfield.pair(w)
            errs.append(abs(fd - an) / max(abs(fd), 1e-300))
        worst[name] = max(errs)
    failed = False
    for name in sorted(worst):
        ok = worst[name] < 1e-3
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: max relative error {worst[name]:.3e}")
    if args.out:
        em = Emitter(args.out)
        em.manifest("gradcheck", cfg, {"max_relative_errors": worst, "passed": not failed})
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pdp",
        description="Design of Schrodinger potentials minimizing the "
        "golden-rule decay rate of a forced bound state.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--out", required=out_required, help="output directory for artifacts")

    p = sub.add_parser("evaluate", help="Gamma and diagnostics for one potential")
    common(p)
    p.add_argument("--potential", help="(x,V) CSV; default: sech well from config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="barrier L-BFGS minimization of Gamma")
    common(p, out_required=False)
    p.add_argument("--potential", help="starting potential CSV (default: config init)")
    p.add_argument("--symmetric", action="store_true", help="optimize in the symmetric subspace")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="independent optimize runs over a parameter")
    common(p)
    p.add_argument("--vary", help="design field to vary (a, mu, b, delta)")
    p.add_argument("--values", help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="time-domain propagation from the bound state")
    common(p)
    p.add_argument("--potential", help="(x,V) CSV; default: sech well from config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="noisy-start filtering experiment")
    common(p)
    p.add_argument("--potential", help="(x,V) CSV; default: sech well from config")
    p.add_argument("--seed", type=int, help="noise seed (overrides config)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("gradcheck", help="finite-difference validation of gradients")
    common(p)
    p.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PdpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
