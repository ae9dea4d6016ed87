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
import functools
import json
import math
import os
import platform
import sys
import warnings

import numpy as np
import scipy

from . import __version__, fgr, kernels, optimizer, timedomain
from .config import builders, load_config, merge, override
from .errors import ConfigError, PdpError, SolverFailure
from .grid import Grid, PotentialField, _mirrored, h1_norm_sq, interpolate_potential, trapz
from .spectral import solve_ground_state, wronskian_at_zero

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _fmt(value) -> str:
    """Deterministic round-trip cell formatting.

    Floats take 17 significant digits (%.17g), which always read back to
    the same float but are not the shortest such string (0.1 is written
    0.10000000000000001).
    """
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


def _float_cells(values: list) -> list[str]:
    """%.17g strings of a list of floats, formatted in one %-operation."""
    cells = ("%.17g\n" * len(values) % tuple(values)).split("\n")
    cells.pop()  # the empty string after the last newline
    return cells


def _array_cells(a: np.ndarray) -> list[str]:
    """%.17g strings of a float64 array, from half the nodes where it is mirrored.

    With n = 2c + 1 nodes, a column that reads the same reversed, bit for
    bit (grid._mirrored, as a mirror-symmetric V or psi does), is formatted
    on nodes 0..c and the reversed cells fill nodes c+1..n-1.  Every other
    array is formatted node by node.  The cells are those of _float_cells
    either way.
    """
    n = a.shape[0]
    if n % 2 and a.dtype == np.float64 and _mirrored(a):
        half = _float_cells(a[: n // 2 + 1].tolist())
        return half + half[-2::-1]
    return _float_cells(a.tolist())


@functools.lru_cache(maxsize=8)
def _x_cells(grid: Grid) -> tuple[str, ...]:
    """The cells of grid.x (_array_cells), formatted once per grid per process.

    Equal grids have the same x, bit for bit, so one entry serves every
    command on that grid, as grid._support_mask does for its mask.
    """
    return tuple(_array_cells(grid.x))


def _csv_cells(name: str, values) -> list[str] | tuple[str, ...]:
    """The cells of one CSV column as strings, formatted as _fmt does.

    A column of floats takes %.17g (format(v, ".17g")); a column of ints or
    strings takes str(v), with string cells quoted by _quote.  A float
    array is classified by its dtype, without a pass over its cells, and
    formatted by _array_cells: on half the grid when it is mirrored.
    A Grid stands for its x column, whose cells are formatted once per
    grid per process (_x_cells).
    """
    if isinstance(values, Grid):
        return _x_cells(values)
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "f":
            return list(map(str, values.tolist()))
        return _array_cells(values)
    values = list(values)
    floats = sum(isinstance(v, (float, np.floating)) for v in values)
    if 0 < floats < len(values):
        raise TypeError(f"CSV column {name!r} mixes floats with other values")
    if floats:
        return _float_cells(values)
    return [str(_quote(v)) for v in values]


def _write_csv(path: str, columns: dict) -> None:
    """Write equal-length columns, keyed by header name, as one CSV file.

    Each column is formatted by _csv_cells (each float column in one
    %-operation) and the rows are joined from the cells, byte-identical to
    joining _fmt(v) cell by cell (string cells quoted by _quote first).
    """
    cols = [_csv_cells(name, v) for name, v in columns.items()]
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("CSV columns differ in length")
    lines = [",".join(columns), *map(",".join, zip(*cols))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite_or_null(obj):
    """obj with each non-finite float in it, at any depth, replaced by None.

    Strict JSON has no NaN or Infinity; None is written as null.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path: str, obj: dict) -> None:
    """Write obj as strict JSON, non-finite floats as null."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


class Emitter:
    """Writes one command's artifacts and collects their names for the manifest.

    A command builds its Emitter before its first solve, so an out_dir
    that cannot be a directory (a file of that name, say) is a ConfigError
    that names --out, raised before any work.  A grid's x column (given
    as the Grid itself, as V_opt.csv and psi.csv give it) is formatted
    once per grid per process, and a mirrored float array of odd length
    on half its nodes; see _csv_cells.  Every manifest records the
    runtime: the Python, NumPy and SciPy versions and kernels.BACKEND.
    """

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.outputs: list[str] = []
        if out_dir:
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(
                    f"--out {out_dir}: cannot make the output directory: {exc}"
                ) from exc

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
            "runtime": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "backend": kernels.BACKEND,
            },
        }
        _write_json(os.path.join(self.out_dir, "manifest.json"), doc)


def _load_potential_csv(path: str, grid: Grid, a: float) -> PotentialField:
    """Read an (x, V) CSV and sample it onto the working grid."""
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported below, not by numpy
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read potential file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"potential file {path} is not (x,V) CSV: {exc}") from exc
    if data.shape[0] == 0:
        raise ConfigError(f"potential file {path} has no data rows")
    if data.shape[1] < 2:
        raise ConfigError(f"potential file {path} needs x and V columns")
    if not np.isfinite(data[:, :2]).all():
        raise ConfigError(f"potential file {path} has a non-finite x or V value")
    if not (np.diff(data[:, 0]) > 0).all():
        raise ConfigError(f"potential file {path} needs strictly increasing x")
    try:
        return interpolate_potential(data[:, 0], data[:, 1], a, grid)
    except ValueError as exc:  # the support [-a, a] does not fit in the grid
        raise ConfigError(f"potential file {path}: {exc}") from exc


def _resolve_potential(cfg: dict, grid: Grid, path: str | None) -> PotentialField:
    if path is None:
        return builders.initial_potential(cfg, grid)
    return _load_potential_csv(path, grid, cfg["design"]["a"])


# the largest k of transmission.csv
_TABLE_K_MAX = 4.0


def _check_table_grid(grid: Grid) -> None:
    """ConfigError unless the grid carries every k of transmission.csv (k < 2/h)."""
    if not 0.5 * grid.h * _TABLE_K_MAX < 1.0:
        raise ConfigError(
            f"grid [{grid.x_min}, {grid.x_max}] with n = {grid.n} cannot carry "
            f"transmission.csv's k = {_TABLE_K_MAX}: it needs k < 2/h = {2.0 / grid.h:g}"
        )


def _transmission_table(res) -> dict:
    """The columns of transmission.csv: t(k) of res's potential on 40 k.

    t(k_res), which the headline reads, rides in the same support march
    (ScatteringState.transmission_table), so call this before the headline.
    """
    ks = np.linspace(0.1, _TABLE_K_MAX, 40)
    ts = res.scattering.transmission_table(ks)
    return {
        "k": ks,
        "t_sq": [abs(t) ** 2 for t in ts.tolist()],
        "re_t": ts.real,
        "im_t": ts.imag,
    }


def _emit_potential_artifacts(em: Emitter, V: PotentialField, res, table: dict) -> None:
    em.csv("V_opt.csv", {"x": V.grid, "V": V.values})
    em.csv("psi.csv", {"x": V.grid, "psi": res.bound_state.psi})
    em.csv("transmission.csv", table)


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    grid = builders.grid(cfg)
    if args.out:
        _check_table_grid(grid)
    params = builders.design(cfg, grid)
    V = _resolve_potential(cfg, grid, args.potential)
    em = Emitter(args.out)
    res = fgr.gamma(V, params)
    wr = wronskian_at_zero(V, params.wronskian_tol)
    table = _transmission_table(res) if args.out else None
    diag = res.diagnostics()
    diag.update(
        {
            "w0": wr.w0,
            "wronskian_variance": wr.variance,
            "margin_resonance": res.bound_state.lam + params.mu,
            # w0 * w0 overflows to inf where w0**2 raises OverflowError
            "margin_wronskian": wr.w0 * wr.w0 - params.delta,
            "margin_h1": params.b**2 - h1_norm_sq(V),
            "n_bound_states": res.bound_state.count_negative_eigenvalues,
        }
    )
    for key in sorted(diag):
        print(f"{key} = {_fmt(diag[key])}")
    if args.out:
        _emit_potential_artifacts(em, V, res, table)
        em.manifest("evaluate", cfg, diag)
    return EXIT_OK


def _given(**flags) -> dict:
    """The flags given on the command line (those not None), as a config section."""
    return {key: val for key, val in flags.items() if val is not None}


def _json_list(text: str):
    """A comma-separated flag as the JSON list [text], else text for the config check to reject."""
    try:
        return json.loads(f"[{text}]")
    except json.JSONDecodeError:
        return text


def cmd_optimize(args) -> int:
    cfg = override(load_config(args.config), {"optimizer": _given(symmetric=args.symmetric)})
    grid = builders.grid(cfg)
    if args.out:
        _check_table_grid(grid)
    params = builders.design(cfg, grid)
    opts = builders.opt_options(cfg)
    V0 = _resolve_potential(cfg, grid, args.potential)
    em = Emitter(args.out)
    gamma_init = fgr.gamma(V0, params).gamma
    out = optimizer.optimize(V0, params, opts)
    table = _transmission_table(out.result) if args.out else None
    headline = {
        "gamma_init": gamma_init,
        "gamma_opt": out.result.gamma,
        "lambda": out.result.bound_state.lam,
        "k_res": out.result.k_res,
        "iterations": out.iterations,
        "status": out.status,
        "stages": [
            {"tau": tau, "steps": steps, "reason": reason} for tau, steps, reason in out.stages
        ],
        "mechanism": optimizer.classify_mechanism(out.result),
        "margins": list(out.margins),
    }
    print(
        f"gamma: {_fmt(gamma_init)} -> {_fmt(out.result.gamma)} "
        f"in {out.iterations} iterations ({out.status})"
    )
    if args.out:
        em.csv("trace.csv", out.trace)
        _emit_potential_artifacts(em, out.V_opt, out.result, table)
        em.manifest("optimize", cfg, headline)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = override(load_config(args.config), {"sweep": _given(vary=args.vary, values=args.values)})
    vary, values = builders.sweep(cfg)
    grid = builders.grid(cfg)
    opts = builders.opt_options(cfg)
    em = Emitter(args.out)
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
                em.csv(name, {"x": grid, "V": out.V_opt.values})
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
    params = builders.design(cfg, sim.domain)
    return sim, V, V.with_values(params.beta_values(V))


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
            "fitted_rate": result.fitted_rate,
        },
    )


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim, V, beta = _sim_inputs(cfg, args)
    window = builders.fit_window(cfg)
    # the run's sample times are known before it runs: refuse a window
    # that holds too few of them without stepping at all
    samples = np.count_nonzero(timedomain._window_mask(sim.sample_times(), window))
    if samples < 2:
        raise ConfigError(
            f"simulator.fit_window {list(window)} holds {samples} of the run's samples "
            f"(t_final = {sim.t_final}), the fit needs at least two"
        )
    em = Emitter(args.out)
    psi = solve_ground_state(V).psi
    result = timedomain.propagate(V, beta, psi.astype(np.complex128), sim)
    try:
        result.fitted_rate = timedomain.fit_decay_rate(result, window)
    except ValueError:
        pass  # non-positive data on the window: rate stays nan
    print(
        f"projection_sq: {_fmt(result.projection_sq[0])} -> {_fmt(result.projection_sq[-1])}"
        + ("" if np.isnan(result.fitted_rate) else f", fitted rate {_fmt(result.fitted_rate)}")
    )
    _emit_sim(em, cfg, "simulate", result)  # writes nothing without --out
    return EXIT_OK


def cmd_filter(args) -> int:
    cfg = override(load_config(args.config), {"simulator": _given(seed=args.seed)})
    sim, V, beta = _sim_inputs(cfg, args)
    amp, seed = builders.noise(cfg)
    em = Emitter(args.out)
    result = timedomain.filter_experiment(V, beta, sim, amp, seed)
    retained = result.projection_sq[-1] / result.projection_sq[0]
    print(f"projection retained: {_fmt(retained)}")
    _emit_sim(em, cfg, "filter", result)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    grid = builders.grid(cfg)
    params = builders.design(cfg, grid)
    seed, n_dir, eps = builders.gradcheck(cfg)
    rng = np.random.default_rng(seed)
    V = builders.initial_potential(cfg, grid)
    em = Emitter(args.out)
    x = grid.x
    a = params.a

    def bump():
        c = rng.uniform(-0.7 * a, 0.7 * a)
        width = rng.uniform(0.5, 2.0)
        w = np.exp(-(((x - c) / width) ** 2))
        return np.where(V.support_mask, w, 0.0)

    res = fgr.gamma(V, params)
    wr = wronskian_at_zero(V, params.wronskian_tol)
    fields = {
        "gamma": (fgr.gamma_gradient(V, params, res), lambda W: fgr.gamma(W, params).gamma),
        "lambda": (fgr.lambda_gradient(res.bound_state), lambda W: solve_ground_state(W).lam),
        "k": (fgr.k_gradient(res), lambda W: fgr.gamma(W, params).k_res),
        "wronskian": (fgr.wronskian_gradient(wr), lambda W: wronskian_at_zero(W).w0),
    }
    worst = {}
    for name, (gfield, functional) in fields.items():
        errs = []
        for _ in range(n_dir):
            w = bump()
            fp = functional(V.with_values(V.values + eps * w))
            fm = functional(V.with_values(V.values - eps * w))
            fd = (fp - fm) / (2 * eps)
            an = float(trapz(grid, gfield * w))
            errs.append(abs(fd - an) / max(abs(fd), 1e-300))
        worst[name] = max(errs)
    failed = False
    for name in sorted(worst):
        ok = worst[name] < 1e-3
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: max relative error {worst[name]:.3e}")
    if args.out:
        em.manifest("gradcheck", cfg, {"max_relative_errors": worst, "passed": not failed})
    return EXIT_CHECK_FAILED if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pdp argument parser, built once per process; it holds no run state."""
    ap = argparse.ArgumentParser(
        prog="pdp",
        description="Design of Schrodinger potentials minimizing the "
        "golden-rule decay rate of a forced bound state.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--out", help="output directory for artifacts")

    p = sub.add_parser("evaluate", help="Gamma and diagnostics for one potential")
    common(p)
    p.add_argument("--potential", help="(x,V) CSV; default: sech well from config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="barrier L-BFGS minimization of Gamma")
    common(p)
    p.add_argument("--potential", help="starting potential CSV (default: config init)")
    p.add_argument("--symmetric", action="store_const", const=True,
                   help="start from the mirror average of the start potential "
                        "(needs a centred grid with odd n)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="independent optimize runs over a parameter")
    common(p)
    p.add_argument("--vary", help="design field to vary (a, mu, b, delta)")
    p.add_argument("--values", type=_json_list, help="comma-separated numbers")
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
