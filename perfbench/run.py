"""pdp benchmark: run one workload, timed or traced, and print its metrics.

    python3 perfbench/run.py --workload design-a12 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the workload's operations run back to back with tracing
off for ``--seconds`` and the end-to-end metrics are printed.  With
``--trace 1`` a fixed pass of operations runs alternately untraced and
traced, and the per-layer metrics of the traced passes are printed.  Each
metric is printed by name with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``failed`` counts operations that missed their acceptance gate;
``correct`` is false when an output fails its consistency check.

BLAS is pinned to one thread and the fgr cache is cleared before every
timed operation, so each repeat does the same work.  Times are scaled to a
reference machine speed sampled while they run (see calibrate.py);
the unscaled wall times are printed alongside.
"""
import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated this many times per run (in-process once, the rest in
# fresh interpreters) and reported as the median
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = [("op_p50_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

# per workload: printed name, unit and factor from ms of its timed operation
OP_NAMES = {
    "design-a12": ("design_s", "s", 1e-3),
    "design-a64": ("design_s", "s", 1e-3),
    "simulate-decay": ("cn_step_us", "us", 1e3),
    "evaluate-batch": ("evaluate_p50_ms", "ms", 1.0),
}

LAYER_FUNCS = [
    "spectral.solve_ground_state",
    "spectral.distorted_plane_waves",
    "spectral.outgoing_resolvent_solve",
    "spectral.scattering_k_derivative",
    "spectral.reduced_resolvent_at_eigenvalue",
    "spectral.wronskian_at_zero",
    "kernels.trisolve",
    "kernels.sturm_count_below",
    "kernels.march_half_bound",
    "kernels.cn_step_loop",
    "fgr.gamma",
    "fgr.gamma_gradient",
    "optimizer.barrier_objective",
    "optimizer.optimize",
    "timedomain.resample_potential",
    "timedomain.propagate",
    "timedomain.fit_decay_rate",
    "grid.h1_norm_sq",
    "grid.h1_gradient",
    "grid.trapz",
    "config.load_config",
    "cli.main",
]
REJECTS = ("InfeasiblePoint", "ResonanceBelowCutoff", "NoBoundState")


def _array_bytes(values) -> int:
    return sum(getattr(v, "nbytes", 0) for v in values)


# probes: values recorded with a span from its arguments and result
PROBES = {
    "spectral.wronskian_at_zero": lambda a, k, r: 0 if r.valid else 1,
    "optimizer.optimize": lambda a, k, r: r.iterations,
    # operand bytes computed from array sizes: inputs read plus the result
    "kernels.trisolve": lambda a, k, r: _array_bytes(a) + r.nbytes,
    # cn_step_loop(off, diag, sigma, beta, eps, mu, dt, t0, nsteps, phi):
    # every step reads the operands and rewrites phi in place
    "kernels.cn_step_loop": lambda a, k, r: (_array_bytes(a) + a[9].nbytes) * a[8],
}


def per_layer_spec():
    """[(metric name, unit, fn(stats) -> value)] for the traced runs."""

    def field(fn, key):
        return lambda s: s.get(fn, {}).get(key, 0)

    def ratio(fn, num):
        def f(s):
            st = s.get(fn)
            return num(st) / st["calls"] if st else 0.0
        return f

    spec = []
    for fn in LAYER_FUNCS:
        spec.append((f"{fn}.calls", "count", field(fn, "calls")))
        spec.append((f"{fn}.self_s", "s", field(fn, "self_s")))
    spec += [
        ("spectral.wronskian_at_zero.invalid", "count", field("spectral.wronskian_at_zero", "probe")),
        ("optimizer.optimize.iterations", "count", field("optimizer.optimize", "probe")),
        ("optimizer.barrier_objective.reject_ratio", "ratio",
         ratio("optimizer.barrier_objective", lambda st: sum(st["raised"].values()))),
        ("fgr.gamma.cache_hit_ratio", "ratio", ratio("fgr.gamma", lambda st: st["no_solve"])),
        ("kernels.trisolve.bytes_computed", "B", field("kernels.trisolve", "probe")),
        ("kernels.cn_step_loop.bytes_computed", "B", field("kernels.cn_step_loop", "probe")),
    ]
    for exc in REJECTS:
        spec.append((
            f"optimizer.reject.{exc}", "count",
            lambda s, exc=exc: s.get("optimizer.barrier_objective", {}).get("raised", {}).get(exc, 0),
        ))
    return spec


def environment() -> dict:
    """Backend, library versions, usable cores and BLAS threads of this run."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    from pdp import kernels

    blas_threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                blas_threads = int(getattr(dll, sym)())
                break
    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_setup(wl, seed: int, work: str):
    """Write the inputs and build the objects from them.

    Returns (set-up seconds scaled to the reference machine, raw seconds,
    state); the calibration runs right after, in the same process.
    """
    os.makedirs(work)
    t0 = time.perf_counter()
    wl.write_inputs(seed, work)
    state = wl.load(work)
    raw = time.perf_counter() - t0
    from calibrate import REF_S, calibrate

    return raw * REF_S / calibrate(), raw, state


def setup_probe(name: str, seed: int, work: str) -> dict:
    """One set-up in a fresh interpreter, so the package import is timed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
           "--seed", str(seed), "--work", work]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the ceil(q n)-th smallest of n samples."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Tally:
    """Counts operations and gate outcomes; keeps the first three details,
    preferring failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.valid = True
        self.details: list[str] = []

    def add(self, verdict) -> None:
        self.attempted += 1
        self.failed += not verdict.gate
        self.valid &= verdict.valid
        failing = not (verdict.gate and verdict.valid)
        if (failing or not self.details) and len(self.details) < 3:
            self.details.append(verdict.detail)


def run_untraced(wl, state, seconds: float, tally: Tally):
    """Operations back to back for `seconds` while a SpeedProbe samples the
    machine's speed; returns (raw op_ms, reference-machine op_ms)."""
    from calibrate import REF_S, SpeedProbe

    outcomes, first = [], None
    with SpeedProbe() as probe:
        start = probe.clock()
        while not outcomes or probe.clock() - start < seconds:
            oc = wl.run(state, len(outcomes), probe.clock)
            first = first or oc
            tally.add(wl.check(state, oc, first))
            outcomes.append(oc)
    raw = [oc.op_ms for oc in outcomes]
    scaled = [oc.op_ms * REF_S / probe.round_time(oc.start, oc.start + oc.seconds)
              for oc in outcomes]
    print(f"speed probe: {len(probe.samples)} rounds, mean "
          f"{1e3 * sum(dt for _, dt in probe.samples) / len(probe.samples):.4g} ms "
          f"(reference {REF_S * 1e3:g} ms)")
    return raw, scaled


def run_traced(wl, state, seconds: float, tally: Tally):
    """Alternate an untraced and a traced pass of the same operations."""
    from tracer import Tracer

    spec = per_layer_spec()
    n = wl.pass_ops(state)
    untraced, traced, per_pass = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        for traced_pass in (False, True):
            if traced_pass:
                with Tracer(PROBES) as tr:
                    outcomes = [wl.run(state, i) for i in range(n)]
                stats = tr.layer_stats()
                per_pass.append({m: f(stats) for m, _, f in spec})
            else:
                outcomes = [wl.run(state, i) for i in range(n)]
            for oc in outcomes:
                first = first or oc
                tally.add(wl.check(state, oc, first))
            (traced if traced_pass else untraced).append(sum(oc.seconds for oc in outcomes))
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name, unit, _ in spec:
        metrics[name] = {"value": statistics.median_low(p[name] for p in per_pass), "unit": unit}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics, len(per_pass), untraced, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    tally = Tally()
    try:
        setup_s, setup_raw, state = timed_setup(wl, seed, os.path.join(work, "inputs"))
        print(f"workload {name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        if trace:
            metrics, passes, untraced, traced = run_traced(wl, state, seconds, tally)
            print(f"{passes} traced and {passes} untraced passes of {wl.pass_ops(state)} "
                  f"operation(s); pass time untraced {statistics.median(untraced):.4g} s, "
                  f"traced {statistics.median(traced):.4g} s")
        else:
            probes = [setup_probe(name, seed, os.path.join(work, f"probe{k}"))
                      for k in range(1, SETUP_SAMPLES)]
            samples = [setup_s] + [p["setup_s"] for p in probes]
            samples_raw = [setup_raw] + [p["setup_raw_s"] for p in probes]
            raw, ops = run_untraced(wl, state, seconds, tally)
            alias, unit, unit_factor = OP_NAMES[name]
            p50 = statistics.median(ops)
            print(f"{alias} = {p50 * unit_factor:.6g} {unit} (median of {len(ops)} operations; "
                  f"{statistics.median(raw) * unit_factor:.6g} {unit} unscaled wall time)")
            if name == "evaluate-batch":
                print(f"evaluate_p90_ms = {quantile(ops, 0.9):.6g} ms (of {len(ops)} requests; "
                      f"{quantile(raw, 0.9):.6g} ms unscaled)")
            print(f"setup_s unscaled wall time = {statistics.median(samples_raw):.6g} s "
                  f"(median of {len(samples)})")
            metrics = {
                "op_p50_ms": {"value": p50, "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                "setup_s": {"value": statistics.median(samples), "unit": "s"},
            }
        print(f"fail_frac = {tally.failed / tally.attempted:.6g} ratio "
              f"({tally.failed} of {tally.attempted} operations missed their gate)")
        for d in tally.details:
            print(f"  gate: {d}")
        for m, v in metrics.items():
            print(f"{m} = {v['value']:.6g} {v['unit']}")
        print(json.dumps({
            "correct": tally.valid,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # left in place while another run uses it
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # before NumPy is first imported; set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "pdp", "__init__.py")):
        print(f"pdp sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_s, raw, _ = timed_setup(WORKLOADS[args.workload], args.seed, args.work)
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": raw}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
