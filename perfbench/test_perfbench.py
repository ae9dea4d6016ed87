"""Self-tests of the benchmark: seeded inputs, the tracer, the metric lists.

Run with the package on the path:

    PYTHONPATH=src python3 -m pytest perfbench
"""
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import BINDING_SITES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def input_digest(name, seed, tmp_path):
    work = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    WORKLOADS[name].write_inputs(seed, str(work))
    h = hashlib.sha256()
    for f in sorted(os.listdir(work)):
        h.update(f.encode())
        h.update((work / f).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_follow_the_seed(name, tmp_path):
    assert input_digest(name, 3, tmp_path) == input_digest(name, 3, tmp_path)
    differ = input_digest(name, 3, tmp_path) != input_digest(name, 4, tmp_path)
    # the design workloads are the paper's fixed problems (see workloads.Design)
    assert differ == (not name.startswith("design-"))


def bindings():
    """Identity of every attribute the tracer may rebind."""
    mods = [importlib.import_module(m) for m in BINDING_SITES]
    out = {}
    for modname, mod in zip(BINDING_SITES, mods):
        for attr, val in vars(mod).items():
            out[(modname, attr)] = id(val)
    builders = importlib.import_module("pdp.config").builders
    for attr, val in vars(builders).items():
        out[("builders", attr)] = id(val)
    return out


def test_tracer_restores_originals():
    from pdp import fgr, spectral

    before = bindings()
    original = spectral.solve_ground_state
    with Tracer():
        assert fgr.solve_ground_state is not original
        assert spectral.solve_ground_state is fgr.solve_ground_state
    assert bindings() == before
    assert spectral.solve_ground_state is original


def small_problem():
    from pdp.grid import DesignParams, PotentialField, make_grid, sech_well

    grid = make_grid(-10.0, 10.0, 201)
    beta = PotentialField(grid, np.where(np.abs(grid.x) <= 2.0, 1.0, 0.0), 6.0)
    params = DesignParams(a=6.0, b=1e3, mu=2.0, delta=1e-4, beta=beta)
    return sech_well(1.5, 1.5, 6.0, grid), params


def test_self_times_add_up_to_parent_durations():
    from pdp import fgr, spectral

    V, params = small_problem()
    fgr.clear_cache()
    with Tracer(run.PROBES) as tr:
        fgr.gamma_gradient(V, params)
        fgr.gamma(V, params)  # answered from the cache
        spectral.wronskian_at_zero(V)
    self_s = tr.self_times()
    subtree = list(self_s)
    for i in reversed(range(len(tr.spans))):  # children follow their parent
        parent = tr.spans[i][1]
        if parent >= 0:
            subtree[parent] += subtree[i]
    assert min(self_s) >= -1e-9
    for i, span in enumerate(tr.spans):
        assert subtree[i] == pytest.approx(span[3] - span[2], rel=1e-9, abs=1e-12)
    stats = tr.layer_stats()
    assert stats["fgr.gamma"]["calls"] == 2
    assert stats["fgr.gamma"]["no_solve"] == 1
    assert stats["spectral.solve_ground_state"]["calls"] == 1
    assert stats["spectral.wronskian_at_zero"]["probe"] == 0  # valid Wronskian
    assert stats["kernels.march_half_bound"]["calls"] == 2


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layer = [n for n, _, _ in run.per_layer_spec()] + ["trace.overhead_ratio"]
    assert [m["name"] for m in bench["per_layer"]] == layer
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in os.listdir(HERE):
        if f.endswith(".py"):
            shutil.copy(os.path.join(HERE, f), bench / f)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "design-a12",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
