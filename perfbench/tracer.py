"""Span tracer for the pdp layers, installed from outside the package.

Every public function of the traced modules is replaced, at every module
attribute it is bound to, by a wrapper that records one span per call:
name, parent span, start, end, the exception type it raised (if any) and
an optional probe value computed from the call.  The modules import each
other's functions with ``from ... import``, so patching only the defining
module would lose the child spans reached through those copies.

Spans stay in memory; ``layer_stats`` turns them into per-layer counts and
self times (duration minus the time covered by child spans).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

# layer -> module; the layers are the package modules
LAYERS = {
    "spectral": "pdp.spectral",
    "fgr": "pdp.fgr",
    "optimizer": "pdp.optimizer",
    "grid": "pdp.grid",
    "timedomain": "pdp.timedomain",
    "kernels": "pdp.kernels",
    "config": "pdp.config",
    "cli": "pdp.cli",
}

# Modules whose attributes are rebound.  pdp.kernels._ref is left alone on
# purpose: its cn_step_loop calls its own trisolve per step, which the
# compiled backend fuses, so kernel spans mean the same on both backends.
BINDING_SITES = ("pdp",) + tuple(LAYERS.values())


def _public_functions(layer: str, mod) -> dict[str, object]:
    """name -> callable forming the public surface of one layer module."""
    if layer == "cli":
        # the console entry point; the cmd_* handlers are reached only
        # through it, so its self time is the whole CLI layer
        return {"main": mod.main}
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(mod, name)
        if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
            out[name] = obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            # static constructors such as config.builders.grid
            for attr, raw in vars(obj).items():
                if isinstance(raw, staticmethod) and not attr.startswith("_"):
                    out[f"{name}.{attr}"] = raw
    return out


class Tracer:
    """Context manager that wraps the pdp layers and records spans.

    probes maps a span name to fn(args, kwargs, result) -> number, stored
    with the span when the call returns normally.
    """

    def __init__(self, probes: dict | None = None):
        self.probes = probes or {}
        self.names: list[str] = []
        # span: [name index, parent index, start, end, exception name, probe]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        probe = self.probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                span[4] = type(exc).__name__
                raise
            else:
                span[3] = clock()
                if probe is not None:
                    span[5] = probe(args, kwargs, result)
                return result
            finally:
                stack.pop()

        return wrapper

    def __enter__(self) -> "Tracer":
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        statics = []
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for fname, obj in _public_functions(layer, mod).items():
                if isinstance(obj, staticmethod):
                    statics.append((mod, fname, obj))
                elif id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{fname}", obj)
        for modname in BINDING_SITES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and not attr.startswith("__"):
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
        for mod, fname, raw in statics:
            cls_name, attr = fname.split(".")
            cls = getattr(mod, cls_name)
            self._saved.append((cls, attr, raw))
            name = f"{mod.__name__.split('.')[-1]}.{fname}"
            setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[3] - s[2]
        return out

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, self_s, raised exception counts, probe sum,
        and (for fgr.gamma) calls answered without a ground-state solve."""
        self_s = self.self_times()
        solved = set()  # span indices with a solve_ground_state child
        for s in self.spans:
            if s[1] >= 0 and self.names[s[0]] == "spectral.solve_ground_state":
                solved.add(s[1])
        stats: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            name = self.names[s[0]]
            st = stats.setdefault(
                name, {"calls": 0, "self_s": 0.0, "raised": {}, "probe": 0.0, "no_solve": 0}
            )
            st["calls"] += 1
            st["self_s"] += self_s[i]
            if s[4] is not None:
                st["raised"][s[4]] = st["raised"].get(s[4], 0) + 1
            if s[5] is not None:
                st["probe"] += s[5]
            if i not in solved:
                st["no_solve"] += 1
        return stats
