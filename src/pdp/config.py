"""JSON run configuration: schema defaults, loading, and object builders.

A config file is a JSON object with optional sections; anything omitted
falls back to the defaults below, and a section or key that the defaults
do not have is a ConfigError.

    {
      "grid":      {"x_min": -20.0, "x_max": 20.0, "n": 2001},
      "design":    {"a": 12.0, "b": 1000.0, "mu": 2.0, "delta": 1e-4,
                    "beta_mode": "fixed", "beta_halfwidth": 2.0,
                    "wronskian_tol": 1e-8},
      "init":      {"A": 1.5, "B": 1.5},
      "optimizer": {"tau_start": 1e-2, "tau_min": 1e-8, "max_iters": 150,
                    "symmetric": false},
      "simulator": {"epsilon": 1.0, "t_final": 40.0, "dt_max": 0.05,
                    "domain": {"x_min": -60.0, "x_max": 60.0, "n": 3001},
                    "absorber": {"width": 15.0, "strength": 1.0},
                    "noise_amplitude": 0.5, "seed": 0,
                    "fit_window": [5.0, 40.0]},
      "gradcheck": {"seed": 0, "n_directions": 10, "fd_step": 1e-3},
      "sweep":     {"vary": "a", "values": [4.0, 8.0, 16.0]}
    }

The simulator forcing frequency is design.mu.  The design grid and the
simulator domain must each strictly contain the design support [-a, a].
beta_mode "fixed" uses the indicator of [-beta_halfwidth, beta_halfwidth];
"equals_v" forces with the potential itself.
"""
from __future__ import annotations

import copy
import json
import math

import numpy as np

from .errors import ConfigError
from .grid import BetaMode, DesignParams, Grid, PotentialField, make_grid, sech_well
from .optimizer import OptOptions
from .timedomain import Absorber, SimConfig

__all__ = ["DEFAULTS", "load_config", "merge", "builders"]

DEFAULTS: dict = {
    "grid": {"x_min": -20.0, "x_max": 20.0, "n": 2001},
    "design": {
        "a": 12.0,
        "b": 1000.0,
        "mu": 2.0,
        "delta": 1e-4,
        "beta_mode": "fixed",
        "beta_halfwidth": 2.0,
        "wronskian_tol": 1e-8,
    },
    "init": {"A": 1.5, "B": 1.5},
    "optimizer": {
        "tau_start": 1e-2,
        "tau_min": 1e-8,
        "max_iters": 150,
        "symmetric": False,
    },
    "simulator": {
        "epsilon": 1.0,
        "t_final": 40.0,
        "dt_max": 0.05,
        "domain": {"x_min": -60.0, "x_max": 60.0, "n": 3001},
        "absorber": {"width": 15.0, "strength": 1.0},
        "noise_amplitude": 0.5,
        "seed": 0,
        "fit_window": [5.0, 40.0],
    },
    "gradcheck": {"seed": 0, "n_directions": 10, "fd_step": 1e-3},
    "sweep": {"vary": "a", "values": [4.0, 8.0, 16.0]},
}


def merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins leaf-by-leaf."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _reject_unknown_keys(user: dict, defaults: dict, where: str) -> None:
    """ConfigError on any key of user missing from defaults, at every dict level."""
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(defaults[key], dict):
            _reject_unknown_keys(val, defaults[key], f"{where}.{key}")


def load_config(path: str | None) -> dict:
    """Defaults merged with the JSON file at path (path may be None)."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _reject_unknown_keys(user, DEFAULTS, "config")
    return merge(DEFAULTS, user)


def _number(cfg: dict, section: str, key: str, kind=float):
    """cfg[section][key] converted by kind; ConfigError naming the key if it fails."""
    val = cfg[section][key]
    try:
        return kind(val)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"{section}.{key} must be {'an integer' if kind is int else 'a number'}, got {val!r}"
        ) from exc


def _seed(cfg: dict, section: str) -> int:
    seed = _number(cfg, section, "seed", int)
    if seed < 0:
        raise ConfigError(f"{section}.seed must be a non-negative integer, got {seed}")
    return seed


class builders:
    """Constructors from a merged config dict to domain objects."""

    @staticmethod
    def grid(cfg: dict) -> Grid:
        g = cfg["grid"]
        try:
            return make_grid(g["x_min"], g["x_max"], g["n"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad grid section: {exc}") from exc

    @staticmethod
    def beta(cfg: dict, grid: Grid) -> PotentialField:
        d = cfg["design"]
        try:
            hw = float(d["beta_halfwidth"])
            vals = np.where(np.abs(grid.x) <= hw, 1.0, 0.0)
            return PotentialField(grid, vals, float(d["a"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad design section: {exc}") from exc

    @staticmethod
    def design(cfg: dict, grid: Grid) -> DesignParams:
        d = cfg["design"]
        try:
            mode = BetaMode(d["beta_mode"])
        except ValueError as exc:
            raise ConfigError(f"beta_mode must be 'fixed' or 'equals_v'") from exc
        beta = builders.beta(cfg, grid) if mode is BetaMode.FIXED else None
        try:
            return DesignParams(
                a=float(d["a"]),
                b=float(d["b"]),
                mu=float(d["mu"]),
                delta=float(d["delta"]),
                beta_mode=mode,
                beta=beta,
                wronskian_tol=float(d["wronskian_tol"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad design section: {exc}") from exc

    @staticmethod
    def initial_potential(cfg: dict, grid: Grid) -> PotentialField:
        i = cfg["init"]
        try:
            return sech_well(float(i["A"]), float(i["B"]), float(cfg["design"]["a"]), grid)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad init section: {exc}") from exc

    @staticmethod
    def opt_options(cfg: dict) -> OptOptions:
        o = cfg["optimizer"]
        try:
            opts = OptOptions(
                tau_start=float(o["tau_start"]),
                tau_min=float(o["tau_min"]),
                max_iters=int(o["max_iters"]),
                symmetric=bool(o["symmetric"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad optimizer section: {exc}") from exc
        # the symmetric descent mirrors V about the middle node, which is
        # x = 0 only on a grid centred there
        g = cfg["grid"]
        if opts.symmetric and float(g["x_min"]) != -float(g["x_max"]):
            raise ConfigError(
                "optimizer.symmetric needs a grid centred at 0 (x_min = -x_max), "
                f"got the off-centre grid [{g['x_min']}, {g['x_max']}]"
            )
        return opts

    @staticmethod
    def sim_config(cfg: dict) -> SimConfig:
        s = cfg["simulator"]
        try:
            dom = s["domain"]
            sim = SimConfig(
                epsilon=float(s["epsilon"]),
                mu=float(cfg["design"]["mu"]),
                t_final=float(s["t_final"]),
                dt_max=float(s["dt_max"]),
                absorber=Absorber(
                    width=float(s["absorber"]["width"]),
                    strength=float(s["absorber"]["strength"]),
                ),
                domain=make_grid(dom["x_min"], dom["x_max"], dom["n"]),
            )
            a = float(cfg["design"]["a"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad simulator section: {exc}") from exc
        # the design potential and beta are resampled onto the domain
        if not (sim.domain.x_min < -a and a < sim.domain.x_max):
            raise ConfigError(
                f"simulator.domain [{sim.domain.x_min}, {sim.domain.x_max}] must strictly "
                f"contain the design support [-a, a], a = {a}"
            )
        return sim

    @staticmethod
    def noise(cfg: dict) -> tuple[float, int]:
        """(simulator.noise_amplitude, simulator.seed) of the filter experiment."""
        return _number(cfg, "simulator", "noise_amplitude"), _seed(cfg, "simulator")

    @staticmethod
    def fit_window(cfg: dict) -> tuple[float, float]:
        """simulator.fit_window, the time window of the decay-rate fit."""
        window = cfg["simulator"]["fit_window"]
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ConfigError(f"simulator.fit_window must be two numbers, got {window!r}")
        try:
            return float(window[0]), float(window[1])
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"simulator.fit_window must be two numbers, got {window!r}"
            ) from exc

    @staticmethod
    def gradcheck(cfg: dict) -> tuple[int, int, float]:
        """(seed, n_directions, fd_step) of the gradcheck section."""
        n_dir = _number(cfg, "gradcheck", "n_directions", int)
        if n_dir < 1:
            raise ConfigError(f"gradcheck.n_directions must be at least 1, got {n_dir}")
        eps = _number(cfg, "gradcheck", "fd_step")
        if not (math.isfinite(eps) and eps > 0.0):
            raise ConfigError(f"gradcheck.fd_step must be finite and positive, got {eps!r}")
        return _seed(cfg, "gradcheck"), n_dir, eps
