"""JSON run configuration: schema defaults, loading, and object builders.

A config file is a JSON object with optional sections; anything omitted
falls back to the defaults below, and a section or key that the defaults
do not have is a ConfigError.  Each value must have its default's type (a
float a finite number, an integer a whole one), checked at load and for
each CLI flag written over the file ("design.mu must be a finite number,
got '2'").

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

import contextlib
import copy
import json
import sys

import numpy as np

from .errors import ConfigError
from .grid import BetaMode, DesignParams, Grid, PotentialField, make_grid, sech_well
from .optimizer import OptOptions
from .timedomain import Absorber, SimConfig

__all__ = ["DEFAULTS", "load_config", "merge", "override", "builders"]

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
    """Recursive dict merge; override wins leaf-by-leaf.

    base is deep-copied once; override's values are taken as given, not
    copied, so they must be fresh containers (as _typed returns them) or
    left unchanged by the caller.
    """
    out = copy.deepcopy(base)
    _write_over(out, override)
    return out


def _write_over(out: dict, override: dict) -> None:
    """Write override's values over out, section by section, in place."""
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            _write_over(out[key], val)
        else:
            out[key] = val


def _require(ok: bool, key: str, want: str, val) -> None:
    """ConfigError "<key> must be <want>, got <val>" unless ok."""
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {val!r}")


def _typed(val, default, key: str):
    """val checked against the JSON type of default, and converted to it.

    A section may hold only its default's keys; a list's items are typed by
    its default's first.  key names val in a ConfigError ("" for the config).
    """
    if isinstance(default, dict):
        _require(isinstance(val, dict), key, "an object", val)
        unknown = set(val) - set(default)
        if unknown:
            raise ConfigError(f"unknown keys in {key or 'config'}: {sorted(unknown)}")
        return {k: _typed(v, default[k], f"{key}.{k}".lstrip(".")) for k, v in val.items()}
    if isinstance(default, list):
        _require(isinstance(val, list), key, "a list of finite numbers", val)
        return [_typed(v, default[0], f"{key}[{i}]") for i, v in enumerate(val)]
    # a number is finite in a float, and true and false are no numbers
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    number = number and abs(val) <= sys.float_info.max
    kind = type(default)
    ok, want = {
        bool: (isinstance(val, bool), "true or false"),
        str: (isinstance(val, str), "a string"),
        int: (number and val % 1 == 0, "an integer"),
        float: (number, "a finite number"),
    }[kind]
    _require(ok, key, want, val)
    return kind(val)


def override(cfg: dict, user: dict) -> dict:
    """cfg with the values of user written over it, each first checked by its default's type."""
    return merge(cfg, _typed(user, DEFAULTS, ""))


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
    return override(DEFAULTS, user)


@contextlib.contextmanager
def _section(name: str):
    """A ValueError of a domain constructor as a ConfigError naming the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


class builders:
    """Constructors from a merged config dict to domain objects.

    The values already have their defaults' types, so a builder converts
    nothing; it adds the range checks that a type cannot express, and the
    ValueError of a domain constructor becomes a ConfigError.
    """

    @staticmethod
    def grid(cfg: dict) -> Grid:
        with _section("grid"):
            return make_grid(**cfg["grid"])

    @staticmethod
    def beta(cfg: dict, grid: Grid) -> PotentialField:
        d = cfg["design"]
        hw = d["beta_halfwidth"]
        _require(hw > 0.0, "design.beta_halfwidth", "positive", hw)
        with _section("design"):
            return PotentialField(grid, np.where(np.abs(grid.x) <= hw, 1.0, 0.0), d["a"])

    @staticmethod
    def design(cfg: dict, grid: Grid) -> DesignParams:
        d = cfg["design"]
        mode = d["beta_mode"]
        _require(mode in ("fixed", "equals_v"), "design.beta_mode", "'fixed' or 'equals_v'", mode)
        beta = builders.beta(cfg, grid) if mode == "fixed" else None
        bounds = {key: d[key] for key in ("a", "b", "mu", "delta", "wronskian_tol")}
        with _section("design"):
            return DesignParams(**bounds, beta_mode=BetaMode(mode), beta=beta)

    @staticmethod
    def initial_potential(cfg: dict, grid: Grid) -> PotentialField:
        i = cfg["init"]
        with _section("init"):
            return sech_well(i["A"], i["B"], cfg["design"]["a"], grid)

    @staticmethod
    def opt_options(cfg: dict) -> OptOptions:
        with _section("optimizer"):
            opts = OptOptions(**cfg["optimizer"])  # the section's keys are its fields
        # the symmetric descent starts from the mirror average about x = 0
        # and stays mirrored on the even half of the grid, nodes 0..c
        if opts.symmetric and not (grid := builders.grid(cfg)).centred:
            raise ConfigError(
                "optimizer.symmetric needs a grid centred at 0 (x_min = -x_max), "
                f"got the off-centre grid [{grid.x_min}, {grid.x_max}]"
            )
        if opts.symmetric and grid.n % 2 == 0:
            raise ConfigError(
                f"optimizer.symmetric needs an odd number of grid nodes, got n = {grid.n}"
            )
        return opts

    @staticmethod
    def sim_config(cfg: dict) -> SimConfig:
        s = cfg["simulator"]
        with _section("simulator.absorber"):
            absorber = Absorber(**s["absorber"])
        with _section("simulator"):
            sim = SimConfig(
                epsilon=s["epsilon"],
                mu=cfg["design"]["mu"],
                t_final=s["t_final"],
                dt_max=s["dt_max"],
                absorber=absorber,
                domain=make_grid(**s["domain"]),
            )
        # the design potential and beta are resampled onto the domain
        a = cfg["design"]["a"]
        if not (sim.domain.x_min < -a and a < sim.domain.x_max):
            raise ConfigError(
                f"simulator.domain [{sim.domain.x_min}, {sim.domain.x_max}] must strictly "
                f"contain the design support [-a, a], a = {a}"
            )
        return sim

    @staticmethod
    def noise(cfg: dict) -> tuple[float, int]:
        """(simulator.noise_amplitude, simulator.seed) of the filter experiment."""
        s = cfg["simulator"]
        _require(s["seed"] >= 0, "simulator.seed", "non-negative", s["seed"])
        return s["noise_amplitude"], s["seed"]

    @staticmethod
    def fit_window(cfg: dict) -> tuple[float, float]:
        """simulator.fit_window, the time window of the decay-rate fit.

        The window must start before simulator.t_final, where the run ends.
        """
        w = cfg["simulator"]["fit_window"]
        _require(len(w) == 2 and w[0] < w[1], "simulator.fit_window", "two increasing times", w)
        t_final = cfg["simulator"]["t_final"]
        _require(w[0] < t_final, "simulator.fit_window",
                 f"a window starting before simulator.t_final = {t_final}", w)
        return w[0], w[1]

    @staticmethod
    def gradcheck(cfg: dict) -> tuple[int, int, float]:
        """(seed, n_directions, fd_step) of the gradcheck section."""
        g = cfg["gradcheck"]
        _require(g["n_directions"] >= 1, "gradcheck.n_directions", "at least 1", g["n_directions"])
        _require(g["fd_step"] > 0.0, "gradcheck.fd_step", "positive", g["fd_step"])
        _require(g["seed"] >= 0, "gradcheck.seed", "non-negative", g["seed"])
        return g["seed"], g["n_directions"], g["fd_step"]

    @staticmethod
    def sweep(cfg: dict) -> tuple[str, list[float]]:
        """(vary, values) of the sweep section: the design field varied and its values."""
        vary = cfg["sweep"]["vary"]
        _require(vary in ("a", "mu", "b", "delta"), "sweep.vary", "one of a, mu, b, delta", vary)
        values = cfg["sweep"]["values"]
        _require(len(values) > 0, "sweep.values", "a non-empty list", values)
        return vary, values
