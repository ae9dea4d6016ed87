"""Config loading and command-line workflow tests (in-process, tmp dirs)."""
import csv
import json
import os
import platform
import warnings

import numpy as np
import pytest
import scipy

from pdp import cli, config, fgr, kernels, optimizer, timedomain
from pdp.cli import (
    EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_SOLVER, Emitter, _fmt, _write_csv, build_parser, main,
)
from pdp.errors import ConfigError
from pdp.grid import DesignParams, Grid, make_grid
from pdp.spectral import ScatteringState, solve_ground_state


def write_config(tmp_path, name, overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def fmt_rows(columns: dict) -> bytes:
    """The CSV of columns ({header: values}), each cell formatted by _fmt."""
    rows = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in zip(*columns.values())]
    return ("\n".join(rows) + "\n").encode()


def no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


SMALL_OPT = {
    # tiny tau: the barrier contribution is negligible, so a few steps
    # already reduce gamma itself
    "optimizer": {"max_iters": 5, "tau_start": 1e-8, "tau_min": 1e-8},
}

SMALL_SIM = {
    "design": {"mu": 2.0},
    "simulator": {
        "epsilon": 0.5,
        "t_final": 2.0,
        "domain": {"x_min": -30.0, "x_max": 30.0, "n": 1501},
        "absorber": {"width": 8.0, "strength": 1.0},
        "fit_window": [0.5, 2.0],
    },
}

# one short run of each command: the flags after its name, and its config
SMALL_RUNS = {
    "evaluate": ([], {}),
    "optimize": (["--symmetric"], SMALL_OPT),
    "sweep": (
        ["--vary", "mu", "--values", "2.0,2.5"],
        {"optimizer": {"max_iters": 2, "tau_start": 1e-2, "tau_min": 1e-2}},
    ),
    "simulate": ([], SMALL_SIM),
    "filter": (["--seed", "3"], SMALL_SIM),
    "gradcheck": ([], {"gradcheck": {"n_directions": 2}}),
}


def small_run(tmp_path, command, out):
    """The argv of command's short run (SMALL_RUNS), writing to out."""
    flags, overrides = SMALL_RUNS[command]
    cfgp = write_config(tmp_path, f"{command}.json", overrides)
    return [command, "--config", cfgp, "--out", str(out), *flags]


class TestConfig:
    def test_defaults_returned_without_path(self):
        cfg = config.load_config(None)
        assert cfg == config.DEFAULTS
        cfg["design"]["mu"] = 99.0
        assert config.DEFAULTS["design"]["mu"] == 2.0  # deep copy

    def test_loaded_config_is_its_own(self, tmp_path):
        # merge copies the defaults once and takes the typed user values as
        # they are: a loaded config still shares no container with DEFAULTS
        # or with another load
        path = write_config(
            tmp_path, "own.json",
            {"design": {"mu": 3.0}, "simulator": {"fit_window": [1.0, 2.0]}},
        )
        first = config.load_config(path)
        first["design"]["mu"] = 99.0
        first["simulator"]["fit_window"].append(3.0)
        first["simulator"]["domain"]["n"] = 5
        first["sweep"]["values"].append(32.0)
        second = config.load_config(path)
        assert second["design"]["mu"] == 3.0
        assert second["simulator"]["fit_window"] == [1.0, 2.0]
        assert second["simulator"]["domain"]["n"] == 3001
        assert second["sweep"]["values"] == [4.0, 8.0, 16.0]
        assert config.DEFAULTS["design"]["mu"] == 2.0
        assert config.DEFAULTS["simulator"]["fit_window"] == [5.0, 40.0]
        assert config.DEFAULTS["simulator"]["domain"]["n"] == 3001
        assert config.DEFAULTS["sweep"]["values"] == [4.0, 8.0, 16.0]

    def test_merge_is_leafwise(self):
        out = config.merge({"a": {"x": 1, "y": 2}, "b": 3}, {"a": {"y": 5}})
        assert out == {"a": {"x": 1, "y": 5}, "b": 3}

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"spelling_mistake": {}})
        with pytest.raises(ConfigError):
            config.load_config(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"optimizer": {"max_iter": 2}},
            {"simulator": {"domain": {"n": 1501, "nodes": 1501}}},
            {"simulator": {"absorber": {"widht": 30.0}}},
            # fixed constants of the descent, no longer settable
            {"optimizer": {"tau_factor": 0.1, "memory": 10, "armijo": 1e-4,
                           "backtrack": 0.5, "grad_tol": 1e-10}},
        ],
        ids=["optimizer", "simulator.domain", "simulator.absorber", "optimizer.fixed"],
    )
    def test_unknown_key_rejected(self, tmp_path, overrides):
        # a misspelt key would otherwise leave its default silently in force
        path = write_config(tmp_path, "bad.json", overrides)
        with pytest.raises(ConfigError, match="unknown keys"):
            config.load_config(path)

    def test_docstring_schema_matches_defaults(self):
        doc = config.__doc__
        start = doc.index("\n    {\n")
        end = doc.index("\n    }\n", start) + len("\n    }")
        assert json.loads(doc[start:end]) == config.DEFAULTS

    @pytest.mark.parametrize(
        "optimizer", [{"tau_min": 0}, {"tau_min": -1e-8}, {"tau_start": 0}],
        ids=["tau_min_zero", "tau_min_negative", "tau_start_zero"],
    )
    def test_non_positive_tau_exit_code(self, tmp_path, capsys, optimizer):
        # a tau schedule must run down to a positive tau_min; before the
        # check these ended in ZeroDivisionError or ValueError tracebacks
        path = write_config(tmp_path, "tau.json", {"optimizer": optimizer})
        assert main(["optimize", "--config", path]) == EXIT_CONFIG
        assert "bad optimizer section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["--symmetric"], {}),
            ([], {"optimizer": {"symmetric": True}}),
        ],
        ids=["flag", "config_entry"],
    )
    def test_symmetric_mode_needs_a_centred_grid(self, tmp_path, capsys, monkeypatch,
                                                 argv, overrides):
        # the symmetric descent starts from the mirror average about x = 0.
        # Off centre the middle node is x = 5: the sech start would become
        # two wells and the run would end in a misleading InfeasibleStart.
        # With even n no node lies at x = 0 and the grid has no even half
        # to keep the descent mirrored.  Both are refused before any solve.
        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(fgr, "gamma", no_solve)
        for grid, message in (
            ({"x_min": -20.0, "x_max": 30.0, "n": 2501}, "off-centre grid [-20.0, 30.0]"),
            ({"x_min": -20.0, "x_max": 20.0, "n": 2000}, "n = 2000"),
        ):
            cfg = config.merge({"grid": grid}, overrides)
            path = write_config(tmp_path, "grid.json", cfg)
            assert main(["optimize", "--config", path] + argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "optimizer.symmetric" in err and message in err

    def test_values_take_the_type_of_their_default(self, tmp_path):
        path = write_config(
            tmp_path, "typed.json",
            {"grid": {"n": 2001.0}, "design": {"mu": 2}, "simulator": {"fit_window": [5, 40]}},
        )
        cfg = config.load_config(path)
        assert cfg["grid"]["n"] == 2001 and isinstance(cfg["grid"]["n"], int)
        assert cfg["design"]["mu"] == 2.0 and isinstance(cfg["design"]["mu"], float)
        assert all(isinstance(t, float) for t in cfg["simulator"]["fit_window"])
        # a flag's value goes through the same check
        assert config.override(cfg, {"simulator": {"seed": 7.0}})["simulator"]["seed"] == 7
        with pytest.raises(ConfigError, match="simulator.seed must be an integer"):
            config.override(cfg, {"simulator": {"seed": "7"}})

    @pytest.mark.parametrize("init", [{"A": 0.0}, {"B": -1.0}], ids=["A", "B"])
    def test_non_positive_sech_well_exit_code(self, tmp_path, capsys, init):
        path = write_config(tmp_path, "init.json", {"init": init})
        assert main(["evaluate", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: bad init section: A and B must be positive" in err

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    @pytest.mark.parametrize("tol", [-1.0, 0.0], ids=["negative", "zero"])
    def test_non_positive_wronskian_tol_exit_code(self, tmp_path, capsys, command, tol):
        # a negative tolerance used to reach the optimizer, which then
        # rejected a feasible start for its Wronskian variance (exit 2)
        path = write_config(tmp_path, "tol.json", {"design": {"wronskian_tol": tol}})
        assert main([command, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: bad design section: wronskian_tol must be positive" in err

    def test_unreadable_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["evaluate", "--config", str(path)]) == EXIT_CONFIG
        assert f"cannot read config {path}" in capsys.readouterr().err

    def test_config_that_is_no_object_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "list.json", [{"design": {"mu": 2.0}}])
        assert main(["evaluate", "--config", path]) == EXIT_CONFIG
        assert f"config {path} must be a JSON object" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            config.load_config(str(path))

    def test_builders_produce_domain_objects(self):
        cfg = config.load_config(None)
        grid = config.builders.grid(cfg)
        assert isinstance(grid, Grid) and grid.n == 2001
        params = config.builders.design(cfg, grid)
        assert isinstance(params, DesignParams) and params.mu == 2.0
        V0 = config.builders.initial_potential(cfg, grid)
        assert V0.values.min() == pytest.approx(-1.5)


class TestEvaluate:
    def test_artifacts_and_roundtrip(self, tmp_path, capsys):
        out1 = str(tmp_path / "run1")
        assert main(["evaluate", "--out", out1]) == 0
        for name in ("manifest.json", "V_opt.csv", "psi.csv", "transmission.csv"):
            assert os.path.exists(os.path.join(out1, name))
        man1 = json.loads(open(os.path.join(out1, "manifest.json")).read())
        g1 = man1["headline"]["gamma"]
        # re-evaluating the stored potential reproduces the rate
        out2 = str(tmp_path / "run2")
        assert main([
            "evaluate", "--potential", os.path.join(out1, "V_opt.csv"), "--out", out2
        ]) == 0
        man2 = json.loads(open(os.path.join(out2, "manifest.json")).read())
        assert man2["headline"]["gamma"] == pytest.approx(g1, rel=1e-10)
        assert "gamma = " in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        outs = [str(tmp_path / d) for d in ("a", "b")]
        for out in outs:
            assert main(["evaluate", "--out", out]) == 0
        for name in ("V_opt.csv", "psi.csv", "transmission.csv"):
            b0 = open(os.path.join(outs[0], name), "rb").read()
            b1 = open(os.path.join(outs[1], name), "rb").read()
            assert b0 == b1

    def test_transmission_table_rows(self, tmp_path):
        out = str(tmp_path / "ev")
        assert main(["evaluate", "--out", out]) == 0
        cfg = config.load_config(None)
        V = config.builders.initial_potential(cfg, config.builders.grid(cfg))
        rows = open(os.path.join(out, "transmission.csv")).read().splitlines()
        assert rows[0] == "k,t_sq,re_t,im_t"
        ks = np.linspace(0.1, 4.0, 40)
        assert len(rows) == 1 + len(ks)
        for row, k in zip(rows[1:], ks):
            t = ScatteringState(float(k), V).t
            assert row == ",".join(_fmt(v) for v in (k, abs(t) ** 2, t.real, t.imag))

    @pytest.mark.parametrize(
        "argv, marches",
        [
            (["evaluate"], [1]),
            (["evaluate", "--out", "{out}"], [41]),
            (["optimize", "--config", "{cfg}", "--out", "{out}"], [41]),
        ],
        ids=["evaluate", "evaluate_out", "optimize_out"],
    )
    def test_one_support_march_per_run(self, tmp_path, capsys, monkeypatch, argv, marches):
        # t(k_res) for the headline rides in the march of the 40-point
        # transmission.csv table
        calls = []
        march = kernels._support_march

        def counted(hv, hk2, d):
            calls.append(len(hk2))
            return march(hv, hk2, d)

        monkeypatch.setattr(kernels, "_support_march", counted)
        cfgp = write_config(tmp_path, "small.json", SMALL_OPT)
        fgr.clear_cache()
        argv = [a.format(out=tmp_path / "out", cfg=cfgp) for a in argv]
        assert main(argv) == 0
        assert calls == marches

    def test_overflowing_wronskian_margin_is_inf(self, tmp_path, capsys):
        # walls of 1000 on 4 < |x| <= 12 around a -2 well give W0 ~ 2e219,
        # whose square overflows: the margin is inf, not an OverflowError.
        # stdout prints it as inf; the strict-JSON manifest writes null
        x = config.builders.grid(config.DEFAULTS).x
        ax = np.abs(x)
        v = np.where(ax <= 2, -2.0, np.where((ax > 4) & (ax <= 12), 1000.0, 0.0))
        vpath = tmp_path / "walls.csv"
        _write_csv(str(vpath), {"x": x, "V": v})
        out = tmp_path / "ev"
        assert main(["evaluate", "--potential", str(vpath), "--out", str(out)]) == 0
        assert "margin_wronskian = inf\n" in capsys.readouterr().out
        text = (out / "manifest.json").read_text()
        headline = json.loads(text, parse_constant=no_constant)["headline"]
        assert 1e154 < headline["w0"] < np.inf
        assert headline["margin_wronskian"] is None

    def test_margins_are_those_of_the_barrier(self, tmp_path, capsys):
        # the headline well with walls 1000 exp(-((|x| - 8)/1.5)^2) has
        # |W0| above 1e100, where the barrier takes log m2 in log space;
        # evaluate prints the same three margins that the barrier reports
        cfgp = write_config(tmp_path, "walls.json", {"design": {"b": 1e4}})
        cfg = config.load_config(cfgp)
        grid = config.builders.grid(cfg)
        x = grid.x
        V = config.builders.initial_potential(cfg, grid)
        v = V.values + 1000.0 * np.exp(-(((np.abs(x) - 8.0) / 1.5) ** 2))
        vpath = tmp_path / "walls.csv"
        _write_csv(str(vpath), {"x": x, "V": v})
        assert main(["evaluate", "--config", cfgp, "--potential", str(vpath)]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        params = config.builders.design(cfg, grid)
        ev = optimizer.barrier_objective(V.with_values(v), params, 1e-2)
        names = ("margin_resonance", "margin_wronskian", "margin_h1")
        assert abs(float(printed["w0"])) > 1e100
        assert tuple(float(printed[name]) for name in names) == ev.margins

    def test_manifest_is_strict_json(self, tmp_path, capsys):
        # walls of 4000 make the Wronskian march invalid: w0 and its margin
        # are nan and the variance inf, which stdout prints as such and the
        # manifest writes as null
        x = config.builders.grid(config.DEFAULTS).x
        ax = np.abs(x)
        v = np.where(ax <= 1, -3.0, np.where((ax > 3) & (ax <= 11.5), 4000.0, 0.0))
        vpath = tmp_path / "tall.csv"
        _write_csv(str(vpath), {"x": x, "V": v})
        cfgp = write_config(tmp_path, "tall.json", {"design": {"a": 12.0, "mu": 4.0}})
        out = tmp_path / "ev"
        argv = ["evaluate", "--config", cfgp, "--potential", str(vpath), "--out", str(out)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        for line in ("w0 = nan", "margin_wronskian = nan", "wronskian_variance = inf"):
            assert line + "\n" in stdout
        man = json.loads((out / "manifest.json").read_text(), parse_constant=no_constant)
        head = man["headline"]
        assert head["w0"] is head["margin_wronskian"] is head["wronskian_variance"] is None
        assert head["gamma"] > 0.0
        # optimize's margins list: non-finite entries at any depth become null
        em = Emitter(str(tmp_path / "opt"))
        em.manifest("optimize", {}, {"margins": [1.5, float("inf")], "lam": np.float64(-np.inf)})
        text = (tmp_path / "opt" / "manifest.json").read_text()
        head = json.loads(text, parse_constant=no_constant)["headline"]
        assert head == {"lam": None, "margins": [1.5, None]}

    def test_potential_and_psi_files_match_per_cell_formatting(self, tmp_path):
        # V_opt.csv and psi.csv share one formatting of grid.x
        out = tmp_path / "ev"
        assert main(["evaluate", "--out", str(out)]) == 0
        cfg = config.load_config(None)
        V = config.builders.initial_potential(cfg, config.builders.grid(cfg))
        x = V.grid.x
        assert (out / "V_opt.csv").read_bytes() == fmt_rows({"x": x, "V": V.values})
        psi = solve_ground_state(V).psi
        assert (out / "psi.csv").read_bytes() == fmt_rows({"x": x, "psi": psi})

    def test_cached_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["evaluate", "--potential", "f.csv", "--out", "o"])
        assert (first.potential, first.out) == ("f.csv", "o")
        second = build_parser().parse_args(["evaluate"])
        assert (second.potential, second.out, second.config) == (None, None, None)
        # a square well from a file, then the config's sech well
        x = config.builders.grid(config.DEFAULTS).x
        vpath = tmp_path / "square.csv"
        _write_csv(str(vpath), {"x": x, "V": np.where(np.abs(x) <= 3, -1.0, 0.0)})
        out = tmp_path / "file"
        assert main(["evaluate", "--potential", str(vpath), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate"]) == 0
        gammas = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gamma = ")]
        cfg = config.load_config(None)
        grid = config.builders.grid(cfg)
        V = config.builders.initial_potential(cfg, grid)
        fgr.clear_cache()
        gamma = fgr.gamma(V, config.builders.design(cfg, grid)).gamma
        assert gammas == [f"gamma = {_fmt(gamma)}"]
        # nothing was written for the second call, which had no --out
        assert sorted(os.listdir(tmp_path)) == ["file", "square.csv"]

    def test_no_bound_state_exit_code(self, tmp_path):
        # potential identically zero: no bound state -> domain-error exit 2
        vpath = tmp_path / "zero.csv"
        vpath.write_text("x,V\n-20,0\n20,0\n")
        assert main(["evaluate", "--potential", str(vpath)]) == 2

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    def test_resonance_above_lattice_cutoff_exit_code(self, tmp_path, capsys, command):
        # h = 0.1 resolves k < 20; mu = 500 puts the resonance near k = 22.3.
        # That is a solver failure (exit 3), not a failed check (exit 1)
        cfgp = write_config(
            tmp_path, "cut.json",
            {"grid": {"x_min": -20, "x_max": 20, "n": 401}, "design": {"mu": 500}},
        )
        out = str(tmp_path / command)
        assert main([command, "--config", cfgp, "--out", out]) == 3
        assert "lattice cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    def test_grid_too_coarse_for_the_transmission_table(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # transmission.csv reaches k = 4.0, which a grid carries while
        # k < 2/h: n = 81 on [-20, 20] gives 2/h = 4, n = 82 gives 4.05.
        # With --out the grid is checked before any solve
        solves, gamma = [], fgr.gamma
        monkeypatch.setattr(fgr, "gamma", lambda *args: solves.append(args) or gamma(*args))
        grid = {"x_min": -20.0, "x_max": 20.0}
        coarse = write_config(tmp_path, "coarse.json", {**SMALL_OPT, "grid": {**grid, "n": 81}})
        out = tmp_path / "coarse"
        assert main([command, "--config", coarse, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: grid [-20.0, 20.0] with n = 81" in err
        assert "k = 4.0" in err and err.endswith("k < 2/h = 4\n") and "Traceback" not in err
        assert not out.exists() and solves == []
        # without --out nothing reads k = 4.0
        assert main([command, "--config", coarse]) == 0
        fine = write_config(tmp_path, "fine.json", {**SMALL_OPT, "grid": {**grid, "n": 82}})
        out = tmp_path / "fine"
        assert main([command, "--config", fine, "--out", str(out)]) == 0
        written = set(os.listdir(out))
        assert {"V_opt.csv", "psi.csv", "transmission.csv", "manifest.json"} <= written
        assert len((out / "transmission.csv").read_text().splitlines()) == 41

    def test_bad_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"nonsense": {}})
        assert main(["evaluate", "--config", path]) == 4
        path2 = write_config(tmp_path, "bad2.json", {"design": {"beta_mode": "wat"}})
        assert main(["evaluate", "--config", path2]) == 4
        # the support [-a, a] of the beta indicator must lie inside the grid,
        # at the right end and at the left
        path3 = write_config(tmp_path, "bad3.json", {"design": {"a": 25.0}})
        assert main(["evaluate", "--config", path3]) == 4
        path4 = write_config(
            tmp_path, "bad4.json", {"grid": {"x_min": -10.0, "x_max": 30.0, "n": 401}}
        )
        assert main(["evaluate", "--config", path4]) == 4


class TestPotentialFile:
    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize(
        "rows", ["-20,0\n0,nan\n20,0\n", "-20,0\n0,-inf\n20,0\n", "-20,0\nnan,-1\n20,0\n"],
        ids=["V_nan", "V_inf", "x_nan"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, rows):
        # a file that got past loading would fail inside the solvers (the
        # ground-state eigensolve raises ValueError), not as a config error
        vpath = tmp_path / "bad.csv"
        vpath.write_text("x,V\n" + rows)
        assert main([command, "--potential", str(vpath)]) == EXIT_CONFIG == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize("text", ["x,V\n", ""], ids=["header_only", "empty"])
    def test_file_without_data_rows_is_config_error(self, tmp_path, capsys, command, text):
        # numpy warns on such a file and returns an empty array; the
        # message says what is missing, and no warning reaches stderr
        vpath = tmp_path / "empty.csv"
        vpath.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--potential", str(vpath)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"potential file {vpath} has no data rows" in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read potential file"),
         ("x,V\n-1,a\n1,0\n", "is not (x,V) CSV"),
         ("x\n-1\n1\n", "needs x and V columns")],
        ids=["unreadable", "non_numeric", "one_column"],
    )
    def test_unusable_file_is_config_error(self, tmp_path, capsys, text, message):
        vpath = tmp_path / "well.csv"
        if text is not None:
            vpath.write_text(text)
        assert main(["evaluate", "--potential", str(vpath)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and str(vpath) in err

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_decreasing_x_is_config_error(self, tmp_path, capsys, command):
        # np.interp needs increasing sample points and does not check them:
        # the default well read back to front looks like no well at all
        out = tmp_path / "ev"
        assert main(["evaluate", "--out", str(out)]) == 0
        header, *rows = (out / "V_opt.csv").read_text().splitlines()
        vpath = tmp_path / "reversed.csv"
        vpath.write_text("\n".join([header] + rows[::-1]) + "\n")
        capsys.readouterr()
        assert main([command, "--potential", str(vpath)]) == EXIT_CONFIG
        assert "increasing" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize(
        "grid, a",
        [({"x_min": -20.0, "x_max": 20.0, "n": 2001}, 25.0),
         ({"x_min": -10.0, "x_max": 30.0, "n": 401}, 12.0)],
        ids=["right_end", "left_end"],
    )
    def test_support_outside_the_grid_is_config_error(self, tmp_path, capsys, command, grid, a):
        # with beta = V no beta indicator is built, so the potential file is
        # the first thing sampled on [-a, a]
        cfgp = write_config(
            tmp_path, "wide.json",
            {"grid": grid, "design": {"a": a, "beta_mode": "equals_v"}},
        )
        vpath = tmp_path / "well.csv"
        vpath.write_text("x,V\n-1,0\n0,-1\n1,0\n")
        assert main([command, "--config", cfgp, "--potential", str(vpath)]) == EXIT_CONFIG
        assert "must lie strictly inside the domain" in capsys.readouterr().err


class TestCsvWriter:
    FLOATS = [
        -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0,
        float("nan"), float("inf"), float("-inf"),
    ]

    @staticmethod
    def per_cell(header, rows):
        """The per-cell writer the column-wise one replaced, as the oracle."""
        def cell(v):
            if isinstance(v, (float, np.floating)):
                return format(float(v), ".17g")
            return str(v)
        return ",".join(header) + "\n" + "".join(
            ",".join(cell(v) for v in row) + "\n" for row in rows
        )

    def test_matches_per_cell_formatting(self, tmp_path):
        m = len(self.FLOATS)
        columns = {
            "array": np.array(self.FLOATS),
            "floats": list(reversed(self.FLOATS)),
            "numpy_floats": [np.float64(v) for v in self.FLOATS],
            "ints": [0, -1, 7, 2**53 + 1, 10**20, np.int64(-3), 12, 1, 2][:m],
            "int_array": np.arange(m) - 4,
            "strings": ["", "a=4", "A", "failed: x", "1e-3", "nan", "-0", " ", "ok"][:m],
        }
        path = tmp_path / "t.csv"
        _write_csv(str(path), columns)
        expected = self.per_cell(list(columns), zip(*columns.values()))
        assert path.read_bytes() == expected.encode()

    def test_random_floats_match(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        path = tmp_path / "r.csv"
        _write_csv(str(path), {"x": x, "y": x[::-1]})
        assert path.read_bytes() == self.per_cell(["x", "y"], zip(x, x[::-1])).encode()

    def test_string_cells_are_quoted_when_needed(self, tmp_path):
        cells = ["plain", "a, b", 'say "x"', "two\nlines", "", "x=1"]
        path = tmp_path / "q.csv"
        _write_csv(str(path), {"s": cells, "i": list(range(len(cells)))})
        assert path.read_bytes() == (
            's,i\nplain,0\n"a, b",1\n"say ""x""",2\n"two\nlines",3\n,4\nx=1,5\n'
        ).encode()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["s"] for r in rows] == cells
        assert [r["i"] for r in rows] == [str(i) for i in range(len(cells))]

    def test_no_rows_writes_header(self, tmp_path):
        path = tmp_path / "e.csv"
        _write_csv(str(path), {"a": [], "b": np.array([])})
        assert path.read_bytes() == b"a,b\n"

    def test_emitter_formats_arrays_per_file_and_a_grid_as_its_x(self, tmp_path):
        # an array, writable or a read-only view of one, can change between
        # two files: each file is formatted from its current contents.  A
        # Grid given as a column is written as its x
        em = Emitter(str(tmp_path))
        grid = make_grid(-1.0, 1.0, 5)
        a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        view = a.view()
        view.flags.writeable = False
        em.csv("first.csv", {"x": grid, "a": a, "view": view})
        a[:] = [7.0, 8.0, 9.0, 1e-300, -0.0]
        em.csv("second.csv", {"x": grid, "a": a, "view": view})
        for name, values in (
            ("first.csv", [0.1, 0.2, 0.3, 0.4, 0.5]),
            ("second.csv", [7.0, 8.0, 9.0, 1e-300, -0.0]),
        ):
            expected = fmt_rows({"x": grid.x.tolist(), "a": values, "view": values})
            assert (tmp_path / name).read_bytes() == expected
        assert em.outputs == ["first.csv", "second.csv"]

    def test_x_is_formatted_once_per_grid_per_process(self, tmp_path, monkeypatch, capsys):
        # two evaluate runs on one config format x once between them; a
        # second grid gets its own cells; every file is the per-cell oracle's
        formatted, array_cells = [], cli._array_cells
        monkeypatch.setattr(
            cli, "_array_cells", lambda a: formatted.append(a.copy()) or array_cells(a)
        )
        cli._x_cells.cache_clear()
        grids = {"one": make_grid(-20.0, 20.0, 2001), "two": make_grid(-20.0, 20.0, 1001)}
        runs = [("one", "a"), ("one", "b"), ("two", "c")]
        for name, out in runs:
            g = grids[name]
            cfgp = write_config(
                tmp_path, f"{name}.json", {"grid": {"x_min": g.x_min, "x_max": g.x_max, "n": g.n}}
            )
            assert main(["evaluate", "--config", cfgp, "--out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        for g in grids.values():
            assert sum(a.tobytes() == g.x.tobytes() for a in formatted) == 1
        for name, out in runs:
            for csv_name in ("V_opt.csv", "psi.csv"):
                text = (tmp_path / out / csv_name).read_text()
                header, *rows = text.splitlines()
                cols = np.array([[float(v) for v in row.split(",")] for row in rows])
                assert cols[:, 0].tobytes() == grids[name].x.tobytes()
                assert text == self.per_cell(header.split(","), cols.tolist())

    def test_mixed_or_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            _write_csv(str(tmp_path / "m.csv"), {"a": [1.0, 2]})
        for columns in ({"a": [1.0, 2.0], "b": [3.0]}, {"a": [1.0], "b": [2.0, 3.0]}):
            with pytest.raises(ValueError):
                _write_csv(str(tmp_path / "r.csv"), columns)

    # a float array of odd length n = 2c + 1 that reads the same reversed
    # is formatted on nodes 0..c; each file must still be the per-cell
    # oracle's
    def formatted(self, tmp_path, monkeypatch, a):
        """The lengths of the lists _write_csv formats for the column a."""
        lengths, float_cells = [], cli._float_cells
        monkeypatch.setattr(cli, "_float_cells", lambda v: lengths.append(len(v)) or float_cells(v))
        path = tmp_path / "h.csv"
        _write_csv(str(path), {"a": a})
        assert path.read_bytes() == self.per_cell(["a"], zip(a)).encode()
        return lengths

    @staticmethod
    def mirrored(c, seed=5):
        """A column of 2c + 1 floats over many decades that reads the same reversed."""
        rng = np.random.default_rng(seed)
        half = rng.standard_normal(c + 1) * 10.0 ** rng.integers(-300, 300, c + 1)
        return np.concatenate((half, half[-2::-1]))

    def test_mirrored_column_is_formatted_on_half_the_nodes(self, tmp_path, monkeypatch):
        a = self.mirrored(500)
        a[[3, -4]] = np.inf
        a[[7, -8]] = np.nan
        assert self.formatted(tmp_path, monkeypatch, a) == [501]

    def test_column_off_its_mirror_by_one_ulp_is_formatted_in_full(self, tmp_path, monkeypatch):
        a = self.mirrored(500)
        a[-1] = np.nextafter(a[-1], np.inf)
        assert self.formatted(tmp_path, monkeypatch, a) == [1001]

    def test_signed_zeros_at_a_mirror_pair_are_formatted_in_full(self, tmp_path, monkeypatch):
        a = self.mirrored(500)
        a[10], a[-11] = 0.0, -0.0
        assert self.formatted(tmp_path, monkeypatch, a) == [1001]

    @pytest.mark.parametrize(
        "a, lengths",
        [(np.array([1.5, -2.0, -2.0, 1.5]), [4]), (np.array([0.25]), [1])],
        ids=["even_length", "one_row"],
    )
    def test_short_mirrored_columns(self, tmp_path, monkeypatch, a, lengths):
        assert self.formatted(tmp_path, monkeypatch, a) == lengths

    def test_half_grid_formatting_writes_the_same_files(self, tmp_path, monkeypatch, capsys):
        # evaluate, a symmetric optimize and a sweep, with the half-grid
        # paths and without them: every file and every stdout line alike
        def run(root):
            runs = {}
            for command in ("evaluate", "optimize", "sweep"):
                assert main(small_run(tmp_path, command, root / command)) == 0
                runs[command] = capsys.readouterr().out
            for path in sorted(root.rglob("*.csv")):
                runs[str(path.relative_to(root))] = path.read_bytes()
            return runs

        taken = []

        def spy(test):
            def recorded(a):
                result = test(a)
                if result:
                    taken.append((test.__name__, a.size))
                return result
            return recorded

        monkeypatch.setattr(cli, "_mirrored", spy(cli._mirrored))
        half = run(tmp_path / "half")
        # evaluate's V and psi, optimize's V_opt and psi and the sweep's
        # two V_opt are mirrored
        assert taken.count(("_mirrored", 2001)) == 6
        monkeypatch.setattr(cli, "_mirrored", lambda a: False)
        full = run(tmp_path / "full")
        assert len(half) == 3 + 3 + 4 + 3 and half == full


class TestOptimize:
    def test_short_run_writes_trace(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "opt.json", SMALL_OPT)
        out = str(tmp_path / "opt")
        assert main(["optimize", "--config", cfgp, "--out", out]) == 0
        man = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert man["headline"]["gamma_opt"] < man["headline"]["gamma_init"]
        trace = open(os.path.join(out, "trace.csv")).read().splitlines()
        assert trace[0].startswith("iter,tau,gamma")
        assert 1 <= len(trace) - 1 <= 5
        assert "gamma:" in capsys.readouterr().out

    def test_headline_manifest_lists_every_tau_stage(self, tmp_path):
        # the default config is the headline: its first stage takes all 10
        # steps, and the six after it end before their first step
        out = str(tmp_path / "opt")
        assert main(["optimize", "--symmetric", "--out", out]) == 0
        head = json.loads(open(os.path.join(out, "manifest.json")).read())["headline"]
        stages = head["stages"]
        assert len(stages) == 7
        assert [st["steps"] for st in stages] == [10, 0, 0, 0, 0, 0, 0]
        assert all(st["reason"] == "gamma negligible against tau" for st in stages)
        assert stages[0]["tau"] == 1e-2 and stages[-1]["tau"] == pytest.approx(1e-8)
        assert head["status"] == stages[-1]["reason"] and head["iterations"] == 10


class TestSweep:
    def test_summary_rows(self, tmp_path):
        cfgp = write_config(
            tmp_path, "sweep.json",
            {"optimizer": {"max_iters": 2, "tau_start": 1e-2, "tau_min": 1e-2}},
        )
        out = str(tmp_path / "sweep")
        rc = main([
            "sweep", "--config", cfgp, "--vary", "mu",
            "--values", "2.0,2.5", "--out", out,
        ])
        assert rc == 0
        rows = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert rows[0].split(",")[:2] == ["label", "mu"]
        assert len(rows) == 3
        assert rows[1].startswith("mu=2,")
        # both V_opt files share one formatting of grid.x
        cfg = config.load_config(cfgp)
        grid = config.builders.grid(cfg)
        for mu, name in ((2.0, "V_opt_mu_2.csv"), (2.5, "V_opt_mu_2.5.csv")):
            sub = config.merge(cfg, {"design": {"mu": mu}})
            V0 = config.builders.initial_potential(sub, grid)
            params = config.builders.design(sub, grid)
            V = optimizer.optimize(V0, params, config.builders.opt_options(sub)).V_opt
            expected = fmt_rows({"x": grid.x, "V": V.values})
            assert open(os.path.join(out, name), "rb").read() == expected

    def test_failed_value_is_recorded_in_its_row(self, tmp_path, capsys):
        # b = 0.5 puts the start outside the H1 ball: that value fails with
        # InfeasibleStart, and the sweep goes on to the next one
        cfgp = write_config(
            tmp_path, "sweep.json",
            {"optimizer": {"max_iters": 2, "tau_start": 1e-2, "tau_min": 1e-2}},
        )
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--config", cfgp, "--vary", "b",
            "--values", "0.5,1000", "--out", str(out),
        ])
        assert rc == 0
        with open(out / "summary.csv", newline="") as fh:
            bad, good = csv.DictReader(fh)
        assert bad["label"] == "b=0.5"
        assert bad["error"].startswith("InfeasibleStart: ")
        assert bad["gamma_opt"] == "" and bad["iterations"] == "0"
        assert bad["gamma_init"] != ""
        assert not (out / "V_opt_b_0.5.csv").exists()
        assert good["label"] == "b=1000" and good["error"] == ""
        assert good["mechanism"] in ("A", "B", "mixed")
        assert float(good["gamma_opt"]) > 0.0 and int(good["iterations"]) > 0
        assert (out / "V_opt_b_1000.csv").exists()
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("b=0.5: gamma_opt=failed: InfeasibleStart")
        assert stdout[1].startswith("b=1000: gamma_opt=")

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["--values", "2,x"], {}),
            ([], {"sweep": {"vary": "mu", "values": [2.0, "x"]}}),
            ([], {"sweep": {"vary": "mu", "values": 2.0}}),
        ],
        ids=["flag", "config_entry", "config_not_a_list"],
    )
    def test_non_numeric_values_exit_code(self, tmp_path, capsys, argv, overrides):
        cfgp = write_config(tmp_path, "sweep.json", overrides)
        assert main(["sweep", "--config", cfgp, "--vary", "mu"] + argv) == EXIT_CONFIG
        assert "sweep.values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, overrides",
        [(["--values", ""], {}), ([], {"sweep": {"vary": "mu", "values": []}})],
        ids=["flag", "config_entry"],
    )
    def test_empty_values_exit_code(self, tmp_path, capsys, argv, overrides):
        # a sweep over no value would write a summary.csv of its header only
        cfgp = write_config(tmp_path, "sweep.json", overrides)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfgp, "--vary", "mu", "--out", str(out)] + argv)
        assert rc == EXIT_CONFIG
        assert "sweep.values must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateAndFilter:
    def test_simulate(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "sim.json", SMALL_SIM)
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfgp, "--out", out]) == 0
        rows = open(os.path.join(out, "projection.csv")).read().splitlines()
        assert rows[0] == "t,projection_sq,norm"
        assert len(rows) > 10
        assert "projection_sq:" in capsys.readouterr().out

    def test_non_positive_projection_leaves_the_rate_nan(self, tmp_path, capsys, monkeypatch):
        # a projection that reaches 0 on the fit window has no log-linear
        # fit: the run prints no rate and the manifest holds null
        propagate = timedomain.propagate

        def vanishing(*args):
            result = propagate(*args)
            result.projection_sq[result.times >= 1.0] = 0.0
            return result

        monkeypatch.setattr(timedomain, "propagate", vanishing)
        cfgp = write_config(tmp_path, "sim.json", SMALL_SIM)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("projection_sq:") and printed.endswith(" -> 0\n")
        headline = json.loads((out / "manifest.json").read_text())["headline"]
        assert headline["fitted_rate"] is None

    def test_filter(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "sim.json", SMALL_SIM)
        assert main(["filter", "--config", cfgp, "--seed", "3"]) == 0
        assert "projection retained:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "filter"])
    @pytest.mark.parametrize(
        "x_min, x_max", [(-10.0, 10.0), (-10.0, 30.0)], ids=["narrow", "off_centre"]
    )
    def test_domain_must_contain_the_design_support(
        self, tmp_path, capsys, command, x_min, x_max
    ):
        # with the default a = 12 the narrow domain used to end in a
        # ValueError traceback, and the off-centre one silently cut the
        # well's left end off at x = -10
        sim = {"domain": {"x_min": x_min, "x_max": x_max, "n": 501}, "absorber": {"width": 3}}
        cfgp = write_config(tmp_path, "sim.json", {"simulator": sim})
        assert main([command, "--config", cfgp]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"simulator.domain [{x_min}, {x_max}]" in err
        assert "a = 12.0" in err

    @pytest.mark.parametrize("command", ["simulate", "filter"])
    @pytest.mark.parametrize(
        "simulator",
        [{"dt_max": 1e-300}, {"t_final": 1e308, "dt_max": 1e-10}],
        ids=["too_many_steps", "infinite_steps"],
    )
    def test_step_count_numpy_cannot_size_exits_4_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, simulator
    ):
        # these used to solve the ground state and then end in numpy's
        # ValueError (4e301 steps) or an OverflowError (an infinite count)
        # with exit 1, the code of a failed gradient check
        def unreachable(*args, **kwargs):
            raise AssertionError("the command solved before checking its step count")

        for module, name in (
            (fgr, "gamma"), (cli, "solve_ground_state"),
            (timedomain, "propagate"), (timedomain, "filter_experiment"),
        ):
            monkeypatch.setattr(module, name, unreachable)
        cfgp = write_config(tmp_path, "sim.json", {"simulator": simulator})
        assert main([command, "--config", cfgp]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: bad simulator section: t_final / dt_max")
        assert "Traceback" not in err

    def test_fit_window_with_too_few_samples_exits_4_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # [39.99, 40.0] holds only the last sample of the default run (dt =
        # 0.05); simulate used to take all 800 steps before refusing it
        def unreachable(*args, **kwargs):
            raise AssertionError("simulate solved before checking its fit window")

        monkeypatch.setattr(kernels, "cn_step_loop", unreachable)
        monkeypatch.setattr(cli, "solve_ground_state", unreachable)
        cfgp = write_config(tmp_path, "sim.json", {"simulator": {"fit_window": [39.99, 40.0]}})
        assert main(["simulate", "--config", cfgp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error: simulator.fit_window [39.99, 40.0] holds 1 of the run's samples "
            "(t_final = 40.0), the fit needs at least two"
        )

    @pytest.mark.parametrize("command", ["simulate", "filter"])
    def test_grid_without_the_resonant_wave_exits_3(self, tmp_path, capsys, command):
        # h = 4.14 gives k h / 2 = 2.86: the lattice has no state at the
        # forcing's energy, and simulate used to print a rate of 4e-14, exit 0
        sim = {"domain": {"x_min": -60.0, "x_max": 60.0, "n": 30}}
        cfgp = write_config(tmp_path, "sim.json", {"simulator": sim})
        assert main([command, "--config", cfgp]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: resonance k = ")
        assert "lattice cutoff 2/h = 0.483333 of the simulation grid" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "filter"])
    def test_invalid_beta_mode_exit_code(self, tmp_path, capsys, command):
        # beta is taken from the design parameters, as evaluate takes it,
        # so an unknown mode is a config error here too, not the indicator
        bogus = config.merge(SMALL_SIM, {"design": {"beta_mode": "bogus"}})
        cfgp = write_config(tmp_path, "sim.json", bogus)
        assert main([command, "--config", cfgp]) == EXIT_CONFIG
        assert "beta_mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("gradcheck", {"gradcheck": {"n_directions": "two"}}, "gradcheck.n_directions"),
        ("gradcheck", {"gradcheck": {"seed": "x"}}, "gradcheck.seed"),
        ("gradcheck", {"gradcheck": {"seed": -1}}, "gradcheck.seed"),
        ("gradcheck", {"gradcheck": {"fd_step": [1e-3]}}, "gradcheck.fd_step"),
        ("simulate", {"simulator": {"fit_window": ["a", 40.0]}}, "simulator.fit_window"),
        ("simulate", {"simulator": {"fit_window": [5.0]}}, "simulator.fit_window"),
        ("simulate", {"simulator": {"fit_window": 5.0}}, "simulator.fit_window"),
        ("filter", {"simulator": {"noise_amplitude": "big"}}, "simulator.noise_amplitude"),
        ("filter", {"simulator": {"seed": "x"}}, "simulator.seed"),
    ],
    ids=[
        "n_directions", "gradcheck_seed", "negative_seed", "fd_step",
        "fit_window", "short_fit_window", "scalar_fit_window", "noise_amplitude",
        "simulator_seed",
    ],
)
def test_bad_value_is_a_config_error_naming_the_key(tmp_path, capsys, command, overrides, key):
    # each of these used to end in a traceback with exit 1, the code for a
    # failed gradient check, or (a one-number fit window) in a NaN rate
    # and exit 0
    cfgp = write_config(tmp_path, "bad.json", config.merge(SMALL_SIM, overrides))
    assert main([command, "--config", cfgp]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, argv, overrides, key",
    [
        ("simulate", [], {"simulator": {"fit_window": [2.0, 0.5]}}, "simulator.fit_window"),
        ("filter", ["--seed", "-1"], {}, "simulator.seed"),
        ("evaluate", [], {"design": {"beta_halfwidth": -1}}, "design.beta_halfwidth"),
        ("optimize", [], {"optimizer": {"max_iters": -3}}, "max_iters"),
        ("sweep", ["--vary", "A"], {}, "sweep.vary"),
        ("optimize", [], {"optimizer": {"symmetric": "false"}}, "optimizer.symmetric"),
        ("evaluate", [], {"grid": {"n": 2001.9}}, "grid.n"),
        ("evaluate", [], {"grid": {"n": 3}}, "grid section: need at least 4 nodes, got n=3"),
        # 8n bytes of x pass intp; before, the first read of x failed in
        # the design section with numpy's "array is too big"
        ("evaluate", [], {"grid": {"n": 1 << 62}}, f"bad grid section: n={1 << 62} "),
        # tau only falls: this ran one stage at tau = 1e-8 with exit 0
        ("optimize", [], {"optimizer": {"tau_start": 1e-8, "tau_min": 1e-2, "max_iters": 3}},
         "bad optimizer section: tau_min = 0.01 must not exceed tau_start = 1e-08"),
        ("evaluate", [], {"design": {"mu": float("nan")}}, "design.mu"),
        ("evaluate", [], {"init": {"A": True}}, "init.A"),
        ("evaluate", [], {"design": {"mu": "2"}}, "design.mu"),
        ("evaluate", [], {"simulator": {"domain": 3001}}, "simulator.domain"),
        # SMALL_SIM runs to t_final = 2.0
        ("simulate", [], {"simulator": {"fit_window": [5.0, 9.0]}}, "simulator.fit_window"),
        ("simulate", [], {"simulator": {"fit_window": [1.99, 9.0]}}, "simulator.fit_window"),
        ("simulate", [], {"simulator": {"absorber": {"width": 15.0, "strength": -40.0}}},
         "simulator.absorber"),
    ],
    ids=[
        "decreasing_fit_window", "negative_seed_flag", "negative_beta_halfwidth",
        "negative_max_iters", "unknown_vary", "string_bool", "fractional_int", "three_nodes",
        "grid_numpy_cannot_size", "tau_range_upward",
        "nan", "bool_as_number", "numeric_string", "scalar_section", "fit_window_after_the_run",
        "fit_window_of_one_sample", "negative_absorber_strength",
    ],
)
def test_bad_type_or_range_exits_4_naming_the_key(
    tmp_path, capsys, command, argv, overrides, key
):
    # each value is checked against the type of its default when the config
    # is loaded, and a flag that sets a key is checked as the file is.
    # Before, a decreasing window printed no rate with exit 0, "false" ran
    # symmetric, n = 2001.9 ran n = 2001, true ran A = 1, "2" was read as
    # 2, and a negative seed, a NaN or a grid of 3 nodes ended in a traceback.
    # A negative absorber strength amplified the field: here a projection of
    # 4.5e25 at t = 2 and a negative rate with exit 0, and with the default
    # simulator section an overflow (exit 3)
    cfgp = write_config(tmp_path, "bad.json", config.merge(SMALL_SIM, overrides))
    assert main([command, "--config", cfgp] + argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err


class TestGradcheck:
    def test_passes_with_few_directions(self, tmp_path, capsys):
        cfgp = write_config(
            tmp_path, "gc.json", {"gradcheck": {"n_directions": 2}}
        )
        assert main(["gradcheck", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_coarse_step_fails_with_exit_1(self, tmp_path, capsys):
        # central differences with a step of 0.2 carry O(step^2) truncation
        # errors far above the 1e-3 tolerance
        cfgp = write_config(
            tmp_path, "gc.json", {"gradcheck": {"n_directions": 2, "fd_step": 0.2}}
        )
        out = str(tmp_path / "gc")
        assert main(["gradcheck", "--config", cfgp, "--out", out]) == EXIT_CHECK_FAILED == 1
        assert "FAIL" in capsys.readouterr().out
        man = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert man["headline"]["passed"] is False

    def test_no_directions_is_a_config_error(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "gc.json", {"gradcheck": {"n_directions": 0}})
        assert main(["gradcheck", "--config", cfgp]) == EXIT_CONFIG
        assert "gradcheck.n_directions" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("inf")])
    def test_degenerate_fd_step_is_a_config_error(self, tmp_path, capsys, step):
        cfgp = write_config(tmp_path, "gc.json", {"gradcheck": {"fd_step": step}})
        assert main(["gradcheck", "--config", cfgp]) == EXIT_CONFIG
        assert "gradcheck.fd_step" in capsys.readouterr().err


class TestEveryCommand:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_exits_4_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        # the directory is made as the command starts: before, each command
        # did all its work first and then ended in FileExistsError (or
        # NotADirectoryError) with a traceback and exit 1
        def unreachable(*args, **kwargs):
            raise AssertionError("the command solved before making its --out directory")

        for module, name in (
            (fgr, "gamma"), (cli, "solve_ground_state"),
            (timedomain, "propagate"), (timedomain, "filter_experiment"),
        ):
            monkeypatch.setattr(module, name, unreachable)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "out" if under else taken
        assert main(small_run(tmp_path, command, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: cannot make the output directory")
        assert "Traceback" not in err
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_manifest_records_the_runtime(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(small_run(tmp_path, command, out)) == 0
        man = json.loads((out / "manifest.json").read_text(), parse_constant=no_constant)
        assert man["runtime"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "backend": kernels.BACKEND,
        }
        assert all(isinstance(v, str) and v for v in man["runtime"].values())
        assert man["command"] == command
