"""Config loading and command-line workflow tests (in-process, tmp dirs)."""
import csv
import json
import os

import numpy as np
import pytest

from pdp import config
from pdp.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, _fmt, _write_csv, main
from pdp.errors import ConfigError
from pdp.grid import DesignParams, Grid
from pdp.spectral import distorted_plane_waves


def write_config(tmp_path, name, overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


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


class TestConfig:
    def test_defaults_returned_without_path(self):
        cfg = config.load_config(None)
        assert cfg == config.DEFAULTS
        cfg["design"]["mu"] = 99.0
        assert config.DEFAULTS["design"]["mu"] == 2.0  # deep copy

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
        ],
        ids=["optimizer", "simulator.domain", "simulator.absorber"],
    )
    def test_unknown_key_rejected(self, tmp_path, overrides):
        # a misspelt key would otherwise leave its default silently in force
        path = write_config(tmp_path, "bad.json", overrides)
        with pytest.raises(ConfigError, match="unknown keys"):
            config.load_config(path)

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
            t = distorted_plane_waves(V, float(k)).t
            assert row == ",".join(_fmt(v) for v in (k, abs(t) ** 2, t.real, t.imag))

    def test_no_bound_state_exit_code(self, tmp_path):
        # potential identically zero: no bound state -> domain-error exit 2
        vpath = tmp_path / "zero.csv"
        vpath.write_text("x,V\n-20,0\n20,0\n")
        assert main(["evaluate", "--potential", str(vpath)]) == 2

    def test_bad_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"nonsense": {}})
        assert main(["evaluate", "--config", path]) == 4
        path2 = write_config(tmp_path, "bad2.json", {"design": {"beta_mode": "wat"}})
        assert main(["evaluate", "--config", path2]) == 4
        # the support [-a, a] of the beta indicator must lie inside the grid
        path3 = write_config(tmp_path, "bad3.json", {"design": {"a": 25.0}})
        assert main(["evaluate", "--config", path3]) == 4


class TestPotentialFile:
    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize(
        "rows", ["-20,0\n0,nan\n20,0\n", "-20,0\n0,-inf\n20,0\n", "-20,0\nnan,-1\n20,0\n"],
        ids=["V_nan", "V_inf", "x_nan"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, rows):
        # a NaN compares as non-negative in the Sturm count, so a file that
        # got past loading would read as a domain error (no bound state)
        vpath = tmp_path / "bad.csv"
        vpath.write_text("x,V\n" + rows)
        assert main([command, "--potential", str(vpath)]) == EXIT_CONFIG == 4
        assert "non-finite" in capsys.readouterr().err

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

    def test_mixed_or_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            _write_csv(str(tmp_path / "m.csv"), {"a": [1.0, 2]})
        for columns in ({"a": [1.0, 2.0], "b": [3.0]}, {"a": [1.0], "b": [2.0, 3.0]}):
            with pytest.raises(ValueError):
                _write_csv(str(tmp_path / "r.csv"), columns)


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
        assert "sweep values" in capsys.readouterr().err


class TestSimulateAndFilter:
    def test_simulate(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "sim.json", SMALL_SIM)
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfgp, "--out", out]) == 0
        rows = open(os.path.join(out, "projection.csv")).read().splitlines()
        assert rows[0] == "t,projection_sq,norm"
        assert len(rows) > 10
        assert "projection_sq:" in capsys.readouterr().out

    def test_filter(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "sim.json", SMALL_SIM)
        assert main(["filter", "--config", cfgp, "--seed", "3"]) == 0
        assert "projection retained:" in capsys.readouterr().out


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
