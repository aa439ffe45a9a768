"""Tests for the command-line front end: config parsing, commands, exit codes."""

import csv
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symfd
from symfd import Grid1D, Grid2D, PdeParams
from symfd.cli import (
    CONVERGE_DEFAULTS,
    DEFAULTS,
    apply_overrides,
    build_run_config,
    main,
    parse_config_file,
)
from symfd.errors import ConfigInvalid
from symfd.metrics import evolve, fit_slope, grid_for


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestConfigFile:
    def test_comments_blanks_and_whitespace(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a full-line comment\n"
            "pde = ade1d   # trailing comment\n"
            "\n"
            "scheme=comp\n"
            "tau = 0.01\n"
        )
        assert parse_config_file(str(cfg)) == {
            "pde": "ade1d",
            "scheme": "comp",
            "tau": "0.01",
        }

    def test_malformed_line_reports_path_and_lineno(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pde=vbe\nflub\n")
        with pytest.raises(ConfigInvalid, match=r"bad\.cfg:2"):
            parse_config_file(str(cfg))

    def test_overrides_later_wins(self):
        merged = apply_overrides({"tau": "1"}, ["tau=2", "nx=21", "tau=3"])
        assert merged == {"tau": "3", "nx": "21"}

    def test_override_without_equals_rejected(self):
        with pytest.raises(ConfigInvalid, match="key=value"):
            apply_overrides({}, ["nx21"])


class TestBuildRunConfig:
    def test_defaults_fill_in(self):
        cfg = build_run_config({"pde": "vbe"})
        assert cfg.scheme == "sym" and cfg.schemes == ("sym",)
        assert cfg.domain == (0.0, 2.0 * math.pi)
        assert cfg.n == (101,) and cfg.sizes == ()
        assert cfg.tau == 1e-4 and cfg.t_final == 0.25
        assert cfg.params.nu == pytest.approx(1.0 / 12.0)
        assert cfg.galilean_c is None
        assert cfg.output_path == "vbe_sym_profile.csv"

    def test_converge_layers_its_defaults(self):
        cfg = build_run_config({"pde": "ade1d", "t_final": "0.1"}, "converge")
        assert cfg.schemes == ("ftcs", "comp", "sym")
        assert cfg.sizes == (31, 41, 61)
        assert cfg.tau == CONVERGE_DEFAULTS["ade1d"]["tau"] and cfg.t_final == 0.1
        assert cfg.n == (DEFAULTS["ade1d"]["nx"],)
        assert cfg.output_path == "ade1d_convergence.csv"

    def test_galilean_defaults_to_vbe(self):
        cfg = build_run_config({"schemes": "sym,comp"}, "galilean")
        assert cfg.pde == "vbe" and cfg.schemes == ("sym", "comp")
        assert cfg.tau == DEFAULTS["vbe"]["tau"] and cfg.sizes == ()
        assert cfg.output_path == "vbe_galilean.csv"

    def test_grid_and_params_properties(self):
        cfg = build_run_config({"pde": "ade1d", "nx": "13"})
        grid = grid_for(cfg.pde, cfg.domain, cfg.n)
        assert isinstance(grid, Grid1D)
        assert grid.n == 13 and grid.x0 == -2.0
        assert grid.h == pytest.approx(6.0 / 12.0)
        assert cfg.params == PdeParams(alpha=1.0, beta=1.0, nu=1.0 / 60.0, sigma=0.5, L=0.4)

    def test_square_grid_defaults_ny_to_nx(self):
        cfg = build_run_config({"pde": "ade2d", "nx": "11"})
        assert cfg.n == (11, 11)
        grid = grid_for(cfg.pde, cfg.domain, cfg.n)
        assert isinstance(grid, Grid2D)
        assert grid.hx == pytest.approx(0.4) and grid.hy == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "mapping, fragment",
        [
            ({"pde": "heat"}, "'pde'"),
            ({}, "'pde'"),
            ({"pde": "ibe", "scheme": "sym1"}, "'scheme'"),
            ({"pde": "ade1d", "nx": "3"}, ">= 5"),
            ({"pde": "ade1d", "nx": "seven"}, "integer"),
            ({"pde": "ade1d", "x_lo": "2", "x_hi": "-2"}, "not increasing"),
            ({"pde": "ade1d", "tau": "-1"}, "'tau'"),
            ({"pde": "ade1d", "tau": "fast"}, "number"),
            ({"pde": "ade1d", "t_final": "-0.1"}, "'t_final'"),
            ({"pde": "ade1d", "galilean_c": "0.5"}, "'galilean_c'"),
            ({"pde": "ade1d", "sigma": "0"}, "'sigma'"),
            ({"pde": "ade1d", "L": "0"}, "'L'"),
            ({"pde": "ade1d", "nu": "-0.5"}, "'nu'"),
        ],
    )
    def test_invalid_fields_rejected(self, mapping, fragment):
        with pytest.raises(ConfigInvalid, match=fragment):
            build_run_config(mapping)

    @pytest.mark.parametrize(
        "command, mapping, fragment",
        [
            ("converge", {"pde": "ade1d", "sizes": "1,11,21"}, "'sizes' must be >= 5, got 1"),
            ("converge", {"pde": "ade2d", "sizes": "11,4,21"}, "'sizes' must be >= 5, got 4"),
            ("converge", {"pde": "ade1d", "sizes": "11,11,21"}, "at least 3 distinct"),
            ("converge", {"pde": "ade1d", "schemes": ""}, "at least one scheme"),
            ("converge", {"pde": "ibe", "schemes": "ftcs,sym1"}, "'sym1'"),
            ("converge", {"pde": "ade1d", "nx": "4"}, "'nx' must be >= 5"),
            ("galilean", {"pde": "ade1d"}, "'vbe'"),
            ("galilean", {"schemes": "sym2"}, "'sym2'"),
            ("galilean", {"nx": "3"}, "'nx' must be >= 5"),
        ],
    )
    def test_invalid_study_fields_rejected(self, command, mapping, fragment):
        with pytest.raises(ConfigInvalid, match=fragment):
            build_run_config(mapping, command)


CHEAP_RUN = ["pde=ade1d", "scheme=comp", "tau=0.01", "t_final=0.02", "nx=21"]


class TestRunCommand:
    def test_writes_profile_and_summary(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        assert main(["run", *CHEAP_RUN, f"output_path={out}"]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "u_numeric", "u_exact", "error"]
        assert len(rows) == 21
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scheme,pde,n,h,tau,t_final,rmse,linf,wall_time"
        assert lines[1].startswith("comp,ade1d,21,")

    def test_profile_round_trips_at_full_precision(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["run", *CHEAP_RUN, f"output_path={out}"]) == 0
        cfg = build_run_config(dict(pair.split("=") for pair in CHEAP_RUN))
        numeric, reference, _ = evolve(
            cfg.pde, cfg.scheme, grid_for(cfg.pde, cfg.domain, cfg.n), cfg.tau, cfg.t_final,
            cfg.params,
        )
        _, rows = read_csv(out)
        assert np.array_equal(np.array([float(r[1]) for r in rows]), numeric)
        assert np.array_equal(np.array([float(r[2]) for r in rows]), reference)

    def test_zero_horizon_profile_has_zero_error(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["run", *CHEAP_RUN[:-2], "t_final=0", f"output_path={out}"]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert row[1] == row[2]
            assert float(row[3]) == 0.0

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", *CHEAP_RUN]) == 0
        capsys.readouterr()
        assert (tmp_path / "ade1d_comp_profile.csv").exists()

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pde=ade1d\nscheme=ftcs\ntau=0.01\nt_final=0.02\nnx=21\n")
        out = tmp_path / "profile.csv"
        code = main(["run", "--config", str(cfg), "scheme=comp", f"output_path={out}"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("comp,")

    def test_boosted_run_shifts_profile_coordinates(self, tmp_path):
        out = tmp_path / "boosted.csv"
        args = ["pde=vbe", "scheme=sym", "nx=41", "tau=1e-3", "t_final=0.05",
                "galilean_c=0.5", f"output_path={out}"]
        assert main(["run", *args]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][0]) == pytest.approx(0.5 * 0.05, abs=1e-15)
        cfg = build_run_config(dict(arg.split("=", 1) for arg in args))
        grid = grid_for(cfg.pde, cfg.domain, cfg.n)
        xs = np.array([float(r[0]) for r in rows])
        assert np.array_equal(xs, grid.x + 0.5 * 0.05)

    def test_square_profile_has_coordinate_pair(self, tmp_path, capsys):
        out = tmp_path / "square.csv"
        args = ["pde=ade2d", "scheme=comp", "nx=8", "ny=11", "tau=1e-3", "t_final=0.002",
                f"output_path={out}"]
        assert main(["run", *args]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "u_numeric", "u_exact", "error"]
        assert len(rows) == 88
        cfg = build_run_config(dict(arg.split("=", 1) for arg in args))
        grid = grid_for(cfg.pde, cfg.domain, cfg.n)
        assert (grid.nx, grid.ny) == (8, 11)
        numeric, reference, _ = evolve(
            cfg.pde, cfg.scheme, grid, cfg.tau, cfg.t_final, cfg.params
        )
        table = np.array([[float(v) for v in row] for row in rows])
        mesh_x, mesh_y = np.meshgrid(grid.x, grid.y, indexing="ij")
        assert np.array_equal(table[:, 0], mesh_x.ravel())
        assert np.array_equal(table[:, 1], mesh_y.ravel())
        assert np.array_equal(table[:, 2], numeric.ravel())
        assert np.array_equal(table[:, 3], reference.ravel())
        assert np.array_equal(table[:, 4], (numeric - reference).ravel())
        summary = capsys.readouterr().out.splitlines()[1].split(",")
        assert summary[2] == "8x11"
        assert summary[3] == f"{grid.hx:.17g}x{grid.hy:.17g}"
        assert [float(h) for h in summary[3].split("x")] == [grid.hx, grid.hy]

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_field_exits_nonzero(self, capsys):
        assert main(["run", "pde=ade1d", "tau=-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'tau'" in err

    def test_fractional_step_count_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        args = ["pde=ade1d", "scheme=ftcs", "tau=1e-10", "t_final=1.5e-10", f"output_path={out}"]
        assert main(["run", *args]) == 1
        assert "whole number of steps" in capsys.readouterr().err
        assert not out.exists()


CHEAP_CONVERGE = ["pde=ade1d", "sizes=11,16,21", "tau=5e-3", "t_final=0.05", "schemes=comp"]


class TestConvergeCommand:
    def test_table_rows_and_slope(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["converge", *CHEAP_CONVERGE, f"output_path={out}"]) == 0
        header, rows = read_csv(out)
        assert header == ["scheme", "n", "h", "linf", "slope"]
        assert [r[0] for r in rows] == ["comp"] * 3
        assert [int(r[1]) for r in rows] == [11, 16, 21]
        hs = [float(r[2]) for r in rows]
        errs = [float(r[3]) for r in rows]
        slopes = {float(r[4]) for r in rows}
        assert len(slopes) == 1
        assert slopes.pop() == pytest.approx(fit_slope(hs, errs), abs=1e-12)
        assert "ade1d comp: slope" in capsys.readouterr().err

    def test_too_few_sizes_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["converge", "pde=ade1d", "sizes=31,41", f"output_path={out}"])
        assert code == 1
        assert "at least 3 distinct" in capsys.readouterr().err

    def test_unknown_scheme_exits_nonzero(self, capsys):
        code = main(["converge", *CHEAP_CONVERGE[:-1], "schemes=comp,sym2"])
        assert code == 1
        assert "'sym2'" in capsys.readouterr().err

    def test_too_small_size_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        args = ["pde=ade1d", "sizes=1,11,21", "schemes=ftcs", f"output_path={out}"]
        assert main(["converge", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'sizes'" in err and ">= 5" in err
        assert not out.exists()

    def test_empty_scheme_list_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["converge", *CHEAP_CONVERGE[:-1], "schemes=", f"output_path={out}"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_zero_horizon_exits_nonzero(self, tmp_path, capsys):
        # every error is 0, which has no logarithm: no slope, no CSV of NaNs
        out = tmp_path / "table.csv"
        args = ["pde=ade1d", "t_final=0", "schemes=ftcs", f"output_path={out}"]
        assert main(["converge", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "positive and finite" in err
        assert not out.exists()


CHEAP_GALILEAN = ["c_values=0,0.4", "schemes=sym", "nx=41", "tau=1e-3", "t_final=0.05"]


class TestGalileanCommand:
    def test_invariant_rows_match_across_boosts(self, tmp_path):
        out = tmp_path / "boost.csv"
        assert main(["galilean", *CHEAP_GALILEAN, f"output_path={out}"]) == 0
        header, rows = read_csv(out)
        assert header == ["c", "scheme", "rmse", "linf"]
        assert [(float(r[0]), r[1]) for r in rows] == [(0.0, "sym"), (0.4, "sym")]
        linfs = [float(r[3]) for r in rows]
        assert abs(linfs[1] - linfs[0]) <= 1e-10 * max(linfs)

    def test_zero_boost_matches_plain_run(self, tmp_path):
        out = tmp_path / "boost.csv"
        args = ["c_values=0", "schemes=comp", "nx=41", "tau=1e-3", "t_final=0.05"]
        assert main(["galilean", *args, f"output_path={out}"]) == 0
        _, rows = read_csv(out)
        grid = Grid1D(0.0, 2.0 * math.pi / 40.0, 41)
        _, _, plain = evolve("vbe", "comp", grid, 1e-3, 0.05, PdeParams(nu=1.0 / 12.0))
        assert float(rows[0][3]) == pytest.approx(plain.linf, rel=1e-14)

    def test_rejects_other_problems(self, capsys):
        assert main(["galilean", "pde=ade1d"]) == 1
        assert "'vbe'" in capsys.readouterr().err

    @pytest.mark.parametrize("speed", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_speeds(self, speed, tmp_path, capsys):
        out = tmp_path / "boost.csv"
        assert main(["galilean", f"c_values=0,{speed}", f"output_path={out}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'c_values'" in err and "finite" in err
        assert not out.exists()


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "0 failure(s)"
        assert len(lines) == 17
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_installed_entry_point(self):
        exe = shutil.which("symfd")
        cmd = [exe, "selftest"] if exe else [sys.executable, "-m", "symfd.cli", "selftest"]
        # Without an installed entry point, run the package these tests import,
        # which pytest may have put on sys.path itself (pyproject's pythonpath).
        src = str(Path(symfd.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "0 failure(s)" in proc.stdout


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()
