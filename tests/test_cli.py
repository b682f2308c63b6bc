"""Command-line interface: parsing, schemas, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionphonon import cli
from ionphonon.bloch import (
    dispersion_zigzag,
    mode_shapes,
    reduced_zone_grid,
    ring_momenta,
    zone_grid,
)
from ionphonon.chain import Boundary, ChainConfig, solve_delta0
from ionphonon.cli import main, parse_config
from ionphonon.errors import BracketingError, DynamicalInstabilityError, ResolutionWarning
from ionphonon.observables import PhononField
from test_input_owners import refused
from test_symplectic import configs_near_transitions


# every command at small sizes, without --kappa and --n-ions
SMALL_RUNS = [
    ["equilibrium"], ["dispersion"], ["modes"],
    ["correlations", "--max-separation", "2"],
    ["heat-capacity", "--t-steps", "4"],
    ["susceptibility", "--omega-steps", "4"], ["energy-reduction"],
    ["ginzburg", "--n-list", "16,32"],
]
# each of them in bulk too, on 8 momenta; the bulk correlations of y alone:
# at kappa 0.6 the xx correlator diverges in the thermodynamic limit
BULK_RUNS = [
    pytest.param(argv + ["--boundary", "bulk", "--k-points", "8"]
                 + (["--component", "y"] if argv[0] == "correlations" else []),
                 id=argv[0] + "-bulk")
    for argv in SMALL_RUNS
]


def row_tuples(columns):
    """A runner's columns read as rows."""
    return list(zip(*columns))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_field_builds(monkeypatch):
    """Record every PhononField construction; returns the growing list."""
    builds = []
    original = PhononField.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PhononField, "__init__", counting)
    return builds


class TestParsing:
    def test_flag_mapping(self):
        rc = parse_config(["dispersion", "--kappa", "0.6", "--n-ions", "32"])
        assert rc.command == "dispersion"
        assert rc.chain.kappa == 0.6
        assert rc.chain.n_ions == 32
        assert rc.chain.alpha == 1.0 and rc.chain.lam == 50.0

    def test_missing_kappa_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["dispersion"])
        assert exc.value.code == 2
        assert "--kappa" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["dispersion", "--kappa", "0.3", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_out_of_range_value_exits_2(self, capsys):
        code, _, err = run_cli(["equilibrium", "--kappa", "-0.5"], capsys)
        assert code == 2
        assert "kappa" in err

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.3\nn-ions = 32\nformat = json\n", encoding="utf-8")
        rc = parse_config(["equilibrium", "--config", str(cfg)])
        assert rc.chain.kappa == 0.3 and rc.chain.n_ions == 32 and rc.fmt == "json"
        rc = parse_config(["equilibrium", "--config", str(cfg), "--n-ions", "64"])
        assert rc.chain.n_ions == 64  # flags win over the file

    def test_malformed_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kappa 0.3 oops\n", encoding="utf-8")
        code, _, err = run_cli(["equilibrium", "--config", str(bad)], capsys)
        assert code == 2
        bad.write_text("not_a_known_key = 1\n", encoding="utf-8")
        code, _, _ = run_cli(["equilibrium", "--config", str(bad)], capsys)
        assert code == 2
        bad.write_text(f"kappa = 0.3\nconfig = {bad}\n", encoding="utf-8")
        code, _, err = run_cli(["equilibrium", "--config", str(bad)], capsys)
        assert code == 2 and "'config'" in err

    @pytest.mark.parametrize("key, value", [
        ("component", "w"), ("sublattice", "5"), ("format", "xml"),
        ("boundary", "sideways"),
    ])
    def test_config_file_value_checked_like_its_flag(self, key, value,
                                                     tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        base = ["correlations", "--kappa", "0.3", "--n-ions", "8"]
        errors = []
        for argv in (base + ["--config", str(cfg)], base + [f"--{key}", value]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert f"argument --{key}: invalid choice" in errors[0]
        assert errors[0] == errors[1]

    def test_config_file_switches(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.3\ninclude_longitudinal_zero_mode = yes\n"
                       "exclude-radial-zero-mode = true\n", encoding="utf-8")
        rc = parse_config(["correlations", "--config", str(cfg)])
        assert rc.include_longitudinal_zero_mode is True
        assert rc.include_radial_zero_mode is False
        cfg.write_text("kappa = 0.3\nexclude-radial-zero-mode = false\n",
                       encoding="utf-8")
        assert parse_config(["correlations", "--config", str(cfg)]
                            ).include_radial_zero_mode is True
        cfg.write_text("kappa = 0.3\nexclude-radial-zero-mode = maybe\n",
                       encoding="utf-8")
        code, _, err = run_cli(["correlations", "--config", str(cfg)], capsys)
        assert code == 2 and "true or false" in err

    def test_two_runs_build_one_parser(self, monkeypatch, capsys):
        builds = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        try:
            for n_ions in ("8", "16"):
                code, _, _ = run_cli(["equilibrium", "--kappa", "0.3",
                                      "--n-ions", n_ions], capsys)
                assert code == 0
        finally:
            cli._parser.cache_clear()
        assert builds == ["ionphonon"]

    def test_flags_are_parsed_once_without_a_config_file(self, monkeypatch, tmp_path):
        # parse_args goes through parse_known_args; a config file adds the
        # one parse of the flags behind its tokens
        parser, calls = cli._parser(), []
        original = parser.parse_known_args

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        assert parse_config(["equilibrium", "--kappa", "0.3"]).chain.kappa == 0.3
        assert len(calls) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.3\n", encoding="utf-8")
        assert parse_config(["equilibrium", "--config", str(cfg)]).chain.kappa == 0.3
        assert len(calls) == 3 and calls[-1][0] == "--kappa=0.3"

    @pytest.mark.parametrize("argv, name, value", [
        (["heat-capacity", "--t-steps", "-1"], "--t-steps", -1),
        (["susceptibility", "--omega-steps", "-3"], "--omega-steps", -3),
        (["heat-capacity", "--temperature", "0"], "--temperature", 0.0),
        (["heat-capacity", "--temperature", "-1"], "--temperature", -1.0),
        (["heat-capacity", "--t-min", "-1"], "--t-min", -1.0),
        (["correlations", "--temperature", "-1"], "--temperature", -1.0),
        (["ginzburg", "--n-list", "2,50"], "--n-list size", 2),
        (["heat-capacity", "--temperature", "inf"], "--temperature", math.inf),
        (["susceptibility", "--omega-max", "inf"], "--omega-max", math.inf),
        (["dispersion", "--boundary", "bulk", "--k-points", "1"], "--k-points", 1),
        (["correlations", "--max-separation", "-1"], "--max-separation", -1),
        (["susceptibility", "--eta", "0"], "--eta", 0.0),
        (["ginzburg", "--n-list", ","], "--n-list", ()),
        # a one-point grid at T = -1 once ran, with exit 0, through log10
        (["heat-capacity", "--t-max", "-1", "--t-steps", "1"], "--t-max", -1.0),
        (["susceptibility", "--omega-min", "nan", "--omega-steps", "1"], "--omega-min", math.nan),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, argv, name, value, capsys):
        # each rule's owner names the flag and the value as its type parsed it
        code, _, err = run_cli(argv + ["--kappa", "0.6", "--n-ions", "8"], capsys)
        assert code == 2
        assert err.startswith("usage error: ")
        assert re.match(refused(name, value), err.removeprefix("usage error: "))

    def test_grid_validation(self, capsys):
        code, _, err = run_cli(
            ["heat-capacity", "--kappa", "0.3", "--t-min", "2", "--t-max", "1"],
            capsys,
        )
        assert code == 2 and "increasing" in err


class TestCommands:
    def test_equilibrium_schema(self, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--kappa", "0.6", "--n-ions", "16"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "kappa[1]" and "delta0[d]" in header[1]
        assert len(lines) == 2
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["delta0[d]"]) > 0.0

    def test_dispersion_row_count_and_zero_modes(self, capsys):
        code, out, _ = run_cli(
            ["dispersion", "--kappa", "0.6", "--n-ions", "16"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 8 * 6  # ring momenta x six branches
        zero_rows = [l for l in lines[1:] if l.split(",")[5] == "1"]
        assert len(zero_rows) == 2

    @pytest.mark.parametrize("boundary", ["ring", "bulk"])
    def test_dispersion_columns_read_the_tracked_bands(self, boundary, capsys):
        code, out, _ = run_cli(["dispersion", "--kappa", "0.6", "--n-ions", "16",
                                "--boundary", boundary, "--k-points", "16"], capsys)
        assert code == 0
        header, rows = _parse_csv(out)
        columns = dict(zip(header, np.array(rows).T))
        cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=Boundary(boundary))
        grid = ring_momenta(16) if boundary == "ring" else reduced_zone_grid(16)
        bands = dispersion_zigzag(grid, cfg)
        theta, collectivity = mode_shapes(bands.omega, 2.0 * np.abs(bands.phi) ** 2,
                                          bands.omega_bare)
        np.testing.assert_array_equal(columns["omega[omega_I]"], bands.omega.ravel())
        np.testing.assert_array_equal(columns["theta_xy[rad]"], theta.ravel())
        np.testing.assert_array_equal(columns["collectivity[1]"], collectivity.ravel())
        np.testing.assert_array_equal(columns["is_zero_mode"], (~bands.mask).ravel())

    def test_correlations_component_selection(self, capsys):
        code, out, _ = run_cli(
            ["correlations", "--kappa", "0.3", "--n-ions", "16",
             "--component", "y", "--max-separation", "4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 5
        assert all(line.split(",")[3] == "y" for line in lines[1:])

    def test_heat_capacity_sweep_plateau(self, capsys):
        code, out, _ = run_cli(
            ["heat-capacity", "--kappa", "0.3", "--n-ions", "32",
             "--t-min", "0.05", "--t-max", "50", "--t-steps", "8"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        temps = [float(l.split(",")[0]) for l in lines]
        heats = [float(l.split(",")[1]) for l in lines]
        assert temps == sorted(temps)
        assert heats[-1] == pytest.approx(3.0, rel=0.01)
        assert heats[0] < heats[-1]

    def test_susceptibility_schema(self, capsys):
        code, out, _ = run_cli(
            ["susceptibility", "--kappa", "0.3", "--n-ions", "16",
             "--omega-steps", "5", "--omega-max", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split(",") == [
            "omega[omega_I]", "chi_re[d^2/omega_I]", "chi_im[d^2/omega_I]",
            "phase[rad]"]
        assert len(lines) == 6

    def test_modes_lists_zero_pairs(self, capsys):
        code, out, _ = run_cli(
            ["modes", "--kappa", "0.6", "--n-ions", "16", "--format", "json"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        kinds = [row["kind"] for row in doc["rows"]]
        assert kinds.count("zero-pair") == 2
        # one certificate of W W^-1 = 1: completeness, not a second product
        assert "completeness_residual" in doc["meta"]
        assert "w_inverse_residual" not in doc["meta"]
        assert doc["meta"]["completeness_residual"] < 1e-10

    def test_modes_zero_point_shift_is_half_the_phonon_sum(self, capsys):
        code, out, _ = run_cli(
            ["modes", "--kappa", "0.6", "--n-ions", "16", "--format", "json"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        omegas = [row["omega[omega_I]"] for row in doc["rows"] if row["kind"] == "phonon"]
        assert len(omegas) == 4
        assert doc["meta"]["zero_point_shift_k0"] == pytest.approx(0.5 * sum(omegas), rel=1e-15)

    def test_ginzburg_rows(self, capsys):
        code, out, _ = run_cli(
            ["ginzburg", "--kappa", "0.6", "--n-list", "50,100"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3

    def test_energy_reduction_row(self, capsys):
        code, out, _ = run_cli(
            ["energy-reduction", "--kappa", "0.5", "--n-ions", "16"], capsys)
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[2])
        assert value < 0.0


class TestExitCodesAndFiles:
    def test_physics_error_writes_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "corr.csv"
        code, _, err = run_cli(
            ["correlations", "--kappa", "0.44", "--boundary", "bulk",
             "--component", "x", "--output", str(out_path)], capsys)
        assert code == 3
        assert "divergent" in err or "diverges" in err
        sidecar = json.loads((tmp_path / "corr.csv.error.json").read_text())
        assert sidecar["error"] == "DivergenceError"
        assert not out_path.exists()

    def test_divergent_bulk_correlator_builds_no_field(self, tmp_path, capsys,
                                                       monkeypatch):
        builds = count_field_builds(monkeypatch)
        code, _, _ = run_cli(
            ["correlations", "--kappa", "0.3", "--boundary", "bulk",
             "--component", "x", "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 3
        assert builds == []

    @pytest.mark.parametrize("exc, field, value", [
        (DynamicalInstabilityError("unstable", frequencies=[0.5j, 0.25j]),
         "frequencies", [0.5, 0.25]),
        (BracketingError("no sign change", interval=(0.0, 128.0)),
         "interval", [0.0, 128.0]),
    ], ids=["instability", "bracketing"])
    def test_sidecar_keeps_error_payload(self, exc, field, value, tmp_path,
                                         capsys, monkeypatch):
        def fail(rc):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "equilibrium", fail)
        out_path = tmp_path / "eq.csv"
        code, _, _ = run_cli(["equilibrium", "--kappa", "0.3",
                              "--output", str(out_path)], capsys)
        assert code == 3
        sidecar = json.loads((tmp_path / "eq.csv.error.json").read_text())
        assert sidecar["error"] == type(exc).__name__
        assert sidecar[field] == value

    def test_io_error_exits_4(self, capsys):
        code, _, err = run_cli(
            ["equilibrium", "--kappa", "0.3",
             "--output", "/nonexistent-dir/x.csv"], capsys)
        assert code == 4

    def test_ginzburg_below_transition_exits_3(self, capsys):
        code, _, err = run_cli(["ginzburg", "--kappa", "0.3"], capsys)
        assert code == 3

    def test_ginzburg_with_a_linear_ring_exits_3(self, tmp_path, capsys):
        # kappa 0.4754 is past the bulk transition, but the 50-ion ring is
        # still linear: its (2 pi delta0)^2 = 0 used to end in a bare
        # ZeroDivisionError, exit 1
        out_path = tmp_path / "g.csv"
        code, _, err = run_cli(["ginzburg", "--kappa", "0.4754", "--boundary", "bulk",
                                "--output", str(out_path)], capsys)
        assert code == 3 and not out_path.exists()
        message = ("the 50-ion ring at kappa = 0.4754 is at or below its transition: "
                   "no zigzag order parameter")
        assert json.loads((tmp_path / "g.csv.error.json").read_text()) == {
            "error": "NoOrderParameterError", "message": message}
        assert err == f"physics error: {message}\n"

    def test_determinism_byte_identical(self, tmp_path):
        argvs = ["dispersion", "--kappa", "0.6", "--n-ions", "16",
                 "--format", "json"]
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(argvs + ["--output", str(path)]) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_table_is_streamed(self, tmp_path):
        # a 1024-ion dispersion has 3072 rows; writing them must not build
        # the whole text (~0.3 MB) before it reaches the file
        import tracemalloc

        from ionphonon.cli import _write_csv

        columns = tuple(zip(*[(0.001 * i, i % 6, 0.1234567890123 * i, 0.3, 0.9, 0)
                              for i in range(3072)]))
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            tracemalloc.start()
            _write_csv(fh, ["k", "branch", "omega", "theta", "coll", "zero"], columns)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 200_000
        assert peak < size / 4
        # one write for the header and one per block of rows, each under 128 KiB;
        # the factored table of a 1024-ion dispersion is written alike
        for header, table in (["k", "branch", "omega", "theta", "coll", "zero"], columns), \
                dispersion_table(["--n-ions", "1024"])[1:]:
            sink = WriteSizes()
            cli._write_csv(sink, header, table)
            rows = row_tuples(table)
            line = ",".join("%.17g" if isinstance(v, float) else "%d" for v in rows[0]) + "\n"
            assert sink.getvalue() == ",".join(header) + "\n" + "".join(line % r for r in rows)
            assert len(sink.writes) == 1 + 3072 // BLOCK
            assert max(sink.writes) < 128 * 1024

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_csv_columns_keep_one_type(self, argv):
        # _write_csv formats every cell of a column with its first cell's
        # conversion: an int in a float column would print it with %d
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        _, header, columns = cli._RUNNERS[rc.command](rc)
        assert columns and len(columns[0]) > 0
        for column in columns:
            assert len({cli._CSV_CONVERSIONS[type(v)] for v in column}) == 1

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_json_columns_keep_one_kind(self, argv):
        # _write_json formats every column by its first cell's type: an int
        # in a float column would print 1 as 1.0
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        _, header, columns = cli._RUNNERS[rc.command](rc)
        assert columns and len(columns[0]) > 0
        for column in columns:
            assert len({cli._JSON_CONVERSIONS[type(v)] for v in column}) == 1

    @pytest.mark.parametrize("argv", SMALL_RUNS + BULK_RUNS + [
        pytest.param(["heat-capacity", "--temperature", "0.5"], id="heat-capacity-at-T"),
    ], ids=lambda argv: argv[0])
    def test_every_runner_hands_the_writers_python_cells(self, argv):
        # no numpy scalar reaches a writer, and a column keeps one Python type,
        # whose conversion both writers take from its first cell: an int in a
        # float column would print with %d in CSV, and 1 for 1.0 in JSON
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        _, header, columns = cli._RUNNERS[rc.command](rc)
        assert len(columns) == len(header) and len(columns[0]) > 0
        for column in columns:
            assert len(column) == len(columns[0])
            assert len({type(v) for v in column}) == 1
            assert type(column[0]) in (int, float, str)
        assert set(cli._CSV_CONVERSIONS) == set(cli._JSON_CONVERSIONS) == {int, float, str}

    @pytest.mark.parametrize("argv", SMALL_RUNS + BULK_RUNS, ids=lambda argv: argv[0])
    def test_every_runner_meta_holds_python_values(self, argv):
        # so _write_json's one-pass encoder meets the leaf kinds it formats
        # itself, never numpy's
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        meta, _, _ = cli._RUNNERS[rc.command](rc)
        values = [meta]
        while values:
            value = values.pop()
            if type(value) is dict:
                assert all(type(key) is str for key in value)
                values += value.values()
            elif type(value) in (list, tuple):
                values += value
            else:
                assert type(value) in cli._JSON_LEAVES, value

    def test_csv_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "eq.csv"
        assert main(["equilibrium", "--kappa", "0.6", "--n-ions", "16",
                     "--output", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text
        header, row = text.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        eq = solve_delta0(ChainConfig(kappa=0.6, n_ions=16))
        assert float(values["delta0[d]"]) == eq.delta0  # 17 digits round-trip

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--kappa", "0.3", "--n-ions", "16",
             "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["meta"]["kappa"] == 0.3
        assert len(doc["rows"]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ionphonon.cli", "equilibrium",
         "--kappa", "0.3", "--n-ions", "8"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("kappa[1]")


def test_cli_import_leaves_scipy_unloaded():
    """The runtime needs numpy alone; scipy is a test-only oracle."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ionphonon.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_correlations_default_emits_all_pairs(capsys):
    code = main(["correlations", "--kappa", "0.6", "--n-ions", "16",
                 "--max-separation", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 3 * 6  # three separations x six independent pairs
    pairs = {(l.split(",")[3], l.split(",")[4]) for l in lines}
    assert ("x", "y") in pairs and ("y", "z") in pairs


def test_bulk_correlations_build_one_field(capsys, monkeypatch):
    builds = count_field_builds(monkeypatch)
    code, out, _ = run_cli(
        ["correlations", "--kappa", "0.3", "--boundary", "bulk",
         "--component", "y", "--max-separation", "3", "--k-points", "32"],
        capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 4
    assert len(builds) == 1


GOLDEN = Path(__file__).parent / "golden"


def _parse_csv(text):
    """Header and rows; a cell that is no number stays text."""
    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value

    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [[cell(v) for v in line.split(",")] for line in lines[1:]]


# integer columns: compared exactly, like text cells
_EXACT_COLUMNS = {"branch", "is_zero_mode", "delta_j[cells]", "s", "s_prime"}


@pytest.mark.parametrize("name, argv", [
    ("equilibrium_k0.6_n16.csv",
     ["equilibrium", "--kappa", "0.6", "--n-ions", "16"]),
    ("heat_k0.3_n16.csv",
     ["heat-capacity", "--kappa", "0.3", "--n-ions", "16",
      "--t-min", "0.05", "--t-max", "50", "--t-steps", "6"]),
    ("correlations_k0.6_n16.csv",
     ["correlations", "--kappa", "0.6", "--n-ions", "16", "--temperature", "0.3"]),
    ("dispersion_k0.6_n16.csv",
     ["dispersion", "--kappa", "0.6", "--n-ions", "16"]),
])
def test_golden_numeric_regression(name, argv, tmp_path):
    """Frozen full-precision tables double as numeric regressions; compared
    numerically (1e-10 relative) to stay robust across BLAS builds.  Text
    and integer columns match exactly, NaN cells by position."""
    out = tmp_path / name
    assert main(argv + ["--output", str(out)]) == 0
    header, rows = _parse_csv(out.read_text(encoding="utf-8"))
    gold_header, gold_rows = _parse_csv((GOLDEN / name).read_text(encoding="utf-8"))
    assert header == gold_header
    assert len(rows) == len(gold_rows)
    for row, gold in zip(rows, gold_rows):
        assert len(row) == len(gold)
        for column, value, expected in zip(header, row, gold):
            if isinstance(expected, str) or column in _EXACT_COLUMNS:
                assert value == expected
            elif np.isnan(expected):
                assert np.isnan(value)
            else:
                assert value == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_config_file_accepts_colon_separator(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa: 0.25\n# comment line\nn-ions: 36\n", encoding="utf-8")
    rc = parse_config(["equilibrium", "--config", str(cfg)])
    assert rc.chain.kappa == 0.25 and rc.chain.n_ions == 36


def test_omega_grid_validation(capsys):
    code, _, err = run_cli(
        ["susceptibility", "--kappa", "0.3", "--omega-min", "2",
         "--omega-max", "1"], capsys)
    assert code == 2 and "omega" in err


def test_single_temperature_heat_capacity(capsys):
    code, out, _ = run_cli(
        ["heat-capacity", "--kappa", "0.3", "--n-ions", "16",
         "--temperature", "1.0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 and float(lines[1].split(",")[0]) == 1.0


def test_heat_capacity_at_a_tiny_temperature_is_zero(capsys):
    # E_1 / T overflows: the frozen limit, not inf * 0
    with pytest.warns(ResolutionWarning):
        code, out, _ = run_cli(
            ["heat-capacity", "--kappa", "0.6", "--n-ions", "16",
             "--temperature", "1e-160"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1] == "9.9999999999999999e-161,0"


def test_modes_at_a_rings_own_transition_exits_3(tmp_path, capsys):
    # at kappa_c of a 4-ion ring (0.5) the soft zone-edge y and z modes are
    # exact zeros, and at alpha = 0.7 its z-buckling point 0.35 makes the z
    # one a zero; the linear chain breaks no rotation, so no symmetry
    # explains them, and no free-particle sector describes them
    for kappa, alpha, zeros in (("0.5", "1", 2), ("0.35", "0.7", 1)):
        out_path = tmp_path / f"modes-{kappa}.json"
        code, _, err = run_cli(["modes", "--kappa", kappa, "--alpha", alpha, "--n-ions", "4",
                                "--format", "json", "--output", str(out_path)], capsys)
        assert code == 3
        assert f"{zeros} zero mode(s) that no symmetry generator explains" in err
        sidecar = json.loads((tmp_path / f"modes-{kappa}.json.error.json").read_text())
        assert sidecar["error"] == "ZeroModeToleranceError"
        assert not out_path.exists()


# ---------------------------------------------------------------------------
# one equilibrium per configuration per process


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("boundary", ["ring", "bulk"])
def test_runs_on_one_config_solve_its_equilibrium_once(tmp_path, capsys, boundary, fmt):
    flags = ["--kappa", "0.6", "--n-ions", "16", "--boundary", boundary, "--k-points", "16",
             "--t-steps", "3", "--omega-steps", "5", "--max-separation", "2",
             "--component", "y", "--n-list", "16", "--format", fmt]
    texts = []
    for command in sorted(cli._RUNNERS) * 2:
        path = tmp_path / f"{command}-{len(texts)}.{fmt}"
        code, _, _ = run_cli([command, *flags, "--output", str(path)], capsys)
        assert code == 0
        texts.append(path.read_bytes())
    half = len(texts) // 2
    assert texts[:half] == texts[half:]
    # the memo holds the run's config and, in bulk, the 16-ion ring of
    # ginzburg, each solved once: asking for them again is all hits
    held = {ChainConfig(0.6, n_ions=16, boundary=Boundary(boundary)),
            ChainConfig(0.6, n_ions=16, boundary=Boundary.RING)}
    info = solve_delta0.cache_info()
    assert info.misses == info.currsize == len(held)
    for config in held:
        solve_delta0(config)
    assert solve_delta0.cache_info().misses == info.misses


def test_a_failing_config_is_not_stored(tmp_path, capsys):
    # alpha = 0.8 buckles along z past alpha kappa_c = 0.38 (N = 16 ring)
    sidecars = []
    for run in range(2):
        out_path = tmp_path / f"eq{run}.csv"
        code, _, err = run_cli(["equilibrium", "--kappa", "0.45", "--alpha", "0.8",
                                "--n-ions", "16", "--output", str(out_path)], capsys)
        assert code == 3 and "buckles along z" in err
        assert not out_path.exists()
        sidecars.append((tmp_path / f"eq{run}.csv.error.json").read_bytes())
    assert sidecars[0] == sidecars[1]
    assert json.loads(sidecars[0])["error"] == "DynamicalInstabilityError"
    assert solve_delta0.cache_info().misses == 2
    assert solve_delta0.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the writers of a factored table


class WriteSizes(io.StringIO):
    """A text sink that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def dispersion_table(flags):
    """(meta, header, rows) of the kappa 0.6 dispersion with ``flags``."""
    rc = parse_config(["dispersion", "--kappa", "0.6", *flags])
    return cli._RUNNERS["dispersion"](rc)


@pytest.fixture
def formatted(monkeypatch):
    """The number of values of every call of ``cli._texts``, the one
    formatter of a factored column's values; returns the growing list."""
    counts = []
    original = cli._texts

    def counting(text, values):
        counts.append(len(values))
        return original(text, values)

    monkeypatch.setattr(cli, "_texts", counting)
    return counts


def write(fmt, meta, header, rows):
    sink = io.StringIO()
    if fmt == "csv":
        cli._write_csv(sink, header, rows)
    else:
        cli._write_json(sink, meta, header, rows)
    return sink.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", [["--n-ions", "1024"], ["--boundary", "bulk"]],
                         ids=["ring1024", "bulk401"])
def test_a_dispersion_table_formats_each_solved_value_once(formatted, flags, fmt):
    # k once per momentum; omega, theta and the collectivity once per mode of
    # a solved row, so a -k row copies its +k partner's texts
    meta, header, columns = dispersion_table(flags)
    rc = parse_config(["dispersion", "--kappa", "0.6", *flags])
    bands = dispersion_zigzag(zone_grid(rc.chain, rc.k_points), rc.chain)
    n_k, n_solved = len(bands.k), len(np.unique(bands.solved))
    assert n_solved < n_k and len(columns[0]) == 6 * n_k
    text = write(fmt, meta, header, columns)
    assert sorted(formatted) == sorted([n_k] + [6 * n_solved] * 3)
    plain = tuple(map(list, columns))  # the same cells, no column factored
    assert text == write(fmt, meta, header, plain)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
def test_only_the_dispersion_table_is_factored(formatted, argv, fmt):
    # every other table's cells go into its row template as they are, with
    # no pass over them first, but for a JSON float column that holds a NaN
    # or an inf, whose cells are made text once (null for those)
    rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
    meta, header, columns = cli._RUNNERS[rc.command](rc)
    write(fmt, meta, header, columns)
    if rc.command == "dispersion":
        assert formatted
    else:
        non_finite = [column for column in columns
                      if type(column[0]) is float and not all(map(math.isfinite, column))]
        assert formatted == ([] if fmt == "csv" else [len(columns[0])] * len(non_finite))


# ---------------------------------------------------------------------------
# JSON writer against the stdlib encoder


def nan_as_none(value):
    """``value`` with each NaN and inf as None, as the JSON writer has them."""
    if type(value) is dict:
        return {key: nan_as_none(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return [nan_as_none(item) for item in value]
    return None if type(value) is float and not math.isfinite(value) else value


def stdlib_json(meta, header, columns):
    """The document the JSON writer must reproduce byte for byte."""
    sink = io.StringIO()
    rows = [dict(zip(header, row)) for row in row_tuples(columns)]
    json.dump(nan_as_none({"meta": meta, "rows": rows}),
              sink, sort_keys=True, indent=1, allow_nan=False)
    sink.write("\n")
    return sink.getvalue()


def written_json(meta, header, columns):
    sink = io.StringIO()
    cli._write_json(sink, meta, header, columns)
    return sink.getvalue()


def assert_same_text(got, want):
    # pytest's own diff of two long documents takes minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"differs at {at}: {got[at - 60:at + 60]!r} "
                    f"!= {want[at - 60:at + 60]!r}")


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308,
                  1e16, 1e-7, 0.1, -1e16]
CELLS = {
    "int": st.integers(-2**70, 2**70),
    "float": st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
    "str": st.text(max_size=8),
}
KEYS = st.one_of(st.text(max_size=8),
                 st.sampled_from(["%", "%s", "%%d", '"', "\\", "a\"b\\c", "é",
                                  "ω[ω_I]", " ", "\x00"]))


@st.composite
def json_tables(draw, n_rows):
    """A header in any order and its columns of n_rows cells of one type each,
    cycled from a few drawn values per column (no columns for no rows)."""
    header = draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))
    pools = [draw(st.lists(CELLS[draw(st.sampled_from(sorted(CELLS)))],
                           min_size=1, max_size=4))
             for _ in header]
    rows = [tuple(pool[i % len(pool)] for pool in pools) for i in range(n_rows)]
    return header, tuple(zip(*rows))


BLOCK = cli._BLOCK_ROWS


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_json_writer_matches_stdlib_encoder(n_rows, data):
    header, columns = data.draw(json_tables(n_rows))
    meta = {"kappa": 0.6, "sectors": {"radial": {"c0": math.inf}},
            "n_list": [50, 100], "label": "%s é"}
    assert_same_text(written_json(meta, header, columns), stdlib_json(meta, header, columns))


def test_a_float_column_whose_sum_overflows_is_written_alike():
    # finite floats whose sum overflows: each takes its repr, none is null
    columns = ([1.4e306] * 400,)
    assert_same_text(written_json({}, ["x"], columns), stdlib_json({}, ["x"], columns))


def test_json_writer_writes_in_blocks():
    # one write per block of rows, each under 128 KiB: freeing a larger
    # temporary would raise glibc's mmap threshold for the whole process;
    # also for the factored table of a 1024-ion dispersion (zone edge, NaN theta)
    columns = tuple(zip(*[(0.001 * i, i % 6, 0.1234567890123 * i, math.nan, 0.9, 0)
                          for i in range(3072)]))
    header = ["k", "branch", "omega", "theta", "coll", "zero"]
    for meta, header, table in ({}, header, columns), \
            dispersion_table(["--n-ions", "1024"]):
        sink = WriteSizes()
        cli._write_json(sink, meta, header, table)
        assert_same_text(sink.getvalue(), stdlib_json(meta, header, table))
        assert len(sink.writes) == 2 + 3072 // BLOCK
        assert max(sink.writes) < 128 * 1024


@pytest.mark.parametrize("argv", SMALL_RUNS + [
    ["equilibrium", "--boundary", "bulk"],
    ["dispersion", "--boundary", "bulk", "--k-points", "8"],
    ["modes", "--boundary", "bulk"],
    ["heat-capacity", "--boundary", "bulk", "--k-points", "8", "--t-steps", "3"],
    # rows at the zone edge and with NaN theta, most of them copies of another's
    pytest.param(["dispersion", "--n-ions", "1024"], id="dispersion-ring1024"),
    pytest.param(["dispersion", "--boundary", "bulk", "--k-points", "401"],
                 id="dispersion-bulk401"),
], ids=lambda argv: argv[0] + ("-bulk" if "bulk" in argv else ""))
def test_every_command_writes_the_stdlib_json(argv, tmp_path):
    argv = argv[:1] + ["--kappa", "0.6", "--n-ions", "16", "--format", "json"] + argv[1:]
    path = tmp_path / "out.json"
    assert main(argv + ["--output", str(path)]) == 0
    rc = parse_config(argv)
    meta, header, columns = cli._RUNNERS[rc.command](rc)
    assert_same_text(path.read_text(encoding="utf-8"),
                     stdlib_json(meta, header, columns))


# ---------------------------------------------------------------------------
# every request over the whole command surface ends in exit 0, 2 or 3

COMMANDS = sorted(cli._RUNNERS)


@st.composite
def cli_requests(draw):
    """The argv of one request: any command on a config near or away from a
    transition, temperatures in [0, 1e8], grids mostly in order, and sizes
    small enough for a fraction of a second (so none is left at its default).
    Each value goes as ``--flag=value`` or as the token after its flag, so a
    negative float in exponent form (``-1e-05``) must be read as a value."""
    cfg = draw(configs_near_transitions(max_ions=64))
    temperatures = st.floats(min_value=0.0, max_value=1e8)
    t_min, t_max = sorted(draw(st.tuples(temperatures, temperatures)))
    omega_min, omega_max = sorted(draw(st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 2)))
    values = {
        "--kappa": float(cfg.kappa), "--alpha": float(cfg.alpha), "--n-ions": cfg.n_ions,
        "--boundary": cfg.boundary.value, "--format": draw(st.sampled_from(["csv", "json"])),
        "--k-points": draw(st.integers(2, 64)), "--t-steps": draw(st.integers(1, 4)),
        "--omega-steps": draw(st.integers(1, 8)),
        "--n-list": ",".join(str(2 * h) for h in draw(st.lists(st.integers(2, 32), min_size=1,
                                                               max_size=3))),
    }
    optional = {
        "--temperature": temperatures, "--t-min": st.just(t_min), "--t-max": st.just(t_max),
        "--eta": st.floats(min_value=0.0, max_value=10.0),
        "--omega-min": st.just(omega_min), "--omega-max": st.just(omega_max),
        "--max-separation": st.integers(0, 4), "--component": st.sampled_from("xyz"),
        "--sublattice": st.sampled_from("01"),
    }
    for flag in draw(st.sets(st.sampled_from(sorted(optional)))):
        values[flag] = draw(optional[flag])
    switches = ["--include-longitudinal-zero-mode", "--exclude-radial-zero-mode"]
    tokens = [token for flag, value in values.items()
              for token in draw(st.sampled_from([[f"{flag}={value}"], [flag, str(value)]]))]
    return ([draw(st.sampled_from(COMMANDS))] + tokens
            + draw(st.lists(st.sampled_from(switches), unique=True)))


def exit_code(argv) -> int:
    """``main(argv)``'s exit code, argparse's SystemExit included, with
    standard error kept out of the test's output."""
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("flag, other", [("--omega-min", "--omega-max=1"),
                                         ("--omega-max", "--omega-min=-1000")])
@pytest.mark.parametrize("value", ["-1e-05", "-1E+2", "-.5e-3"])
def test_a_negative_float_in_exponent_form_is_a_value(flag, other, value, tmp_path):
    # argparse before Python 3.13 took a token such as -1e-05 for a flag
    path = tmp_path / "out.json"
    argv = ["susceptibility", "--kappa", "0.3", "--n-ions", "16", "--omega-steps", "3",
            "--format", "json", other, flag, value, "--output", str(path)]
    assert exit_code(argv) == 0
    assert json.loads(path.read_text(encoding="utf-8"))["meta"][flag[2:].replace("-", "_")] \
        == float(value)


@settings(deadline=None, max_examples=150)
@given(argv=cli_requests())
# past the bulk kappa_c the 50-ion ring is still linear (once a bare
# ZeroDivisionError); a one-point grid at T = -1 once ran through log10
@example(argv=["ginzburg", "--kappa", "0.4754", "--boundary", "bulk"])
@example(argv=["heat-capacity", "--kappa", "0.6", "--t-max", "-1", "--t-steps", "1"])
def test_every_request_exits_0_2_or_3(argv):
    """Exit 3 leaves a sidecar that names the error."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        code = exit_code(argv + ["--output", out])
        assert code in (0, 2, 3)
        if code == 3:
            with open(out + ".error.json", encoding="utf-8") as fh:
                assert "error" in json.load(fh)
