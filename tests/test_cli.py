"""Command-line interface: parsing, schemas, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionphonon import cli
from ionphonon.cli import main, parse_config
from ionphonon.errors import BracketingError, DynamicalInstabilityError
from ionphonon.observables import PhononField


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

    @pytest.mark.parametrize("argv", [
        ["heat-capacity", "--t-steps", "-1"],
        ["susceptibility", "--omega-steps", "-3"],
        ["heat-capacity", "--temperature", "0"],
        ["heat-capacity", "--temperature", "-1"],
        ["heat-capacity", "--t-min", "-1"],
        ["correlations", "--temperature", "-1"],
        ["ginzburg", "--n-list", "2,50"],
        ["heat-capacity", "--temperature", "inf"],
        ["susceptibility", "--omega-max", "inf"],
    ])
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        code, _, err = run_cli(argv + ["--kappa", "0.6", "--n-ions", "8"], capsys)
        assert code == 2
        assert err.startswith("usage error: ")

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

        rows = [(0.001 * i, i % 6, 0.1234567890123 * i, 0.3, 0.9, 0)
                for i in range(3072)]
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            tracemalloc.start()
            _write_csv(fh, ["k", "branch", "omega", "theta", "coll", "zero"], rows)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 200_000
        assert peak < size / 4

    @pytest.mark.parametrize("argv", [
        ["equilibrium"], ["dispersion"], ["modes"],
        ["correlations", "--max-separation", "2"],
        ["heat-capacity", "--t-steps", "4"],
        ["susceptibility", "--omega-steps", "4"], ["energy-reduction"],
        ["ginzburg", "--n-list", "16,32"],
    ], ids=lambda argv: argv[0])
    def test_csv_columns_keep_one_type(self, argv):
        # _write_csv formats every row like the first: an int in a float
        # column would print it with %d
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        _, header, rows = cli._RUNNERS[rc.command](rc)
        assert rows
        for column in zip(*rows):
            assert len({cli._cell_format(v) for v in column}) == 1

    def test_csv_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "eq.csv"
        assert main(["equilibrium", "--kappa", "0.6", "--n-ions", "16",
                     "--output", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\r" not in text
        header, row = text.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        from ionphonon.chain import ChainConfig, solve_delta0
        eq = solve_delta0(ChainConfig(kappa=0.6, n_ions=16))
        assert float(values["delta0[d]"]) == eq.delta0  # 17 digits round-trip

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--kappa", "0.3", "--n-ions", "16",
             "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["meta"]["kappa"] == 0.3
        assert len(doc["rows"]) == 1


def test_json_safe_maps_numpy_nan_and_inf_to_null():
    doc = cli._json_safe({"a": np.float64("nan"), "b": [np.float32("inf")]})
    assert doc == {"a": None, "b": [None]}


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
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


@pytest.mark.parametrize("name, argv", [
    ("equilibrium_k0.6_n16.csv",
     ["equilibrium", "--kappa", "0.6", "--n-ions", "16"]),
    ("heat_k0.3_n16.csv",
     ["heat-capacity", "--kappa", "0.3", "--n-ions", "16",
      "--t-min", "0.05", "--t-max", "50", "--t-steps", "6"]),
])
def test_golden_numeric_regression(name, argv, tmp_path):
    """Frozen full-precision tables double as numeric regressions; compared
    numerically (1e-10 relative) to stay robust across BLAS builds."""
    out = tmp_path / name
    assert main(argv + ["--output", str(out)]) == 0
    header, rows = _parse_csv(out.read_text(encoding="utf-8"))
    gold_header, gold_rows = _parse_csv((GOLDEN / name).read_text(encoding="utf-8"))
    assert header == gold_header
    assert len(rows) == len(gold_rows)
    for row, gold in zip(rows, gold_rows):
        for value, expected in zip(row, gold):
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
