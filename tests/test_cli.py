"""Command-line interface: parsing, schemas, exit codes, determinism."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionphonon import cli
from ionphonon.bloch import (
    collectivities,
    dispersion_zigzag,
    mixing_angles,
    reduced_zone_grid,
    ring_momenta,
)
from ionphonon.chain import Boundary, ChainConfig
from ionphonon.cli import main, parse_config
from ionphonon.errors import BracketingError, DynamicalInstabilityError
from ionphonon.observables import PhononField


# every command at small sizes, without --kappa and --n-ions
SMALL_RUNS = [
    ["equilibrium"], ["dispersion"], ["modes"],
    ["correlations", "--max-separation", "2"],
    ["heat-capacity", "--t-steps", "4"],
    ["susceptibility", "--omega-steps", "4"], ["energy-reduction"],
    ["ginzburg", "--n-list", "16,32"],
]


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

    @pytest.mark.parametrize("boundary", ["ring", "bulk"])
    def test_dispersion_columns_read_the_tracked_bands(self, boundary, capsys):
        code, out, _ = run_cli(["dispersion", "--kappa", "0.6", "--n-ions", "16",
                                "--boundary", boundary, "--k-points", "16"], capsys)
        assert code == 0
        header, rows = _parse_csv(out)
        columns = dict(zip(header, np.array(rows).T))
        cfg = ChainConfig(kappa=0.6, n_ions=16, boundary=Boundary(boundary))
        grid = ring_momenta(16) if boundary == "ring" else reduced_zone_grid(16)
        bands, _ = dispersion_zigzag(grid, cfg)
        np.testing.assert_array_equal(columns["omega[omega_I]"], bands.omega.ravel())
        np.testing.assert_array_equal(columns["theta_xy[rad]"],
                                      mixing_angles(bands.u, bands.v).ravel())
        np.testing.assert_array_equal(columns["collectivity[1]"],
                                      collectivities(bands.u, bands.v).ravel())
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

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_csv_columns_keep_one_type(self, argv):
        # _write_csv formats every row like the first: an int in a float
        # column would print it with %d
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        _, header, rows = cli._RUNNERS[rc.command](rc)
        assert rows
        for column in zip(*rows):
            assert len({cli._cell_format(v) for v in column}) == 1

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_json_columns_keep_one_kind(self, argv):
        # _write_json formats every column by its first row's kind: an int
        # in a float column would print 1 as 1.0 (float and np.float64 are
        # one kind)
        rc = parse_config(argv + ["--kappa", "0.6", "--n-ions", "16"])
        _, header, rows = cli._RUNNERS[rc.command](rc)
        assert rows
        for column in zip(*rows):
            assert len({cli._json_column(v) for v in column}) == 1

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


def test_modes_at_a_rings_own_transition_exits_3(tmp_path, capsys):
    # at kappa_c of a 4-ion ring (0.5) the soft zone-edge y and z modes are
    # exact zeros: 3 zero pairs where one symmetry is broken, which no
    # free-particle sector describes
    out_path = tmp_path / "modes.json"
    code, _, err = run_cli(["modes", "--kappa", "0.5", "--n-ions", "4",
                            "--format", "json", "--output", str(out_path)], capsys)
    assert code == 3
    assert "extracted 3 zero pairs, expected 1" in err
    sidecar = json.loads((tmp_path / "modes.json.error.json").read_text())
    assert sidecar["error"] == "ZeroModeToleranceError"
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# JSON writer against the stdlib encoder


def stdlib_json(meta, header, rows):
    """The document the JSON writer must reproduce byte for byte."""
    sink = io.StringIO()
    json.dump({"meta": cli._json_safe(meta),
               "rows": [cli._json_safe(dict(zip(header, row))) for row in rows]},
              sink, sort_keys=True, indent=1, allow_nan=False)
    sink.write("\n")
    return sink.getvalue()


def written_json(meta, header, rows):
    sink = io.StringIO()
    cli._write_json(sink, meta, header, rows)
    return sink.getvalue()


def assert_same_text(got, want):
    # pytest's own diff of two long documents takes minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"differs at {at}: {got[at - 60:at + 60]!r} "
                    f"!= {want[at - 60:at + 60]!r}")


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308,
                  1e16, 1e-7, 0.1, np.float64(math.nan), np.float64(-1e16)]
CELLS = {
    "bool": st.booleans(),
    "int": st.one_of(st.integers(-2**70, 2**70),
                     st.integers(-2**63, 2**63 - 1).map(np.int64)),
    "float": st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                       st.floats().map(np.float64)),
    "other": st.one_of(st.text(max_size=8), st.none()),
}
KEYS = st.one_of(st.text(max_size=8),
                 st.sampled_from(["%", "%s", "%%d", '"', "\\", "a\"b\\c", "é",
                                  "ω[ω_I]", " ", "\x00"]))


@st.composite
def json_tables(draw, n_rows):
    """A header in any order and n_rows rows of one kind per column, cycled
    from a few drawn values per column."""
    header = draw(st.lists(KEYS, min_size=1, max_size=6, unique=True))
    pools = [draw(st.lists(CELLS[draw(st.sampled_from(sorted(CELLS)))],
                           min_size=1, max_size=4))
             for _ in header]
    rows = [tuple(pool[i % len(pool)] for pool in pools) for i in range(n_rows)]
    return header, rows


BLOCK = cli._JSON_BLOCK_ROWS


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_json_writer_matches_stdlib_encoder(n_rows, data):
    header, rows = data.draw(json_tables(n_rows))
    meta = {"kappa": 0.6, "sectors": {"radial": {"c0": np.float64(math.inf)}},
            "n_list": [np.int64(50), 100], "label": "%s é"}
    assert_same_text(written_json(meta, header, rows), stdlib_json(meta, header, rows))


def test_json_writer_writes_in_blocks():
    # one write per block of rows, each under 128 KiB: freeing a larger
    # temporary would raise glibc's mmap threshold for the whole process
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    rows = [(0.001 * i, i % 6, 0.1234567890123 * i, math.nan, 0.9, 0)
            for i in range(3072)]
    header = ["k", "branch", "omega", "theta", "coll", "zero"]
    sink = Sink()
    cli._write_json(sink, {}, header, rows)
    assert_same_text(sink.getvalue(), stdlib_json({}, header, rows))
    assert len(writes) == 2 + 3072 // BLOCK
    assert max(writes) < 128 * 1024


@pytest.mark.parametrize("argv", SMALL_RUNS + [
    ["dispersion", "--boundary", "bulk", "--k-points", "8"],
    ["heat-capacity", "--boundary", "bulk", "--k-points", "8", "--t-steps", "3"],
], ids=lambda argv: argv[0] + ("-bulk" if "bulk" in argv else ""))
def test_every_command_writes_the_stdlib_json(argv, tmp_path):
    argv = argv + ["--kappa", "0.6", "--n-ions", "16", "--format", "json"]
    path = tmp_path / "out.json"
    assert main(argv + ["--output", str(path)]) == 0
    rc = parse_config(argv)
    meta, header, rows = cli._RUNNERS[rc.command](rc)
    assert_same_text(path.read_text(encoding="utf-8"),
                     stdlib_json(meta, header, rows))
