"""A config's bands have one owner, ``bloch.dispersion_zigzag``.

It keeps one read-only ``Bands`` per (config, grid) (``bloch._bands``, an
``lru_cache`` given the equilibrium that ``solve_delta0`` keeps), so the
phonon fields, the CLI's dispersion table and ``ginzburg_parameter``'s
rings of one config share one band build.  No other module memoizes
``dispersion_zigzag`` or ``CellCouplings.bands``; this walks each package
module's AST, as ``test_ground_state_owner.py`` does for the equilibrium.
"""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ionphonon
from ionphonon import bloch, cli
from ionphonon.bloch import (
    Bands,
    CellCouplings,
    _bands,
    dispersion_zigzag,
    reduced_zone_grid,
    ring_momenta,
)
from ionphonon.chain import Boundary, ChainConfig, solve_delta0
from ionphonon.errors import PhysicsError, ZeroModeToleranceError
from ionphonon.observables import PhononField

PACKAGE = Path(ionphonon.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MEMOS = {"cache", "lru_cache"}

RING = ["--kappa", "0.6", "--n-ions", "16", "--boundary", "ring"]
BULK = ["--kappa", "0.6", "--boundary", "bulk", "--k-points", "16"]


@pytest.fixture
def band_builds(monkeypatch):
    """Record the grid of every ``CellCouplings.bands`` call; returns the growing list."""
    builds = []
    original = CellCouplings.bands

    def counting(self, k_grid):
        builds.append(np.array(k_grid))
        return original(self, k_grid)

    monkeypatch.setattr(CellCouplings, "bands", counting)
    return builds


def run(argv, tmp_path, name, capsys):
    path = tmp_path / name
    assert cli.main(argv + ["--output", str(path)]) == 0
    capsys.readouterr()
    return path.read_bytes()


# ---------------------------------------------------------------------------
# one build per (config, grid)


def test_the_commands_on_one_ring_build_its_bands_once(band_builds, tmp_path, capsys):
    # a ring's edge and midpoint grids are both its own momenta
    for command in ("dispersion", "correlations", "susceptibility", "energy-reduction"):
        run([command, *RING, "--max-separation", "2", "--omega-steps", "5"], tmp_path,
            f"{command}.csv", capsys)
    assert len(band_builds) == 1
    np.testing.assert_array_equal(band_builds[0], ring_momenta(16))


def test_a_bulk_correlator_pair_builds_its_bands_once(band_builds, tmp_path, capsys):
    for m in (0, 2):
        run(["correlations", *BULK, "--component", "y", "--max-separation", str(m)],
            tmp_path, f"yy{m}.csv", capsys)
    assert len(band_builds) == 1
    assert _bands.cache_info().hits == 1


BULK_16 = ChainConfig(0.6, n_ions=16, boundary=Boundary.BULK)


@pytest.mark.parametrize("config, grid", [
    (ChainConfig(0.6, n_ions=16), ring_momenta(16)),
    (BULK_16, reduced_zone_grid(64, include_edge=False)),
    (BULK_16, reduced_zone_grid(128)),
    (ChainConfig(0.65, n_ions=16, boundary=Boundary.BULK), reduced_zone_grid(64)),
], ids=["ring", "midpoint", "n_k-128", "kappa"])
def test_each_config_and_grid_has_its_own_entry(band_builds, config, grid):
    # against the bulk edge grid of 64 momenta at kappa 0.6
    for _ in range(2):
        dispersion_zigzag(reduced_zone_grid(64), BULK_16)
        dispersion_zigzag(grid, config)
    info = _bands.cache_info()
    assert len(band_builds) == info.currsize == info.misses == 2 and info.hits == 2


def test_a_repeated_grid_is_the_same_instance(band_builds):
    first = dispersion_zigzag(reduced_zone_grid(64), BULK_16)
    assert dispersion_zigzag(list(reduced_zone_grid(64)), BULK_16) is first
    assert len(band_builds) == 1


def test_a_failing_grid_is_not_stored(band_builds):
    # at k = 3e-6 the softer gapless root of the bulk zigzag is an unexplained zero
    cfg = ChainConfig(kappa=0.6, n_ions=32, boundary=Boundary.BULK)
    messages = []
    for _ in range(2):
        with pytest.raises(ZeroModeToleranceError) as err:
            dispersion_zigzag(np.array([3e-6]), cfg)
        messages.append(str(err.value))
    assert issubclass(ZeroModeToleranceError, PhysicsError)
    assert messages[0] == messages[1] and len(band_builds) == 2
    assert _bands.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# read-only bands


@pytest.mark.parametrize("source", ["memo", "couplings", "field"])
def test_every_bands_array_is_read_only(source):
    cfg = ChainConfig(0.6, n_ions=16)
    grid = ring_momenta(16)
    bands = {"memo": lambda: dispersion_zigzag(grid, cfg),
             "couplings": lambda: CellCouplings(cfg, solve_delta0(cfg)).bands(grid),
             "field": lambda: PhononField(cfg)}[source]()
    for name in (field.name for field in fields(Bands)):
        arr = getattr(bands, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    grid[0] = grid[0]  # the caller's grid keeps its own flags


@pytest.mark.parametrize("flags", [RING, BULK], ids=["ring", "bulk"])
def test_the_solved_index_is_the_memos_and_read_only(flags):
    # the dispersion table reads a grid's solved rows from the memo's Bands,
    # and a field of the same grid shares that one index
    cfg = cli.parse_config(["dispersion", *flags]).chain
    grid = bloch.zone_grid(cfg, 16, include_edge=False)
    memo, field = dispersion_zigzag(grid, cfg), PhononField(cfg, n_k=16)
    assert np.shares_memory(field.solved, memo.solved)
    for bands in (memo, field):
        assert bands.solved.dtype.kind == "i" and not bands.solved.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bands.solved[-1] = len(grid) - 1
    assert np.array_equal(dispersion_zigzag(grid, cfg).solved, memo.solved)


def test_the_readers_leave_nothing_on_a_shared_bands(monkeypatch, tmp_path, capsys):
    # every command on one ring and one bulk config; each memo entry they
    # read keeps its fields alone, and Bands has no cache to fill
    entries = []
    original = bloch._bands

    def recording(*args):
        entries.append(original(*args))
        return entries[-1]

    monkeypatch.setattr(bloch, "_bands", recording)
    for flags in (RING, BULK):
        argv = [*flags, "--t-steps", "3", "--omega-steps", "5", "--max-separation", "2",
                "--component", "y", "--n-list", "16"]
        for command in sorted(cli._RUNNERS):
            run([command, *argv], tmp_path, f"{command}.csv", capsys)
    assert len({id(entry) for entry in entries}) >= 2  # the ring's grid and the bulk's
    names = {field.name for field in fields(Bands)}
    for entry in entries:
        assert set(vars(entry)) == names
    assert not any(hasattr(Bands, name) for name in ("u", "v", "_amplitudes"))


# ---------------------------------------------------------------------------
# memo-served runs write the same bytes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", [RING, BULK], ids=["ring", "bulk"])
def test_a_memo_served_run_writes_the_same_bytes(tmp_path, capsys, flags, fmt):
    argv = [*flags, "--t-steps", "3", "--omega-steps", "5", "--max-separation", "2",
            "--component", "y", "--n-list", "16", "--format", fmt]
    for command in sorted(cli._RUNNERS):
        _bands.cache_clear()
        first = run([command, *argv], tmp_path, f"{command}-first.{fmt}", capsys)
        hits = _bands.cache_info().hits
        second = run([command, *argv], tmp_path, f"{command}-second.{fmt}", capsys)
        assert second == first
        if command not in ("equilibrium", "modes"):  # the two that read no bands
            assert _bands.cache_info().hits > hits, command


# ---------------------------------------------------------------------------
# no second memo


def _name(node) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def reads_bands(node) -> bool:
    """Whether ``node`` names ``dispersion_zigzag`` or reads an attribute ``bands``."""
    return any(_name(child) == "dispersion_zigzag"
               or (isinstance(child, ast.Attribute) and child.attr == "bands")
               for child in ast.walk(node))


def is_memo(node) -> bool:
    """Whether ``node`` is ``cache`` or ``lru_cache``, called with settings or not."""
    return _name(node.func if isinstance(node, ast.Call) else node) in MEMOS


def faults(source: str, module: str) -> list[str]:
    """Outside ``bloch``, ``module.function`` of every memo around a band build."""
    if module == "bloch":
        return []
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.FunctionDef) and any(map(is_memo, node.decorator_list)) \
                and reads_bands(node):
            found.append(f"{where}: a memo of the bands")
        if isinstance(node, ast.Call) and is_memo(node.func) and any(map(reads_bands, node.args)):
            found.append(f"{where}: a memo of the bands")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def package_faults(planted: dict[str, str] | None = None) -> list[str]:
    """:func:`faults` over the package, with ``planted[module]`` appended to that module."""
    return [fault for path in MODULES for fault in faults(
        path.read_text() + (planted or {}).get(path.stem, ""), path.stem)]


def test_the_bands_have_one_owner():
    assert package_faults() == []


@pytest.mark.parametrize("module", ["bloch", "observables", "cli", "freeparticle"])
@pytest.mark.parametrize("copy, where", [
    ("@functools.lru_cache(maxsize=16)\ndef _field_bands(config, grid):\n"
     "    return dispersion_zigzag(grid, config)\n", "_field_bands"),
    ("class Planted:\n    @cache\n    def bands(self, k):\n"
     "        return CellCouplings(self.config, self.eq).bands(k)\n", "Planted.bands"),
    ("_bands_of = functools.cache(lambda config, k: bloch.dispersion_zigzag(k, config))\n", ""),
    ("_bands_of = functools.lru_cache(maxsize=8)(CellCouplings.bands)\n", ""),
], ids=["lru_cache-decorator", "cache-method", "cached-lambda", "cached-method"])
def test_a_second_memo_is_caught_outside_bloch(module, copy, where):
    # a second keeper of the bands, as a field or runner might grow one;
    # bloch's own memo is the one owner
    want = [] if module == "bloch" else [f"{module}{'.' if where else ''}{where}: "
                                         f"a memo of the bands"]
    assert package_faults({module: "\n\n" + copy}) == want


@pytest.mark.parametrize("module", ["observables", "cli"])
def test_a_plain_reader_of_the_bands_passes(module):
    planted = ("\n\n@functools.cache\ndef _labels():\n    return ('x', 'y')\n"
               "\n\ndef reader(config, grid):\n    bands = dispersion_zigzag(grid, config)\n"
               "    return bands.omega\n")
    assert package_faults({module: planted}) == []
