"""Command-line front end: parse, dispatch, write tables.

Exit codes: 0 success, 2 usage error, 3 physics error (instability,
divergence; the error is also serialized next to the requested output file,
with the imaginary parts of a dynamical instability's frequencies or the
interval a failed root bracketing scanned), 4 I/O failure.  Outputs are
deterministic: identical configurations produce byte-identical files, with
floats at full double precision so golden files double as numeric
regressions.  Runs in one process share each configuration's equilibrium
and bands: ``chain.solve_delta0`` keeps one equilibrium per configuration,
whose root search the configurations of one (kappa, boundary, ring size)
share, and ``bloch.dispersion_zigzag`` one read-only ``Bands`` per
(configuration, grid) for the 32 grids used last; ``modes`` reads no bands
but the k = 0 solve of ``bloch.CellCouplings.k0_modes``, and ``cli`` keeps no
memo of its own.  The tables' mixing angles and collectivities are
``bloch.mode_shapes`` of |e|^2.

Each runner returns its table as a tuple of columns, each of Python cells of
one type (int, float or str); the dispersion table keeps k once per momentum
and the modes of its solved rows alone (``Factored`` columns: a -k row's are
its +k partner's, ``Bands.solved``), so each is formatted once.  Both writers
fill one row template, a block of ``_BLOCK_ROWS`` rows per write; the JSON
meta is indented in one pass (``_json_text``), not by json's pure-Python
encoder.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .bloch import axis_weights, dispersion_zigzag, mode_shapes, zone_grid
from .chain import (
    Boundary,
    ChainConfig,
    _check_positive_real,
    _count,
    _ion_count,
    bare_frequencies,
    critical_kappa_classical,
    equilibrium_residual,
    solve_delta0,
)
from .errors import BracketingError, DynamicalInstabilityError, PhysicsError
from .freeparticle import build_sectors, zero_mode_normal_form
from .observables import (
    CorrelatorRequest,
    PhononField,
    check_convergent,
    correlation_energy,
    correlator_table,
    ginzburg_parameter,
    heat_capacity,
    susceptibility,
)
from .symplectic import completeness_residual

class UsageError(Exception):
    pass


def _int_list(text: str) -> tuple[int, ...]:
    """``50,100,200``; argparse turns a ValueError into a usage error."""
    return tuple(int(tok) for tok in text.split(",") if tok)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one owner of every option's flag, type, default and choices.

    Config files are read through it too (``_file_tokens``); it is never
    changed after it is built, so one per process serves every request.
    """
    parser = argparse.ArgumentParser(
        prog="ionphonon",
        description="Phonon normal form and observables of a trapped-ion chain",
    )
    # -1e-05 is a value too: argparse's pattern before Python 3.13 has no exponent
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--kappa", type=float, help="Coulomb coupling (required)")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--lambda", dest="lam", type=float, default=50.0)
    parser.add_argument("--n-ions", type=int, default=64)
    parser.add_argument("--boundary", choices=["ring", "bulk"], default="ring")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--t-min", type=float, default=0.01)
    parser.add_argument("--t-max", type=float, default=50.0)
    parser.add_argument("--t-steps", type=int, default=50)
    parser.add_argument("--k-points", type=int, default=401,
                        help="bulk grid size, at least 2; heat-capacity, susceptibility and "
                             "energy-reduction sum over max(k_points, 64) rounded up to "
                             "even, so no momentum is k = 0; correlations over twice that")
    parser.add_argument("--eta", type=float, default=1e-2)
    parser.add_argument("--component", choices=["x", "y", "z"], default="",
                        help="default: all pairs (correlations), y (susceptibility)")
    parser.add_argument("--sublattice", type=int, choices=[0, 1], default=0)
    parser.add_argument("--include-longitudinal-zero-mode", action="store_true")
    parser.add_argument("--exclude-radial-zero-mode", action="store_false",
                        dest="include_radial_zero_mode")
    parser.add_argument("--max-separation", type=int, default=10)
    parser.add_argument("--n-list", type=_int_list, default=(50, 100, 200, 400))
    parser.add_argument("--omega-min", type=float, default=0.0)
    parser.add_argument("--omega-max", type=float, default=3.0)
    parser.add_argument("--omega-steps", type=int, default=601)
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    parser.add_argument("--output")
    parser.add_argument("--config", help="`key = value` file of flags, overridden by them")
    return parser


class RunConfig(argparse.Namespace):
    """Fully resolved run request: one attribute per dest of ``_parser``,
    plus the ``chain`` that ``validate`` builds from them."""

    chain: ChainConfig

    def validate(self) -> None:
        """Resolve ``chain``; raise UsageError for any value the command cannot take.

        Each numeric flag goes, named as its flag, to ``chain``'s owner of its
        rule, whose ValueError becomes a UsageError here.  The CLI owns only a
        non-empty ``--n-list``, finite omega bounds (a frequency may be zero or
        negative) and strictly increasing grids."""
        try:
            self.chain = ChainConfig(
                kappa=self.kappa, alpha=self.alpha, lam=self.lam,
                n_ions=self.n_ions, boundary=Boundary(self.boundary),
            )
            if self.command == "ginzburg":  # the one command that reads the ring sizes
                for n in self.n_list:
                    _ion_count(n, "--n-list size")
            if self.temperature is not None:
                _check_positive_real("--temperature", self.temperature,
                                     allow_zero=self.command != "heat-capacity")
            _check_positive_real("--t-min", self.t_min)
            _check_positive_real("--t-max", self.t_max)
            _check_positive_real("--eta", self.eta)
            _count("--t-steps", self.t_steps, 1)
            _count("--omega-steps", self.omega_steps, 1)
            _count("--k-points", self.k_points, 2)
            _count("--max-separation", self.max_separation, 0)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not self.n_list:
            raise UsageError(f"--n-list must name at least one ring size, got {self.n_list!r}")
        if not math.isfinite(self.omega_min):
            raise UsageError(f"--omega-min must be finite, got {self.omega_min!r}")
        if not math.isfinite(self.omega_max):
            raise UsageError(f"--omega-max must be finite, got {self.omega_max!r}")
        # a one-point grid is increasing; a longer one needs its bounds in order
        if self.t_steps != 1 and not self.t_min < self.t_max:
            raise UsageError("temperature grid must be strictly increasing")
        if self.omega_steps != 1 and not self.omega_min < self.omega_max:
            raise UsageError("omega grid must be strictly increasing")


def _file_tokens(path: str) -> list[str]:
    """The command-line tokens of a flat config file.

    One `key = value` (or `key: value`) per line, # comments.  A key is the
    flag of the same name: `--key=value`, or for a switch the bare flag
    (true, 1, yes) or nothing (false, 0, no).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    actions = _parser()._option_string_actions
    tokens = []
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, _, value = stripped.partition(sep)
                break
        else:
            raise UsageError(
                f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, value = key.strip().replace("_", "-"), value.strip()
        action = actions.get("--" + key)
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"unknown key {key!r} in config file")
        if action.nargs != 0:
            tokens.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append("--" + key)
        elif value.lower() not in ("0", "false", "no"):
            raise UsageError(f"config key {key!r} takes true or false, got {value!r}")
    return tokens


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve flags and optional config file into a RunConfig.

    The flags are parsed once; with ``--config`` they are parsed again
    behind the file's tokens, so one parser checks both and flags override
    file values, which override defaults.  Raises UsageError (or
    SystemExit(2) from argparse) on malformed input.
    """
    parser = _parser()
    rc = parser.parse_args(argv, namespace=RunConfig())
    if rc.config:
        rc = parser.parse_args(_file_tokens(rc.config) + argv, namespace=RunConfig())
    if rc.kappa is None:
        parser.error("--kappa is required (set it on the command line or in the config file)")
    rc.validate()
    return rc


# ---------------------------------------------------------------------------
# tables: each runner's rows, kept by column


class Factored:
    """A column whose cell i is ``values[index[i]]``, so that each value a
    table repeats (a dispersion's k on all six branches, the modes of a -k
    row, which are its +k partner's) is kept, and formatted, once."""

    def __init__(self, values: list, index: list[int]):
        self.values, self.index = values, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, row: int):
        return self.values[self.index[row]]

    def __iter__(self):
        values = self.values
        return iter([values[i] for i in self.index])


# ---------------------------------------------------------------------------
# command implementations: each returns (meta, header, columns)

# the JSON keys of the two dests that are not named after their flag
_META_KEYS = {"lam": "lambda", "fmt": "format"}


def _meta(rc: RunConfig) -> dict:
    """Full run-configuration echo for reproducibility: every parsed option
    but the file names."""
    meta = {_META_KEYS.get(dest, dest): value for dest, value in vars(rc).items()
            if dest not in ("chain", "output", "config")}
    meta["version"] = __version__
    return meta


def _run_equilibrium(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    omegas = bare_frequencies(rc.chain, eq).tolist()
    header = [
        "kappa[1]", "delta0[d]", "residual[m_I*omega_I^2*d]",
        "kappa_c_classical[1]", "Omega_x[omega_I]", "Omega_y[omega_I]",
        "Omega_z[omega_I]",
    ]
    columns = tuple(zip((
        rc.chain.kappa, eq.delta0, equilibrium_residual(rc.chain, eq),
        critical_kappa_classical(rc.chain), omegas[0], omegas[1], omegas[2],
    )))
    return _meta(rc), header, columns


def _run_dispersion(rc: RunConfig):
    bands = dispersion_zigzag(zone_grid(rc.chain, rc.k_points), rc.chain)
    n_k = len(bands.k)
    # the modes of the solved rows alone: a -k row's are its +k partner's to the bit
    solved, position = np.unique(bands.solved, return_inverse=True)
    omega = bands.omega[solved]
    theta, collectivity = mode_shapes(omega, 2.0 * np.abs(bands.phi[solved]) ** 2,
                                      bands.omega_bare)
    mode = (6 * position[:, None] + np.arange(6)).ravel().tolist()
    header = ["k[1/d]", "branch", "omega[omega_I]", "theta_xy[rad]",
              "collectivity[1]", "is_zero_mode"]
    columns = (
        Factored(bands.k.tolist(), np.repeat(np.arange(n_k), 6).tolist()), list(range(6)) * n_k,
        Factored(omega.ravel().tolist(), mode), Factored(theta.ravel().tolist(), mode),
        Factored(collectivity.ravel().tolist(), mode), (~bands.mask).ravel().astype(int).tolist(),
    )
    meta = _meta(rc)
    meta["delta0"] = solve_delta0(rc.chain).delta0
    return meta, header, columns


def _run_modes(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    nf = zero_mode_normal_form(rc.chain)
    sectors = build_sectors(rc.chain, eq, nf.form.omega_bare)
    header = ["kind", "label", "omega[omega_I]", "m_tilde[1/omega_I]",
              "theta_xy[rad]", "collectivity[1]"]
    theta, collectivity = mode_shapes(nf.omega, axis_weights(nf.u, nf.v), nf.form.omega_bare)
    rows = [("phonon", f"k0-{i}", omega, float("nan"), angle, coll) for i, (omega, angle, coll)
            in enumerate(zip(nf.omega.tolist(), theta.tolist(), collectivity.tolist()))]
    rows += [("zero-pair", zp.label, 0.0, zp.m_tilde, float("nan"), float("nan"))
             for zp in nf.zero_pairs]
    columns = tuple(zip(*rows))
    meta = _meta(rc)
    meta["delta0"] = eq.delta0
    meta["completeness_residual"] = completeness_residual(nf)
    meta["zero_point_shift_k0"] = 0.5 * sum(nf.omega.tolist())
    meta["sectors"] = {
        s.label: {"m_tilde": s.m_tilde, "c0": s.c0, "circumference": s.circumference}
        for s in sectors
    }
    return meta, header, columns


def _field_k_points(rc: RunConfig) -> int:
    """Bulk phonon-field grid size (rings keep their own momenta)."""
    return max(rc.k_points, 64)


def _run_correlations(rc: RunConfig):
    temperature = rc.temperature if rc.temperature is not None else 0.0
    if rc.component:
        pairs = [(rc.component, rc.component)]
    else:
        pairs = [("x", "x"), ("y", "y"), ("z", "z"),
                 ("x", "y"), ("x", "z"), ("y", "z")]
    s = rc.sublattice
    requests = [CorrelatorRequest(0, s, s, nu, nup, temperature,
                                  rc.include_radial_zero_mode,
                                  rc.include_longitudinal_zero_mode)
                for nu, nup in pairs]
    for req in requests:  # a divergent pair fails before any band is built
        check_convergent(req, rc.chain)
    field = PhononField(rc.chain, n_k=2 * _field_k_points(rc))
    separations = range(rc.max_separation + 1)
    tables = [correlator_table(req, field, separations).tolist() for req in requests]
    header = ["delta_j[cells]", "s", "s_prime", "nu", "nu_prime", "T[omega_I]",
              "value[d^2]"]
    columns = tuple(zip(*[(dj, s, s, nu, nup, temperature, table[dj])
                          for dj in separations for (nu, nup), table in zip(pairs, tables)]))
    return _meta(rc), header, columns


def _run_heat_capacity(rc: RunConfig):
    field = PhononField(rc.chain, n_k=_field_k_points(rc))
    if rc.temperature is not None:
        temps = [rc.temperature]
    else:
        temps = np.geomspace(rc.t_min, rc.t_max, rc.t_steps).tolist()
    header = ["T[omega_I]", "c[k_B]"]
    columns = temps, [heat_capacity(t, field) for t in temps]
    return _meta(rc), header, columns


def _run_susceptibility(rc: RunConfig):
    field = PhononField(rc.chain, n_k=_field_k_points(rc))
    grid = np.linspace(rc.omega_min, rc.omega_max, rc.omega_steps)
    component = rc.component or "y"
    chi = susceptibility(grid, (component, rc.sublattice), field, eta=rc.eta).chi
    header = ["omega[omega_I]", "chi_re[d^2/omega_I]", "chi_im[d^2/omega_I]",
              "phase[rad]"]
    columns = grid.tolist(), chi.real.tolist(), chi.imag.tolist(), np.angle(chi).tolist()
    return _meta(rc), header, columns


def _run_energy_reduction(rc: RunConfig):
    field = PhononField(rc.chain, n_k=_field_k_points(rc))
    header = ["kappa[1]", "delta0[d]", "dE0_per_ion[omega_I]"]
    columns = [rc.chain.kappa], [field.eq.delta0], [correlation_energy(field)]
    return _meta(rc), header, columns


def _run_ginzburg(rc: RunConfig):
    values = ginzburg_parameter(rc.chain, rc.n_list)
    header = ["n_ions[1]", "ginzburg[1]"]
    columns = tuple(zip(*values))
    return _meta(rc), header, columns


_RUNNERS = {
    "dispersion": _run_dispersion,
    "equilibrium": _run_equilibrium,
    "correlations": _run_correlations,
    "heat-capacity": _run_heat_capacity,
    "susceptibility": _run_susceptibility,
    "energy-reduction": _run_energy_reduction,
    "modes": _run_modes,
    "ginzburg": _run_ginzburg,
}


# rows per write: a block's text (~50 KB of JSON for six columns) and its
# cells stay below glibc's 128 KiB mmap threshold, so freeing them never
# raises that threshold for the rest of the process
_BLOCK_ROWS = 256


def _texts(text, values) -> list[str]:
    """``text`` of each value: where the values of a ``Factored`` column are
    formatted, once each, and a JSON float column that holds a NaN or an inf."""
    return list(map(text, values))


def _filled(columns, conversions: dict) -> tuple[list[str], list]:
    """Each column's printf conversion in a row template, and the cells that fill it.

    ``conversions`` maps the type of a column's first cell to its conversion
    and to what its cells are mapped first (None: nothing): their texts, or
    the cells themselves where the conversion takes them as they are.  A plain
    column fills its conversion with those cells; a ``Factored`` one has each
    of its values made text once, and fills a ``%s`` with those texts."""
    formats, cells = [], []
    for column in columns:
        conversion, prepare = conversions[type(column[0])]
        if type(column) is Factored:
            values = column.values
            texts = values if prepare is None else prepare(values)
            if texts is values:
                texts = _texts(conversion.__mod__, values)
            formats.append("%s")
            cells.append(Factored(texts, column.index))
        else:
            formats.append(conversion)
            cells.append(column if prepare is None else prepare(column))
    return formats, cells


def _write_rows(fh, template: str, sep: str, columns: list) -> None:
    """The rows of the filled ``columns``, each in ``template``, joined by ``sep``:
    one write per block of ``_BLOCK_ROWS`` rows, whose templates one ``%`` fills."""
    n_rows = len(columns[0])
    rows = zip(*columns)
    for start in range(0, n_rows, _BLOCK_ROWS):
        count = min(_BLOCK_ROWS, n_rows - start)
        # inline, so that no block's text is alive while the next is filled
        fh.write(((sep if start else "") + sep.join([template] * count))
                 % tuple(itertools.chain.from_iterable(itertools.islice(rows, count))))


# printf conversion of each type of CSV cell: integers as digits, floats at
# full double precision, strings as they are
_CSV_CONVERSIONS = {int: ("%d", None), float: ("%.17g", None), str: ("%s", None)}


def _write_csv(fh, header: list[str], columns: tuple) -> None:
    """Header and rows, the rows in blocks; every runner keeps one type per
    column, so its first cell fixes the conversion of all of them."""
    fh.write(",".join(header) + "\n")
    if columns:
        formats, cells = _filled(columns, _CSV_CONVERSIONS)
        _write_rows(fh, ",".join(formats) + "\n", "", cells)


# JSON text of each kind of leaf that a runner's meta holds (NaN and inf as null)
_JSON_LEAVES = {str: encode_basestring_ascii, bool: lambda v: "true" if v else "false",
                int: int.__repr__, type(None): lambda v: "null",
                float: lambda v: float.__repr__(v) if math.isfinite(v) else "null"}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=1, allow_nan=False)`` with
    NaN and inf as null, its lines indented after ``indent``, in one pass: json
    indents with its pure-Python encoder, which takes twice as long on a run's
    meta.  A leaf of a type that ``_JSON_LEAVES`` lacks raises KeyError."""
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = indent + " "
    if type(value) is dict:
        items = [encode_basestring_ascii(key) + ": " + _json_text(item, inner)
                 for key, item in sorted(value.items())]
        brackets = "{}"
    elif type(value) in (list, tuple):
        items = [_json_text(item, inner) for item in value]
        brackets = "[]"
    else:
        return _JSON_LEAVES[type(value)](value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


_NON_FINITE = ("nan", "inf", "-inf")


def _json_floats(values):
    """Cells whose ``%s`` is each float's JSON text: the floats themselves when
    all are finite (their str is their repr; a NaN or an inf leaves their sum
    not finite), else each one's repr, with null for NaN and inf."""
    if math.isfinite(sum(values)):
        return values
    texts = _texts(float.__repr__, values)
    if any(text in texts for text in _NON_FINITE):
        texts = ["null" if text in _NON_FINITE else text for text in texts]
    return texts


def _json_texts(values) -> list[str]:
    return list(map(json.dumps, values))


# conversion of each type of JSON cell, and what its cells are mapped to first,
# so that each cell's text is the one json.dump gives it (null for NaN and inf)
_JSON_CONVERSIONS = {int: ("%d", None), float: ("%s", _json_floats), str: ("%s", _json_texts)}


def _write_json(fh, meta: dict, header: list[str], columns: tuple) -> None:
    """The bytes of ``json.dump({"meta": meta, "rows": [one dict per row]},
    sort_keys=True, indent=1, allow_nan=False)`` plus a newline, with NaN and
    inf as null.

    ``meta`` goes through ``_json_text``; the columns, in the order of their
    sorted keys, fill one row template (as in ``_write_csv``, a column's first
    cell fixes its conversion), written in blocks.
    """
    doc = _json_text({"meta": meta, "rows": []})
    if not columns:
        fh.write(doc + "\n")
        return
    order = sorted(range(len(header)), key=header.__getitem__)
    formats, cells = _filled([columns[j] for j in order], _JSON_CONVERSIONS)
    template = "  {\n" + ",\n".join(
        "   " + json.dumps(header[j]).replace("%", "%%") + ": " + conversion
        for j, conversion in zip(order, formats)
    ) + "\n  }"
    fh.write(doc[:-len("[]\n}")] + "[\n")  # the doc ends '"rows": []\n}'
    _write_rows(fh, template, ",\n", cells)
    fh.write("\n ]\n}\n")


def run(rc: RunConfig) -> int:
    """Execute one run and write its table; returns the process exit code."""
    try:
        meta, header, columns = _RUNNERS[rc.command](rc)
    except PhysicsError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, DynamicalInstabilityError):
            record["frequencies"] = [float(np.imag(f)) for f in exc.frequencies]
        elif isinstance(exc, BracketingError) and exc.interval is not None:
            record["interval"] = [float(x) for x in exc.interval]
        sys.stderr.write(f"physics error: {exc}\n")
        if rc.output:
            try:
                with open(rc.output + ".error.json", "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            except OSError as io_exc:
                sys.stderr.write(f"i/o error writing sidecar: {io_exc}\n")
                return 4
        return 3
    # the table is streamed to its destination in blocks of rows: no copy of
    # the whole text (0.6 MB for a 1024-ion JSON dispersion) is built first
    try:
        with (open(rc.output, "w", encoding="utf-8", newline="") if rc.output
              else contextlib.nullcontext(sys.stdout)) as fh:
            if rc.fmt == "csv":
                _write_csv(fh, header, columns)
            else:
                _write_json(fh, meta, header, columns)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        rc = parse_config(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
