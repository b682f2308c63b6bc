"""Command-line front end: parse, dispatch, write tables.

Exit codes: 0 success, 2 usage error, 3 physics error (instability,
divergence; the error is also serialized next to the requested output file,
with the imaginary parts of a dynamical instability's frequencies or the
interval a failed root bracketing scanned), 4 I/O failure.  Outputs are
deterministic: identical configurations produce byte-identical files, with
floats at full double precision so golden files double as numeric
regressions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bloch import (
    collectivities,
    dispersion_zigzag,
    mixing_angles,
    reduced_zone_grid,
    ring_momenta,
)
from .chain import (
    Boundary,
    ChainConfig,
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
    ginzburg_parameter,
    heat_capacity,
    spatial_correlator,
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
    parser.add_argument("--k-points", type=int, default=401)
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
        """Resolve ``chain``; raise UsageError for any value the parser's
        types and choices let through but the command cannot take."""
        for dest, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{dest} must be finite, got {value}")
        try:
            self.chain = ChainConfig(
                kappa=self.kappa, alpha=self.alpha, lam=self.lam,
                n_ions=self.n_ions, boundary=Boundary(self.boundary),
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if self.command == "ginzburg":
            for n in self.n_list:  # each size is a ring of its own
                try:
                    replace(self.chain, n_ions=n)
                except ValueError as exc:
                    raise UsageError(f"--n-list: {exc}") from exc
        if self.temperature is not None:
            if not self.temperature >= 0.0:
                raise UsageError("--temperature must be non-negative")
            if self.command == "heat-capacity" and self.temperature == 0.0:
                raise UsageError("heat-capacity needs --temperature > 0")
        if not self.t_min > 0.0:
            raise UsageError("--t-min must be positive")
        if self.t_steps < 1:
            raise UsageError("--t-steps must be at least 1")
        if self.t_steps >= 2 and not self.t_min < self.t_max:
            raise UsageError("temperature grid must be strictly increasing")
        if self.omega_steps < 1:
            raise UsageError("--omega-steps must be at least 1")
        if self.omega_steps >= 2 and not self.omega_min < self.omega_max:
            raise UsageError("omega grid must be strictly increasing")
        if self.k_points < 2:
            raise UsageError("--k-points must be at least 2")
        if self.max_separation < 0:
            raise UsageError("--max-separation must be non-negative")
        if not self.eta > 0.0:
            raise UsageError("--eta must be positive")


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

    The file's tokens go in front of the flags, so one parser checks both
    and flags override file values, which override defaults.  Raises
    UsageError (or SystemExit(2) from argparse) on malformed input.
    """
    parser = _parser()
    config = parser.parse_known_args(argv)[0].config
    if config:
        argv = _file_tokens(config) + argv
    rc = parser.parse_args(argv, namespace=RunConfig())
    if rc.kappa is None:
        parser.error("--kappa is required (set it on the command line or in the config file)")
    rc.validate()
    return rc


# ---------------------------------------------------------------------------
# command implementations: each returns (meta, header, rows)

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
    omegas = bare_frequencies(rc.chain, eq)
    header = [
        "kappa[1]", "delta0[d]", "residual[m_I*omega_I^2*d]",
        "kappa_c_classical[1]", "Omega_x[omega_I]", "Omega_y[omega_I]",
        "Omega_z[omega_I]",
    ]
    rows = [(
        rc.chain.kappa, eq.delta0, equilibrium_residual(rc.chain, eq),
        critical_kappa_classical(rc.chain), omegas[0], omegas[1], omegas[2],
    )]
    return _meta(rc), header, rows


def _run_dispersion(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    if rc.chain.boundary is Boundary.RING:
        grid = ring_momenta(rc.chain.n_ions)  # finite rings have only these
    else:
        grid = reduced_zone_grid(rc.k_points)
    bands, warnings = dispersion_zigzag(grid, rc.chain, eq)
    header = ["k[1/d]", "branch", "omega[omega_I]", "theta_xy[rad]",
              "collectivity[1]", "is_zero_mode"]
    rows = list(zip(
        np.repeat(bands.k, 6).tolist(), list(range(6)) * len(bands.k),
        bands.omega.ravel().tolist(),
        mixing_angles(bands.u, bands.v).ravel().tolist(),
        collectivities(bands.u, bands.v).ravel().tolist(),
        (~bands.mask).ravel().astype(int).tolist(),
    ))
    meta = _meta(rc)
    meta["delta0"] = eq.delta0
    meta["tracking_warnings"] = len(warnings)
    return meta, header, rows


def _run_modes(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    nf = zero_mode_normal_form(rc.chain, eq)
    sectors = build_sectors(rc.chain, eq, nf.zero_pairs, nf.form.omega_bare)
    header = ["kind", "label", "omega[omega_I]", "m_tilde[1/omega_I]",
              "theta_xy[rad]", "collectivity[1]"]
    rows = []
    angles = mixing_angles(nf.u, nf.v).tolist()
    colls = collectivities(nf.u, nf.v).tolist()
    for i, (omega, angle, coll) in enumerate(zip(nf.omega.tolist(), angles, colls)):
        rows.append(("phonon", f"k0-{i}", omega, float("nan"), angle, coll))
    for zp in nf.zero_pairs:
        rows.append(("zero-pair", zp.label, 0.0, zp.m_tilde,
                     float("nan"), float("nan")))
    meta = _meta(rc)
    meta["delta0"] = eq.delta0
    meta["completeness_residual"] = completeness_residual(nf)
    meta["zero_point_shift_k0"] = 0.5 * sum(nf.omega.tolist())
    meta["sectors"] = {
        s.label: {"m_tilde": s.m_tilde, "c0": s.c0, "circumference": s.circumference}
        for s in sectors
    }
    return meta, header, rows


def _field_k_points(rc: RunConfig) -> int:
    """Bulk phonon-field grid size (rings keep their own momenta)."""
    return max(rc.k_points, 64)


def _run_correlations(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    temperature = rc.temperature if rc.temperature is not None else 0.0
    if rc.component:
        pairs = [(rc.component, rc.component)]
    else:
        pairs = [("x", "x"), ("y", "y"), ("z", "z"),
                 ("x", "y"), ("x", "z"), ("y", "z")]
    s = rc.sublattice
    requests = [CorrelatorRequest(dj, s, s, nu, nup, temperature,
                                  rc.include_radial_zero_mode,
                                  rc.include_longitudinal_zero_mode)
                for dj in range(rc.max_separation + 1) for nu, nup in pairs]
    for req in requests:  # a divergent request fails before any band is built
        check_convergent(req, rc.chain, eq)
    field = PhononField(rc.chain, eq, n_k=2 * _field_k_points(rc))
    header = ["delta_j[cells]", "s", "s_prime", "nu", "nu_prime", "T[omega_I]",
              "value[d^2]"]
    rows = [(req.delta_j, s, s, req.nu, req.nup, temperature,
             spatial_correlator(req, field))
            for req in requests]
    return _meta(rc), header, rows


def _run_heat_capacity(rc: RunConfig):
    field = PhononField(rc.chain, n_k=_field_k_points(rc))
    if rc.temperature is not None:
        temps = [rc.temperature]
    else:
        temps = list(np.geomspace(rc.t_min, rc.t_max, rc.t_steps))
    header = ["T[omega_I]", "c[k_B]"]
    rows = [(t, heat_capacity(float(t), field)) for t in temps]
    return _meta(rc), header, rows


def _run_susceptibility(rc: RunConfig):
    field = PhononField(rc.chain, n_k=_field_k_points(rc))
    grid = np.linspace(rc.omega_min, rc.omega_max, rc.omega_steps)
    component = rc.component or "y"
    chi = susceptibility(grid, (component, rc.sublattice), field, eta=rc.eta).chi
    header = ["omega[omega_I]", "chi_re[d^2/omega_I]", "chi_im[d^2/omega_I]",
              "phase[rad]"]
    rows = list(zip(grid.tolist(), chi.real.tolist(), chi.imag.tolist(),
                    np.angle(chi).tolist()))
    return _meta(rc), header, rows


def _run_energy_reduction(rc: RunConfig):
    field = PhononField(rc.chain, n_k=_field_k_points(rc))
    header = ["kappa[1]", "delta0[d]", "dE0_per_ion[omega_I]"]
    rows = [(rc.chain.kappa, field.eq.delta0, correlation_energy(field))]
    return _meta(rc), header, rows


def _run_ginzburg(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    values = ginzburg_parameter(rc.chain, eq, rc.n_list)
    header = ["n_ions[1]", "ginzburg[1]"]
    rows = [(n, g) for n, g in values]
    return _meta(rc), header, rows


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


def _cell_format(value) -> str:
    """printf conversion of one CSV cell: integers (and flags) as digits,
    floats at full double precision, anything else as its text."""
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    return "%s"


def _write_csv(fh, header: list[str], rows: list[tuple]) -> None:
    """Header and rows, one line at a time; every runner keeps one type per
    column, so the first row fixes the format of all of them."""
    fh.write(",".join(header) + "\n")
    if rows:
        line = ",".join(_cell_format(v) for v in rows[0]) + "\n"
        for row in rows:
            fh.write(line % row)


def _json_safe(value):
    """Plain JSON value: numpy scalars as Python numbers, NaN and inf as None."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# rows per write: a block's text (~50 KB for six columns) and its column
# lists stay below glibc's 128 KiB mmap threshold, so freeing them never
# raises that threshold for the rest of the process
_JSON_BLOCK_ROWS = 256
_NON_FINITE = ("nan", "inf", "-inf")


def _json_bools(values) -> list[str]:
    return ["true" if v else "false" for v in values]


def _json_ints(values) -> list[str]:
    return [str(int(v)) for v in values]


def _json_floats(values) -> list[str]:
    texts = list(map(float.__repr__, map(float, values)))
    if any(text in texts for text in _NON_FINITE):
        texts = ["null" if text in _NON_FINITE else text for text in texts]
    return texts


def _json_texts(values) -> list[str]:
    return list(map(json.dumps, values))


def _json_column(value):
    """Formatter of a JSON column whose cells are of ``value``'s kind: the
    text ``json.dump`` gives each cell after ``_json_safe``."""
    if isinstance(value, bool):
        return _json_bools
    if isinstance(value, (int, np.integer)):
        return _json_ints
    if isinstance(value, (float, np.floating)):
        return _json_floats
    return _json_texts


def _write_json(fh, meta: dict, header: list[str], rows: list[tuple]) -> None:
    """The bytes of ``json.dump({"meta": meta, "rows": [one dict per row]},
    sort_keys=True, indent=1, allow_nan=False)`` plus a newline, with numpy
    scalars as Python numbers and NaN and inf as null.

    ``meta`` goes through ``json.dumps``; the rows fill one template of the
    sorted keys, formatted a column at a time (like ``_write_csv``, the
    first row fixes each column's kind) and written in blocks.
    """
    doc = json.dumps({"meta": _json_safe(meta), "rows": []},
                     sort_keys=True, indent=1, allow_nan=False)
    if not rows:
        fh.write(doc + "\n")
        return
    order = sorted(range(len(header)), key=header.__getitem__)
    template = "  {\n" + ",\n".join(
        "   " + json.dumps(header[j]).replace("%", "%%") + ": %s" for j in order
    ) + "\n  }"
    formats = [_json_column(rows[0][j]) for j in order]
    fh.write(doc[:-len("[]\n}")] + "[\n")  # the doc ends '"rows": []\n}'
    for start in range(0, len(rows), _JSON_BLOCK_ROWS):
        columns = list(zip(*rows[start:start + _JSON_BLOCK_ROWS]))
        cells = zip(*[fmt(columns[j]) for fmt, j in zip(formats, order)])
        fh.write((",\n" if start else "")
                 + ",\n".join([template % row for row in cells]))
    fh.write("\n ]\n}\n")


def run(rc: RunConfig) -> int:
    """Execute one run and write its table; returns the process exit code."""
    try:
        meta, header, rows = _RUNNERS[rc.command](rc)
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
                _write_csv(fh, header, rows)
            else:
                _write_json(fh, meta, header, rows)
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
