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
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bloch import (
    collectivity,
    dispersion_zigzag,
    mixing_angle,
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
    phase_shift,
    spatial_correlator,
    susceptibility,
)
from .symplectic import completeness_residual

COMMANDS = (
    "dispersion",
    "equilibrium",
    "correlations",
    "heat-capacity",
    "susceptibility",
    "energy-reduction",
    "modes",
    "ginzburg",
)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Fully resolved run request: command, chain parameters, grids, output."""

    command: str
    chain: ChainConfig
    temperature: float | None = None
    t_min: float = 0.01
    t_max: float = 50.0
    t_steps: int = 50
    k_points: int = 401
    eta: float = 1e-2
    component: str = "y"
    sublattice: int = 0
    include_longitudinal_zero_mode: bool = False
    include_radial_zero_mode: bool = True
    max_separation: int = 10
    n_list: tuple[int, ...] = (50, 100, 200, 400)
    omega_min: float = 0.0
    omega_max: float = 3.0
    omega_steps: int = 601
    fmt: str = "csv"
    output: str | None = None

    def validate(self) -> None:
        if self.t_steps >= 2 and not self.t_min < self.t_max:
            raise UsageError("temperature grid must be strictly increasing")
        if self.omega_steps >= 2 and not self.omega_min < self.omega_max:
            raise UsageError("omega grid must be strictly increasing")
        if self.k_points < 2:
            raise UsageError("--k-points must be at least 2")
        if self.max_separation < 0:
            raise UsageError("--max-separation must be non-negative")
        if self.eta <= 0.0:
            raise UsageError("--eta must be positive")


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key-value file, one `key = value` per line, # comments."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                for sep in ("=", ":"):
                    if sep in stripped:
                        key, _, val = stripped.partition(sep)
                        break
                else:
                    raise UsageError(
                        f"{path}:{lineno}: expected 'key = value', got {stripped!r}"
                    )
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionphonon",
        description="Phonon normal form and observables of a trapped-ion chain",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--kappa", type=float, default=None,
                        help="Coulomb coupling (required)")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--lambda", dest="lam", type=float, default=50.0)
    parser.add_argument("--n-ions", type=int, default=64)
    parser.add_argument("--boundary", choices=["ring", "bulk"], default="ring")
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--t-min", type=float, default=0.01)
    parser.add_argument("--t-max", type=float, default=50.0)
    parser.add_argument("--t-steps", type=int, default=50)
    parser.add_argument("--k-points", type=int, default=401)
    parser.add_argument("--eta", type=float, default=1e-2)
    parser.add_argument("--component", choices=["x", "y", "z"], default=None)
    parser.add_argument("--sublattice", type=int, choices=[0, 1], default=0)
    parser.add_argument("--include-longitudinal-zero-mode", action="store_true")
    parser.add_argument("--exclude-radial-zero-mode", action="store_true")
    parser.add_argument("--max-separation", type=int, default=10)
    parser.add_argument("--n-list", type=str, default="50,100,200,400")
    parser.add_argument("--omega-min", type=float, default=0.0)
    parser.add_argument("--omega-max", type=float, default=3.0)
    parser.add_argument("--omega-steps", type=int, default=601)
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"],
                        default="csv")
    parser.add_argument("--output", type=str, default=None)
    parser.add_argument("--config", type=str, default=None)
    return parser


_FILE_CASTS = {
    "kappa": float, "alpha": float, "lam": float, "lambda": float,
    "n_ions": int, "boundary": str, "temperature": float,
    "t_min": float, "t_max": float, "t_steps": int, "k_points": int,
    "eta": float, "component": str, "sublattice": int,
    "include_longitudinal_zero_mode": lambda v: v.lower() in ("1", "true", "yes"),
    "exclude_radial_zero_mode": lambda v: v.lower() in ("1", "true", "yes"),
    "max_separation": int, "n_list": str, "omega_min": float,
    "omega_max": float, "omega_steps": int, "format": str, "output": str,
}


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve flags and optional config file into a RunConfig.

    Flags override file values, which override defaults.  Raises UsageError
    (or SystemExit(2) from argparse) on malformed input.
    """
    parser = _build_parser()
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        file_values = _read_config_file(pre.config)
        defaults = {}
        for key, raw in file_values.items():
            dest = {"lambda": "lam", "format": "fmt"}.get(key, key)
            cast = _FILE_CASTS.get(key)
            if cast is None:
                raise UsageError(f"unknown key {key!r} in config file")
            try:
                defaults[dest] = cast(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {key!r}: {raw!r}") from exc
        parser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    if args.kappa is None:
        parser.error("--kappa is required (set it on the command line or in the config file)")
    try:
        chain = ChainConfig(
            kappa=args.kappa, alpha=args.alpha, lam=args.lam,
            n_ions=args.n_ions, boundary=Boundary(args.boundary),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        n_list = tuple(int(tok) for tok in str(args.n_list).split(",") if tok)
    except ValueError as exc:
        raise UsageError(f"bad --n-list: {args.n_list!r}") from exc
    rc = RunConfig(
        command=args.command, chain=chain, temperature=args.temperature,
        t_min=args.t_min, t_max=args.t_max, t_steps=args.t_steps,
        k_points=args.k_points, eta=args.eta, component=args.component,
        sublattice=args.sublattice,
        include_longitudinal_zero_mode=args.include_longitudinal_zero_mode,
        include_radial_zero_mode=not args.exclude_radial_zero_mode,
        max_separation=args.max_separation, n_list=n_list,
        omega_min=args.omega_min, omega_max=args.omega_max,
        omega_steps=args.omega_steps, fmt=args.fmt, output=args.output,
    )
    rc.validate()
    return rc


# ---------------------------------------------------------------------------
# command implementations: each returns (meta, header, rows)


def _meta(rc: RunConfig) -> dict:
    """Full run-configuration echo for reproducibility."""
    return {
        "version": __version__,
        "command": rc.command,
        "kappa": rc.chain.kappa,
        "alpha": rc.chain.alpha,
        "lambda": rc.chain.lam,
        "n_ions": rc.chain.n_ions,
        "boundary": rc.chain.boundary.value,
        "temperature": rc.temperature,
        "t_min": rc.t_min,
        "t_max": rc.t_max,
        "t_steps": rc.t_steps,
        "k_points": rc.k_points,
        "eta": rc.eta,
        "component": rc.component or "",
        "sublattice": rc.sublattice,
        "include_longitudinal_zero_mode": rc.include_longitudinal_zero_mode,
        "include_radial_zero_mode": rc.include_radial_zero_mode,
        "max_separation": rc.max_separation,
        "n_list": list(rc.n_list),
        "omega_min": rc.omega_min,
        "omega_max": rc.omega_max,
        "omega_steps": rc.omega_steps,
        "format": rc.fmt,
    }


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
    table = dispersion_zigzag(grid, rc.chain, eq)
    header = ["k[1/d]", "branch", "omega[omega_I]", "theta_xy[rad]",
              "collectivity[1]", "is_zero_mode"]
    rows = []
    for i, k in enumerate(table.k):
        for b in range(6):
            rows.append((
                float(k), b, table.omega[i, b], table.theta_xy[i, b],
                table.collectivity[i, b], int(table.is_zero[i, b]),
            ))
    meta = _meta(rc)
    meta["delta0"] = table.delta0
    meta["tracking_warnings"] = len(table.warnings)
    return meta, header, rows


def _run_modes(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    nf = zero_mode_normal_form(rc.chain, eq)
    sectors = build_sectors(rc.chain, eq, nf.zero_pairs, nf.form.omega_bare)
    header = ["kind", "label", "omega[omega_I]", "m_tilde[1/omega_I]",
              "theta_xy[rad]", "collectivity[1]"]
    rows = []
    for i, mode in enumerate(nf.modes):
        rows.append(("phonon", f"k0-{i}", mode.omega, float("nan"),
                     mixing_angle(mode), collectivity(mode)))
    for zp in nf.zero_pairs:
        rows.append(("zero-pair", zp.label, 0.0, zp.m_tilde,
                     float("nan"), float("nan")))
    meta = _meta(rc)
    meta["delta0"] = eq.delta0
    meta["completeness_residual"] = completeness_residual(nf)
    meta["zero_point_shift_k0"] = nf.zero_point_shift
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
             spatial_correlator(req, rc.chain, eq, field=field))
            for req in requests]
    return _meta(rc), header, rows


def _run_heat_capacity(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    field = PhononField(rc.chain, eq, n_k=_field_k_points(rc))
    if rc.temperature is not None:
        temps = [rc.temperature]
    else:
        temps = list(np.geomspace(rc.t_min, rc.t_max, rc.t_steps))
    header = ["T[omega_I]", "c[k_B]"]
    rows = [(t, heat_capacity(float(t), rc.chain, eq, field=field)) for t in temps]
    return _meta(rc), header, rows


def _run_susceptibility(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    field = PhononField(rc.chain, eq, n_k=_field_k_points(rc))
    grid = np.linspace(rc.omega_min, rc.omega_max, rc.omega_steps)
    component = rc.component or "y"
    results = susceptibility(grid, (component, rc.sublattice), rc.chain, eq,
                             eta=rc.eta, field=field)
    header = ["omega[omega_I]", "chi_re[d^2/omega_I]", "chi_im[d^2/omega_I]",
              "phase[rad]"]
    rows = [(r.omega, r.chi.real, r.chi.imag, phase_shift(r)) for r in results]
    return _meta(rc), header, rows


def _run_energy_reduction(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    field = PhononField(rc.chain, eq, n_k=_field_k_points(rc))
    header = ["kappa[1]", "delta0[d]", "dE0_per_ion[omega_I]"]
    rows = [(rc.chain.kappa, eq.delta0,
             correlation_energy(rc.chain, eq, field=field))]
    return _meta(rc), header, rows


def _run_ginzburg(rc: RunConfig):
    eq = solve_delta0(rc.chain)
    values = ginzburg_parameter(rc.chain, eq, rc.n_list)
    header = ["n_ions[1]", "ginzburg[1]"]
    rows = [(n, g) for n, g in values]
    return _meta(rc), header, rows


_RUNNERS = {
    "equilibrium": _run_equilibrium,
    "dispersion": _run_dispersion,
    "modes": _run_modes,
    "correlations": _run_correlations,
    "heat-capacity": _run_heat_capacity,
    "susceptibility": _run_susceptibility,
    "energy-reduction": _run_energy_reduction,
    "ginzburg": _run_ginzburg,
}


def _fmt_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(fh, header: list[str], rows: list[tuple]) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt_value(v) for v in row) + "\n")


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and (np.isnan(value) or np.isinf(value)):
        return None
    return value


def _write_json(fh, meta: dict, header: list[str], rows: list[tuple]) -> None:
    records = []
    for row in rows:
        rec = {}
        for key, value in zip(header, row):
            val = _json_safe(value)
            if isinstance(val, float) and (np.isnan(val) or np.isinf(val)):
                val = None
            rec[key] = val
        records.append(rec)
    doc = {"meta": _json_safe(meta), "rows": records}
    json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
    fh.write("\n")


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
    # the table is streamed to its destination: no copy of the whole text
    # (0.6 MB for a 1024-ion JSON dispersion) is built first
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
