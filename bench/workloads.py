"""Request catalogues of the three workloads and how one request is executed.

A workload is a fixed catalogue of requests plus a round plan.  A round
draws one request from every stratum of the plan (without replacement within
a run), so every round carries the same mix of expensive and cheap work and
the seed only chooses the cost-neutral parameters (kappa, alpha, output
format, separation pairing) and the order.

Importing this module does not import numpy or the package: ``run.py`` pins
the BLAS thread count before either is loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

KAPPAS = (0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75)
# alpha < 1 buckles along z first and has no defined outcome yet; it is left
# out on purpose and the exclusion is recorded in design.json
ALPHAS = (1.0, 1.5)
RING_N = (64, 256, 1024)
BULK_K_POINTS = (64, 128)
BULK_MAX_SEPARATION = 4
FULL_N = (32, 64, 128)

CLI_COMMANDS = (
    "equilibrium", "dispersion", "modes", "correlations",
    "heat-capacity", "susceptibility", "energy-reduction", "ginzburg",
)
BULK_COMMANDS = tuple(c for c in CLI_COMMANDS if c != "correlations")
FORMATS = ("csv", "json")
WORKLOADS = ("ring-sweep", "bulk-sweep", "full-space")


@dataclass(frozen=True)
class Request:
    """One catalogue entry; ``key`` identifies its reference output."""

    workload: str
    command: str
    kappa: float
    alpha: float
    n_ions: int = 0
    k_points: int = 0
    component: str = ""
    max_separation: int = -1
    boundary: str = ""

    @property
    def key(self) -> str:
        if self.workload == "ring-sweep":
            return f"{self.command}/k{self.kappa}/a{self.alpha}/n{self.n_ions}"
        if self.workload == "bulk-sweep":
            tail = (f"/{self.component}/m{self.max_separation}"
                    if self.command == "correlations" else "")
            return f"{self.command}/k{self.kappa}/a{self.alpha}/kp{self.k_points}{tail}"
        return f"{self.boundary}/k{self.kappa}/a{self.alpha}/n{self.n_ions}"

    def argv(self) -> list[str]:
        """CLI arguments, without --format and --output."""
        args = [self.command, "--kappa", repr(self.kappa), "--alpha", repr(self.alpha)]
        if self.workload == "ring-sweep":
            return args + ["--n-ions", str(self.n_ions), "--boundary", "ring"]
        args += ["--boundary", "bulk", "--k-points", str(self.k_points)]
        if self.command == "correlations":
            args += ["--component", self.component,
                     "--max-separation", str(self.max_separation)]
        return args


def catalogue(workload: str) -> list[Request]:
    """Every request the workload can draw, in a fixed order."""
    out = []
    for kappa in KAPPAS:
        for alpha in ALPHAS:
            if workload == "ring-sweep":
                out += [Request(workload, c, kappa, alpha, n_ions=n)
                        for c in CLI_COMMANDS for n in RING_N]
            elif workload == "bulk-sweep":
                for kp in BULK_K_POINTS:
                    out += [Request(workload, c, kappa, alpha, k_points=kp)
                            for c in BULK_COMMANDS]
                    out += [Request(workload, "correlations", kappa, alpha,
                                    k_points=kp, component=comp, max_separation=m)
                            for comp in "xyz" for m in range(BULK_MAX_SEPARATION + 1)]
            elif workload == "full-space":
                out += [Request(workload, "full-space", kappa, alpha, n_ions=n,
                                boundary=b)
                        for b in ("ring", "bulk") for n in FULL_N]
            else:
                raise ValueError(f"unknown workload {workload!r}")
    return out


# ---------------------------------------------------------------------------
# round plans


def _zigzag_isotropic(req: Request) -> bool:
    """Configs whose bulk z correlator diverges (gapless helical branch)."""
    return req.kappa > 0.4754 and req.alpha == 1.0


def _plan(workload: str) -> list[tuple]:
    """Slots of one round, each (kind, label, entries).

    "one" draws one entry; "scan" draws one entry for every (kappa, alpha),
    which is how the package is used (kappa across the zigzag transition)
    and fixes the mix of linear, zigzag and isotropic configs in a round;
    "group" draws one list of entries and takes all of it.  A slot listed
    twice draws twice.
    """
    cat = catalogue(workload)
    if workload == "ring-sweep":
        # scanned: every command at N = 64 but the two that allocate large
        # winding or ring arrays (heat-capacity, ginzburg), equilibrium and
        # modes at N = 1024, dispersion at N = 256; every other (command, N)
        # is drawn once.  The median then falls inside the ~9 ms
        # energy-reduction / correlations cluster at N = 64 and the tail
        # inside the ~80 ms dispersion cluster at N = 256, both CPU-bound
        # and steady; requests that page-fault hundreds of MB (the heat
        # capacity at N = 1024 alone takes 8-11 s and ~1 GB, in the
        # free-particle winding sums) stay above the tail.  ginzburg ignores
        # N, so it is one slot over all sizes.
        scanned = {(c, 64) for c in CLI_COMMANDS if c not in ("heat-capacity", "ginzburg")}
        scanned |= {("equilibrium", 1024), ("modes", 1024), ("dispersion", 256)}
        plan = [("one", "ginzburg", [r for r in cat if r.command == "ginzburg"])]
        for c in CLI_COMMANDS:
            for n in RING_N:
                if c != "ginzburg":
                    plan.append(("scan" if (c, n) in scanned else "one", f"{c}/n{n}",
                                 [r for r in cat if r.command == c and r.n_ions == n]))
        return plan
    if workload == "full-space":
        # twice as many N = 64 blocks puts the median and the tail inside one
        # size class instead of on the edge between two
        return [("one", f"{b}/n{n}", [r for r in cat if r.boundary == b and r.n_ions == n])
                for b in ("ring", "bulk") for n in (32, 64, 64, 128)]
    # bulk: a scan of equilibrium and modes, one draw of every other command,
    # and correlations.  The 14 modes requests (0.12-0.18 s) lie above every
    # equilibrium and ginzburg (below 0.1 s) and below the other commands
    # (above 0.4 s), so the median and the tail both fall inside them, with
    # the same configs whatever the seed
    scanned = ("equilibrium", "modes")
    plan: list[tuple] = [("scan", c, [r for r in cat if r.command == c]) for c in scanned]
    plan.append(("one", "ginzburg", [r for r in cat if r.command == "ginzburg"]))
    plan += [("one", c, [r for r in cat if r.command == c and r.k_points == 64])
             for c in BULK_COMMANDS if c not in scanned + ("ginzburg",)]
    corr = [r for r in cat if r.command == "correlations"]
    plan.append(("one", "correlations/z-divergent/kp128",
                 [r for r in corr if r.component == "z" and r.k_points == 128
                  and _zigzag_isotropic(r)]))
    # one config asked for an x correlator (divergent, so its cost does not
    # depend on max-separation) and y correlators at separations m and 2 - m,
    # which fixes the round's cost; all three build the same bands
    def on(cfg: Request, component: str, m: int) -> Request:
        return next(r for r in corr if r.kappa == cfg.kappa and r.alpha == cfg.alpha
                    and r.k_points == 64 and r.component == component
                    and r.max_separation == m)

    configs = [r for r in corr if r.k_points == 64 and r.component == "x"
               and r.max_separation == 0]
    plan.append(("group", "correlations/x+y/kp64", [
        [on(cfg, "x", a), on(cfg, "y", b), on(cfg, "y", 2 - b)]
        for cfg in configs for a in range(BULK_MAX_SEPARATION + 1) for b in (0, 1)]))
    return plan


# wall seconds of one round where the benchmark was written (one BLAS
# thread, two-core x86_64 VM).  A pass runs as many whole rounds as fit in
# its share of --seconds at that speed, at least one, so the mix of requests
# in a run never depends on how fast the machine happens to be
ROUND_SECONDS = {"ring-sweep": 13.0, "bulk-sweep": 17.0, "full-space": 3.6}


def rounds_per_pass(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_SECONDS[workload]))


def rounds(workload: str, seed: int):
    """Endless sequence of rounds; each is a list of (Request, format).

    Draws are without replacement within a run: a pool is reshuffled only
    after all of its entries have been used.
    """
    rng = random.Random(f"{workload}:{seed}")
    pools: dict[tuple, list] = {}
    plan = _plan(workload)

    def draw(key: tuple, entries: list):
        if not pools.get(key):
            pools[key] = rng.sample(entries, len(entries))
        return pools[key].pop()

    while True:
        batch = []
        for kind, label, entries in plan:
            if kind == "one":
                batch.append(draw((label,), entries))
            elif kind == "group":
                batch += draw((label,), entries)
            else:
                for kappa in KAPPAS:
                    for alpha in ALPHAS:
                        batch.append(draw((label, kappa, alpha), [
                            r for r in entries if r.kappa == kappa and r.alpha == alpha]))
        rng.shuffle(batch)
        yield [(r, rng.choice(FORMATS)) for r in batch]


# ---------------------------------------------------------------------------
# execution


@dataclass
class Outcome:
    """What one request produced: a table, an expected error, or a failure."""

    table: dict | None = None      # column name -> list of values
    error: str | None = None       # PhysicsError class name (exit code 3)
    failure: str | None = None     # anything else


def execute(req: Request, fmt: str, out_path: str):
    """Run one request; returns a handle that ``collect`` turns into an Outcome.

    CLI requests go through ``ionphonon.cli.main`` in-process and write
    their table to ``out_path``; the full-space path calls the library and
    keeps its result in memory.  Reading and parsing happen in ``collect``,
    outside the timed interval.
    """
    if req.workload == "full-space":
        try:
            return _full_space(req)
        except Exception as exc:  # noqa: BLE001 -- recorded as the request's failure
            return _error_outcome(exc)
    from ionphonon import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(req.argv() + ["--format", fmt, "--output", out_path])
    except SystemExit as exc:
        return Outcome(failure=f"SystemExit({exc.code})")
    except Exception as exc:  # noqa: BLE001 -- recorded as the request's failure
        return Outcome(failure=f"{type(exc).__name__}: {exc}")
    return (code, fmt, out_path)


def _error_outcome(exc: Exception) -> Outcome:
    from ionphonon.errors import PhysicsError

    if isinstance(exc, PhysicsError):
        return Outcome(error=type(exc).__name__)
    return Outcome(failure=f"{type(exc).__name__}: {exc}")


def collect(handle) -> Outcome:
    if isinstance(handle, Outcome):
        return handle
    code, fmt, path = handle
    try:
        if code == 3:
            with open(path + ".error.json", encoding="utf-8") as fh:
                return Outcome(error=json.load(fh)["error"])
        if code != 0:
            return Outcome(failure=f"exit code {code}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return Outcome(failure=f"unreadable output: {exc}")
    return Outcome(table=parse_csv(text) if fmt == "csv" else parse_json(text))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    header = lines[0].split(",")
    columns: dict = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(_cell(cell))
    return columns


def parse_json(text: str) -> dict:
    rows = json.loads(text)["rows"]
    columns: dict = {name: [] for name in (rows[0] if rows else {})}
    for row in rows:
        for name, value in row.items():
            if value is None:
                value = float("nan")
            elif isinstance(value, (bool, int)):
                value = float(value)
            columns[name].append(value)
    return columns


def _full_space(req: Request) -> Outcome:
    """The README's library path on one dense 3N block."""
    import ionphonon as ip

    cfg = ip.ChainConfig(kappa=req.kappa, alpha=req.alpha, n_ions=req.n_ions,
                         boundary=ip.Boundary(req.boundary))
    eq = ip.solve_delta0(cfg)
    hess = ip.build_hessian(cfg, eq)
    form = ip.build_quadratic_form(hess, ip.omega_from_hessian(hess))
    nf = ip.symplectic_diagonalize(form, axis_map=hess.axis_map, p_norm=cfg.n_ions)
    residual = ip.completeness_residual(nf)
    ip.assemble_W(nf)
    pairs = sorted(nf.zero_pairs, key=lambda zp: zp.label)
    return Outcome(table={
        "delta0[d]": [float(eq.delta0)],
        "omega[omega_I]": sorted(float(m.omega) for m in nf.modes),
        "label": [zp.label for zp in pairs],
        "m_tilde[1/omega_I]": [float(zp.m_tilde) for zp in pairs],
        "completeness[1]": [float(residual)],
    })


def output_path(out_dir: str, index: int, fmt: str) -> str:
    return os.path.join(out_dir, f"{index}.{fmt}")
