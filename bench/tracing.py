"""Spans around the calls into each layer's public functions.

The tracer wraps the functions from the benchmark's side: a module-level
function is replaced at every module of the package that imported it (so
``solve_delta0`` is traced whether ``cli``, ``observables`` or
``freeparticle`` calls it), a method is replaced on its class.  Each span
records name, start, end, parent span and request id; spans stay in memory
until the run writes them out.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the layer is the part before the first dot
TARGETS = (
    ("cli", "main", "cli.run"),
    ("chain", "solve_delta0", "chain.solve_delta0"),
    ("chain", "build_hessian", "chain.build_hessian"),
    ("bloch", "CellCouplings.__init__", "bloch.CellCouplings"),
    ("bloch", "CellCouplings.raw_coupling", "bloch.raw_coupling"),
    ("bloch", "CellCouplings.block", "bloch.block"),
    ("bloch", "dispersion_zigzag", "bloch.dispersion_zigzag"),
    ("symplectic", "symplectic_diagonalize", "symplectic.diagonalize"),
    ("symplectic", "completeness_residual", "symplectic.completeness_residual"),
    ("symplectic", "assemble_W", "symplectic.assemble_W"),
    ("freeparticle", "build_sectors", "freeparticle.build_sectors"),
    ("freeparticle", "thermal_energy_and_heat", "freeparticle.thermal_energy_and_heat"),
    ("freeparticle", "thermal_p_squared", "freeparticle.thermal_p_squared"),
    ("observables", "PhononField.__init__", "observables.PhononField"),
    ("observables", "spatial_correlator", "observables.spatial_correlator"),
    ("observables", "heat_capacity", "observables.heat_capacity"),
    ("observables", "susceptibility", "observables.susceptibility"),
    ("observables", "correlation_energy", "observables.correlation_energy"),
    ("observables", "ginzburg_parameter", "observables.ginzburg_parameter"),
)
LAYERS = ("cli", "chain", "bloch", "symplectic", "freeparticle", "observables")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, request]
        self.request = -1
        self.counts: Counter = Counter()
        self.max_dim = 0
        self.errors: Counter = Counter()  # (layer, class) -> raised there first
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, count=None):
        from ionphonon.errors import PhysicsError

        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args, kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except PhysicsError as exc:
                if not hasattr(exc, "_bench_layer"):
                    exc._bench_layer = layer
                    self.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name == "observables.PhononField":
                self.counts["observables.PhononField.k_points"] += len(args[0].k)
            return result

        return traced

    def install(self) -> None:
        import importlib

        package = [m for n, m in list(sys.modules.items())
                   if n == "ionphonon" or n.startswith("ionphonon.")]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"ionphonon.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, name, _COUNTERS.get(name)))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, _COUNTERS.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reduction --------------------------------------------------------

    def _span_self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._span_self_times()):
            out[span[0]] += own
        return out

    def request_layers(self) -> dict[int, dict[str, float]]:
        """Per request id, the self time of each layer."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, request), own in zip(self.spans, self._span_self_times()):
            out[request][name.split(".")[0]] += own
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def fields_per_correlator(self) -> float:
        """Field builds per spatial_correlator call that the CLI makes itself.

        Calls from other observables (ginzburg_parameter makes four ring
        correlators of one field each) are left out, so this is the band
        reuse of the correlations command: 2.0 in bulk, where each call
        builds a coarse and a fine field.
        """
        names = [span[0] for span in self.spans]
        cli_correlators = {i for i, (name, _, _, parent, _) in enumerate(self.spans)
                           if name == "observables.spatial_correlator"
                           and parent >= 0 and names[parent] == "cli.run"}
        inside = 0
        for name, _, _, parent, _ in self.spans:
            if name != "observables.PhononField":
                continue
            while parent >= 0 and parent not in cli_correlators:
                parent = self.spans[parent][3]
            inside += parent >= 0
        return inside / len(cli_correlators) if cli_correlators else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _count_raw_coupling(tracer, args, kwargs):
    import numpy as np

    couplings, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    n_k = np.atleast_1d(k).size
    tracer.counts["bloch.raw_coupling.k_evals"] += n_k
    # a coupling table without explicit offsets contributes no offset terms
    tracer.counts["bloch.raw_coupling.offset_terms"] += \
        n_k * len(getattr(couplings, "p_vals", ()))


def _count_diagonalize(tracer, args, kwargs):
    form = args[0] if args else kwargs["form"]
    tracer.max_dim = max(tracer.max_dim, int(form.dimension))


def _count_windings(tracer, args, kwargs):
    from ionphonon.freeparticle import adaptive_m_cut

    sector, temperature = args[0], args[1] if len(args) > 1 else kwargs["temperature"]
    if temperature > 0.0:
        tracer.counts["freeparticle.thermal_energy_and_heat.winding_terms"] += \
            2 * adaptive_m_cut(sector, temperature) + 1


_COUNTERS = {
    "bloch.raw_coupling": _count_raw_coupling,
    "symplectic.diagonalize": _count_diagonalize,
    "freeparticle.thermal_energy_and_heat": _count_windings,
}
