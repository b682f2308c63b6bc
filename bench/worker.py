"""One measured pass of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --rounds R [--trace]

``run.py`` starts this once per pass.  The pass imports the package, runs a
few warm-up requests, then sends the seed's first ``--rounds`` rounds one
request at a time (closed loop).  After the timed interval every output is
checked against the reference.  The pass prints one JSON object: per
request its key, latency, the reason it failed (null when it passed), the
PhysicsError it ended in, and the machine's speed around it (see
``environment.Calibration``) -- plus, with ``--trace``, the per-layer
metrics of ``tracing.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import environment  # noqa: E402
import workloads  # noqa: E402


# warm-up requests use kappa = 0.3, which no catalogue entry has, so nothing
# computed here can be reused by a timed request
WARM_UP = {
    "ring-sweep": [workloads.Request("ring-sweep", c, 0.3, 1.0, n_ions=64)
                   for c in workloads.CLI_COMMANDS],
    "bulk-sweep": [workloads.Request("bulk-sweep", "modes", 0.3, 1.0, k_points=64),
                   workloads.Request("bulk-sweep", "energy-reduction", 0.3, 1.0,
                                     k_points=64)],
    "full-space": [workloads.Request("full-space", "full-space", 0.3, 1.0, n_ions=n,
                                     boundary="ring") for n in (32, 64, 128)],
}


def timed_loop(args, out_dir: str, calibration: environment.Calibration, tracer=None):
    """Run the rounds; returns the records (request, handle, latency).

    A calibration sample is taken before the first request and after each
    request, outside the request's own latency.
    """
    records = []
    calibration.samples.clear()
    calibration.sample()
    for batch in itertools.islice(workloads.rounds(args.workload, args.seed), args.rounds):
        for req, fmt in batch:
            index = len(records)
            if tracer is not None:
                tracer.request = index
            t0 = time.perf_counter()
            handle = workloads.execute(req, fmt, workloads.output_path(out_dir, index, fmt))
            records.append((req, handle, time.perf_counter() - t0))
            calibration.sample()
    return records


def check_all(workload: str, records) -> list:
    import reference

    refs = reference.load_reference(workload)
    tolerances = reference.load_tolerances()
    verdicts = []
    for req, handle, _ in records:
        outcome = workloads.collect(handle)
        verdicts.append((outcome, reference.check(outcome, refs.get(req.key), tolerances)))
    return verdicts


def layer_metrics(tracer, records, verdicts) -> dict:
    """Per-layer metrics of one traced pass: name -> [value, unit]."""
    from tracing import LAYERS, TARGETS

    selfs = tracer.self_times()
    calls = tracer.calls()
    busy = sum(r[2] for r in records)
    m: dict[str, list] = {}
    for _, _, name in TARGETS:
        count = "builds" if name in ("bloch.CellCouplings", "observables.PhononField") \
            else "calls"
        m[f"{name}.self_s"] = [selfs.get(name, 0.0), "s"]
        m[f"{name}.{count}"] = [float(calls.get(name, 0)), "count"]
    for name in ("bloch.raw_coupling.k_evals", "bloch.raw_coupling.offset_terms",
                 "freeparticle.thermal_energy_and_heat.winding_terms",
                 "observables.PhononField.k_points"):
        m[name] = [float(tracer.counts.get(name, 0)), "count"]
    m["symplectic.diagonalize.max_dim"] = [float(tracer.max_dim), "count"]
    m["observables.fields_per_correlator"] = [tracer.fields_per_correlator(), "ratio"]
    m["observables.divergent_work_s"] = [float(sum(
        r[2] for r, (outcome, bad) in zip(records, verdicts)
        if bad is None and outcome.error == "DivergenceError")), "s"]
    for layer in LAYERS:
        layer_self = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
        m[f"{layer}.share"] = [layer_self / busy if busy else 0.0, "ratio"]
        m[f"{layer}.errors"] = [float(sum(
            v for (lay, _), v in tracer.errors.items() if lay == layer)), "count"]
    for cls in ("DivergenceError", "NoOrderParameterError"):
        m[f"observables.errors.{cls}"] = [
            float(tracer.errors.get(("observables", cls), 0)), "count"]
    m["trace.throughput_rps"] = [len(records) / busy, "1/s"]
    return m


def kind_shares(tracer, records) -> dict:
    """Request time and layer shares per kind of request.

    The kind is the request key without kappa, alpha and max-separation.
    """
    per_request = tracer.request_layers()
    kinds: dict = {}
    for i, (req, _, latency) in enumerate(records):
        kind = "/".join(p for p in req.key.split("/") if not re.fullmatch(r"[kam][\d.]+", p))
        total, layers = kinds.setdefault(kind, [0.0, {}])
        kinds[kind][0] = total + latency
        for layer, t in per_request.get(i, {}).items():
            layers[layer] = layers.get(layer, 0.0) + t
    return {kind: {"time_s": total, "shares": {k: v / total for k, v in layers.items()}}
            for kind, (total, layers) in kinds.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured pass of a workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    environment.pin()
    out_dir = os.path.join(environment.ROOT, ".bench_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    tracer = None
    try:
        for i, req in enumerate(WARM_UP[args.workload]):
            workloads.collect(workloads.execute(
                req, "csv", workloads.output_path(out_dir, -1 - i, "csv")))
        calibration = environment.Calibration()
        for _ in range(20):
            calibration.sample()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        records = timed_loop(args, out_dir, calibration, tracer)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        verdicts = check_all(args.workload, records)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "requests": [[req.key, latency, bad, outcome.error, calibration.around(i)]
                     for i, ((req, _, latency), (outcome, bad))
                     in enumerate(zip(records, verdicts))],
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, records, verdicts)
        result["kinds"] = kind_shares(tracer, records)
        trace_dir = os.path.join(environment.ROOT, ".bench_out", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
