"""The ionphonon benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload ring-sweep --seed 1 --seconds 28 --trace 0

The seed draws rounds of requests from the workload's catalogue (see
``workloads.py``).  The same requests run in ``PASSES`` passes, each in a
fresh interpreter (``worker.py``), one after the other; each runs the
whole rounds that fit in ``--seconds / PASSES`` at the speed of the machine
the benchmark was written on (``workloads.rounds_per_pass``).  Each pass is
a fresh process, so no pass can reuse anything an earlier one computed.

The machine this was written on is a shared VM whose speed drifts by 20-50 %
over tens of seconds to minutes, which no run length averages away.  So
each request's wall time is scaled by the machine's speed around it,
measured with a calibration sample taken after every request (outside its
latency): adjusted = wall * CALIBRATION_REF_S / local sample time.  A
request's latency is the faster of its adjusted passes; ``setup_s`` is
scaled the same way, by samples each fresh interpreter takes right after
its import.  The calibration does not touch the package, so a change to the
package moves adjusted times as it would move wall times on a machine of
constant speed -- except for what runs beside the sample or right before
it: work a change moves into background threads of the same process, and
what a request leaves behind (evicted caches, memory handed back to the
operating system), slow the calibration too and are partly hidden.  The
unadjusted figures are printed on a ``#`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one more
pass of the same requests with spans around every layer's public functions,
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it start with ``#``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import environment  # noqa: E402
import workloads  # noqa: E402

PASSES = 2
SETUP_SAMPLES = 5
# latencies are scaled to a machine on which one calibration sample (see
# environment.Calibration) takes this long; about its fastest time where the
# benchmark was written, so adjusted and wall seconds are close there
CALIBRATION_REF_S = 4.0e-4
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# a fresh interpreter times the package import, then takes calibration
# samples (see environment.Calibration); the first ten warm the sample's
# own code up, the median of the other thirty gives the machine's speed
_SETUP_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import ionphonon.cli; "
    "t = time.perf_counter() - t0; sys.path.insert(0, {bench!r}); import environment; "
    "c = environment.Calibration(); [c.sample() for _ in range(40)]; "
    "print(t, sorted(c.samples[10:])[15])"
).format(bench=os.path.dirname(os.path.abspath(__file__)))
E2E_UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "peak_rss_mb": "MB"}


def measure_setup() -> tuple[list[float], list[float], list[float]]:
    """Times of fresh interpreters from start to ionphonon.cli imported.

    Returns the adjusted times, the adjusted import alone and the wall
    times.  Each time is scaled by the calibration samples its interpreter
    took right after the import, like the request latencies.
    """
    walls, imports, raw = [], [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE],
                              env=environment.child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        if i:  # the first one may compile bytecode
            import_s, sample_s = map(float, proc.stdout.split())
            walls.append(wall * CALIBRATION_REF_S / sample_s)
            imports.append(import_s * CALIBRATION_REF_S / sample_s)
            raw.append(wall)
    return walls, imports, raw


def run_pass(args, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
         *extra], capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    parser = argparse.ArgumentParser(description="ionphonon benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    environment.pin()  # fails here when the checkout has no package
    print(f"# machine {json.dumps(environment.machine_record(), sort_keys=True)}")
    walls, imports, raw_walls = measure_setup()
    rounds = str(workloads.rounds_per_pass(args.workload, args.seconds / PASSES))
    passes = [run_pass(args, "--rounds", rounds) for _ in range(PASSES)]
    keys = [r[0] for r in passes[0]["requests"]]
    if any([r[0] for r in p["requests"]] != keys for p in passes):
        raise RuntimeError("passes ran different requests")

    fastest = [min(p["requests"][i][1] * CALIBRATION_REF_S / p["requests"][i][4]
                   for p in passes) for i in range(len(keys))]
    fastest_wall = [min(p["requests"][i][1] for p in passes) for i in range(len(keys))]
    attempted = sum(len(p["requests"]) for p in passes)
    failures = [(r[0], r[2]) for p in passes for r in p["requests"] if r[2] is not None]
    expected = sum(1 for r in passes[0]["requests"] if r[2] is None and r[3])
    print(f"# workload {args.workload} seed {args.seed}: {len(keys)} requests in "
          f"{rounds} rounds, {expected} of them expected PhysicsErrors; {PASSES} passes of "
          + ", ".join(f"{p['elapsed_s']:.2f} s ({len(keys) / p['elapsed_s']:.4g} req/s wall)"
                      for p in passes))
    tail_value, tail_pct = tail(fastest)
    n = len(fastest)
    e2e = {
        "setup_s": (statistics.median(walls),
                    f"median of {len(walls)} fresh interpreters importing ionphonon.cli, "
                    "each scaled by its calibration samples"),
        "throughput_rps": (n / sum(fastest),
                           f"{n} requests over the sum of their latencies"),
        "latency_p50_s": (statistics.median(fastest), f"n={n}"),
        "latency_tail_s": (tail_value, f"p{tail_pct:.1f}, n={n}, 10 beyond"),
        "failed_frac": (len(failures) / attempted, f"{len(failures)}/{attempted}"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes),
                        "largest peak resident set of the passes"),
    }
    units = dict(E2E_UNITS, failed_frac="1")
    for name, (value, note) in e2e.items():
        print(f"# {name:<16} {value:>12.6g} {units[name]:<5} {note}")
    wall_tail, _ = tail(fastest_wall)
    print(f"# unadjusted wall time: setup_s {statistics.median(raw_walls):.6g}, "
          f"throughput_rps {n / sum(fastest_wall):.6g}, "
          f"latency_p50_s {statistics.median(fastest_wall):.6g}, "
          f"latency_tail_s {wall_tail:.6g}; median calibration sample "
          f"{statistics.median(r[4] for p in passes for r in p['requests']) * 1e3:.4f} ms")

    if args.trace:
        traced = run_pass(args, "--rounds", rounds, "--trace")
        failures += [(r[0], r[2]) for r in traced["requests"] if r[2] is not None]
        attempted += len(traced["requests"])
        metrics = dict(traced["layers"])
        metrics["import.ionphonon_s"] = [statistics.median(imports), "s"]
        untraced = statistics.median(len(keys) / sum(r[1] for r in p["requests"])
                                     for p in passes)
        metrics["trace.overhead_rps"] = [metrics["trace.throughput_rps"][0] - untraced,
                                         "1/s"]
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"# {name:<52} {value:>14.6g} {unit}")
        for kind, info in sorted(traced["kinds"].items(), key=lambda kv: -kv[1]["time_s"]):
            top = sorted(info["shares"].items(), key=lambda kv: -kv[1])[:3]
            print(f"# request kind {kind:<40} {info['time_s']:8.3f} s  "
                  + ", ".join(f"{layer} {share:.1%}" for layer, share in top))
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        out = {k: {"value": e2e[k][0], "unit": u} for k, u in E2E_UNITS.items()}
    for key, why in failures[:20]:
        print(f"# FAILED {key}: {why[:300]}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
