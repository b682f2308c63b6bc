"""Record the reference output of every catalogue request.

Usage (from the repository root; the ring heat capacity at N = 1024 needs
about 1 GB and the whole run takes 15-20 minutes on one core):

    python3 bench/record_reference.py [--workload NAME ...] [--command NAME ...]

Writes ``bench/reference/<workload>.json``.  Bulk correlations are run once
at the largest max-separation; the smaller ones are the leading rows of that
table, since every separation is computed independently.  ``--command``
re-records only those commands and keeps the other entries of the file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import environment  # noqa: E402

environment.pin()

import reference  # noqa: E402
import workloads  # noqa: E402


def _record(workload: str, out_dir: str, tolerances: dict,
            commands: list[str] | None) -> dict:
    cat = workloads.catalogue(workload)
    entries = reference.load_reference(workload) if commands else {}
    for i, req in enumerate(cat):
        if commands and req.command not in commands:
            continue
        if req.command == "correlations" and req.workload == "bulk-sweep" \
                and req.max_separation != workloads.BULK_MAX_SEPARATION:
            continue
        t0 = time.perf_counter()
        handle = workloads.execute(req, "csv", workloads.output_path(out_dir, i, "csv"))
        elapsed = time.perf_counter() - t0
        outcome = workloads.collect(handle)
        if outcome.failure is not None:
            raise RuntimeError(f"{req.key}: {outcome.failure}")
        if outcome.error is not None:
            entry = {"error": outcome.error}
        else:
            entry = {"table": reference.fingerprint(outcome.table, tolerances)}
        entries[req.key] = entry
        if req.command == "correlations" and req.workload == "bulk-sweep":
            for m in range(workloads.BULK_MAX_SEPARATION):
                sub = workloads.Request(**{**req.__dict__, "max_separation": m})
                if outcome.error is not None:
                    entries[sub.key] = entry
                else:
                    rows = {name: values[: m + 1] for name, values in outcome.table.items()}
                    entries[sub.key] = {"table": reference.fingerprint(rows, tolerances)}
        print(f"{workload} {req.key}: {elapsed:.2f} s "
              f"{entry.get('error', 'ok')}", flush=True)
    missing = {r.key for r in cat} - set(entries)
    if missing:
        raise RuntimeError(f"no reference for {sorted(missing)[:5]}")
    return entries


def _dumps(doc: dict) -> str:
    """One entry per line, so a re-record shows as a readable diff."""
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}"
             for key, value in sorted(doc["entries"].items())]
    return ('{"machine": ' + json.dumps(doc["machine"], sort_keys=True)
            + ',\n"entries": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--command", action="append")
    args = parser.parse_args()
    tolerances = reference.load_tolerances()
    out_dir = os.path.join(environment.ROOT, ".bench_out", "record")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for workload in args.workload or workloads.WORKLOADS:
            entries = _record(workload, out_dir, tolerances, args.command)
            doc = {"machine": environment.machine_record(), "entries": entries}
            path = os.path.join(reference.REFERENCE_DIR, f"{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_dumps(doc))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
