"""Tests of the benchmark itself (run with ``python3 -m pytest bench/tests``).

They sit outside ``tests/`` so the package's own suite does not collect them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def _keys(workload: str, seed: int, n_rounds: int = 2) -> list[tuple[str, str]]:
    stream = workloads.rounds(workload, seed)
    return [(r.key, fmt) for _ in range(n_rounds) for r, fmt in next(stream)]


def _run_and_check(req: workloads.Request, tmp_path, fmt: str = "csv"):
    handle = workloads.execute(req, fmt, str(tmp_path / f"out.{fmt}"))
    outcome = workloads.collect(handle)
    ref = reference.load_reference(req.workload)[req.key]
    return outcome, ref


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert _keys(workload, 7) == _keys(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_requests(workload):
    assert _keys(workload, 7) != _keys(workload, 8)


def test_every_catalogue_request_has_a_reference():
    for workload in workloads.WORKLOADS:
        refs = reference.load_reference(workload)
        assert {r.key for r in workloads.catalogue(workload)} == set(refs)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_reference_output_passes(tmp_path, fmt):
    req = workloads.Request("ring-sweep", "dispersion", 0.55, 1.0, n_ions=64)
    outcome, ref = _run_and_check(req, tmp_path, fmt)
    assert reference.check(outcome, ref, reference.load_tolerances()) is None


def test_perturbed_value_fails(tmp_path):
    req = workloads.Request("ring-sweep", "heat-capacity", 0.55, 1.0, n_ions=64)
    outcome, ref = _run_and_check(req, tmp_path)
    values = outcome.table["c[k_B]"]
    values[17] *= 1.0 + 1e-4
    assert reference.check(outcome, ref, reference.load_tolerances()) is not None


def test_swapped_branch_fails(tmp_path):
    req = workloads.Request("ring-sweep", "dispersion", 0.55, 1.0, n_ions=64)
    outcome, ref = _run_and_check(req, tmp_path)
    omega = outcome.table["omega[omega_I]"]
    a, b = 6 * 5, 6 * 5 + 4  # branches 0 and 4 at the sixth momentum
    omega[a], omega[b] = omega[b], omega[a]
    assert abs(omega[a] - omega[b]) > 0.1
    assert reference.check(outcome, ref, reference.load_tolerances()) is not None


def test_one_value_of_a_long_column_moved_by_100_tolerances_fails(tmp_path):
    req = workloads.Request("ring-sweep", "dispersion", 0.55, 1.0, n_ions=1024)
    outcome, ref = _run_and_check(req, tmp_path)
    tol = reference.load_tolerances()
    spec = tol["classes"][tol["columns"]["omega"]]
    omega = outcome.table["omega[omega_I]"]
    assert len(omega) == 3072
    zero = outcome.table["is_zero_mode"].index(1.0)
    for row in (1001, zero):
        moved = list(omega)
        moved[row] += 100 * (spec["atol"] + spec["rtol"] * abs(omega[row]))
        table = dict(outcome.table, **{"omega[omega_I]": moved})
        assert reference.check(workloads.Outcome(table=table), ref, tol) is not None


def test_swapped_branch_labels_fail(tmp_path):
    # at alpha = 1.5 the zone-boundary pairs {0, 1}, {2, 3}, {4, 5} are the
    # only degenerate groups, so a label moved between pairs must show
    req = workloads.Request("ring-sweep", "dispersion", 0.55, 1.5, n_ions=64)
    outcome, ref = _run_and_check(req, tmp_path)
    branch = outcome.table["branch"]
    a, b = 6 * 10 + branch[60:66].index(0.0), 6 * 10 + branch[60:66].index(4.0)
    branch[a], branch[b] = branch[b], branch[a]
    assert reference.check(outcome, ref, reference.load_tolerances()) is not None


def test_fields_per_correlator_counts_only_cli_correlators():
    from tracing import Tracer

    tracer = Tracer()
    # cli.run -> spatial_correlator -> 2 fields; ginzburg -> spatial_correlator -> 1 field
    tracer.spans = [
        ["cli.run", 0, 9, -1, 0],
        ["observables.spatial_correlator", 1, 4, 0, 0],
        ["observables.PhononField", 1, 2, 1, 0],
        ["observables.PhononField", 2, 3, 1, 0],
        ["observables.ginzburg_parameter", 5, 8, 0, 0],
        ["observables.spatial_correlator", 5, 7, 4, 0],
        ["observables.PhononField", 5, 6, 5, 0],
    ]
    assert tracer.fields_per_correlator() == 2.0


def test_expected_divergence_is_a_success(tmp_path):
    req = workloads.Request("bulk-sweep", "correlations", 0.55, 1.0, k_points=64,
                            component="x", max_separation=0)
    outcome, ref = _run_and_check(req, tmp_path)
    assert outcome.error == "DivergenceError" and ref == {"error": "DivergenceError"}
    assert reference.check(outcome, ref, reference.load_tolerances()) is None


def test_unexpected_error_or_table_fails():
    tol = reference.load_tolerances()
    assert reference.check(workloads.Outcome(error="BracketingError"),
                           {"error": "DivergenceError"}, tol) is not None
    assert reference.check(workloads.Outcome(table={"T[omega_I]": [1.0]}),
                           {"error": "DivergenceError"}, tol) is not None
    assert reference.check(workloads.Outcome(failure="ValueError: boom"),
                           {"error": "DivergenceError"}, tol) is not None


def _bench(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "full-space",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    stdout, result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        for name in list(want) + ["failed_frac"]:
            assert f"# {name} " in stdout
