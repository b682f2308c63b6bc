"""The benchmark's susceptibility requests against their recorded references.

``susceptibility`` sums over distinct poles, in a different order and with
other divisions than the per-term sum the references were recorded with.
Above the band chi is nearly real and negative, so a sign flip of its tiny
imaginary part would move the phase by 2 pi.  Here every ring-sweep and
bulk-sweep susceptibility request goes through ``bench/workloads.py`` once,
in CSV, and is checked by ``bench/reference.py`` against
``bench/reference/<workload>.json`` and ``tolerances.json`` (chi in the
``response`` class, the phase in the ``angle`` class).  The benchmark's
files are only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload, count", [("ring-sweep", 42), ("bulk-sweep", 28)])
def test_every_susceptibility_request_matches_its_reference(workload, count, tmp_path):
    refs = reference.load_reference(workload)
    tolerances = reference.load_tolerances()
    requests = [req for req in workloads.catalogue(workload)
                if req.command == "susceptibility"]
    assert len(requests) == count
    failures = {}
    for index, req in enumerate(requests):
        path = workloads.output_path(str(tmp_path), index, "csv")
        outcome = workloads.collect(workloads.execute(req, "csv", path))
        problem = reference.check(outcome, refs.get(req.key), tolerances)
        if problem is not None:
            failures[req.key] = problem
    assert not failures
