"""The benchmark's band commands against their recorded references.

``CellCouplings.bands`` solves the screw blocks in closed form, not by the
6 x 6 ``eigh`` the references were recorded with, so every frequency and
amplitude moves in its last bits, and inside a degenerate group the modes
may come out in another basis.  Here every ring-sweep and bulk-sweep
``dispersion`` request, and every ring-sweep request of the commands that
sum over the bands (``correlations``, ``energy-reduction`` and
``heat-capacity``), goes through ``bench/workloads.py`` once, in CSV, and is
checked by ``bench/reference.py`` against ``bench/reference/<workload>.json``
and ``tolerances.json``.  The benchmark's files are only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload, commands, count", [
    ("ring-sweep", ("dispersion",), 42),
    ("bulk-sweep", ("dispersion",), 28),
    ("ring-sweep", ("correlations", "energy-reduction", "heat-capacity"), 126),
], ids=["ring-dispersion", "bulk-dispersion", "ring-band-sums"])
def test_every_band_request_matches_its_reference(workload, commands, count, tmp_path):
    refs = reference.load_reference(workload)
    tolerances = reference.load_tolerances()
    requests = [req for req in workloads.catalogue(workload) if req.command in commands]
    assert len(requests) == count
    failures = {}
    for index, req in enumerate(requests):
        path = workloads.output_path(str(tmp_path), index, "csv")
        outcome = workloads.collect(workloads.execute(req, "csv", path))
        problem = reference.check(outcome, refs.get(req.key), tolerances)
        if problem is not None:
            failures[req.key] = problem
    assert not failures
