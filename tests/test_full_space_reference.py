"""The full-space benchmark catalogue against its recorded reference.

The rest of the suite checks the full-space library path (``build_hessian``,
``build_quadratic_form``, ``symplectic_diagonalize`` on one dense 3N block)
on a few configs; the benchmark runs it over a whole catalogue.  Here every
full-space request goes through ``bench/workloads.py`` and is checked by
``bench/reference.py`` against ``bench/reference/full-space.json`` and
``tolerances.json``.  The benchmark's files are only read.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_every_full_space_request_matches_its_reference():
    refs = reference.load_reference("full-space")
    tolerances = reference.load_tolerances()
    requests = workloads.catalogue("full-space")
    assert len(requests) == 84
    failures = {}
    for req in requests:
        outcome = workloads.collect(workloads.execute(req, "csv", ""))
        problem = reference.check(outcome, refs.get(req.key), tolerances)
        if problem is not None:
            failures[req.key] = problem
    assert not failures
