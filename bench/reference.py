"""Compact fingerprints of request outputs and the check against them.

The reference keeps, per output column, the row count, the positions of NaN
entries and one signed random projection per block of ``BLOCK`` rows.  The
weights have magnitudes in [0.5, 1], and a block passes when its projection
moves by no more than sum_i |w_i| (atol + rtol |x_i|) over the block, the
bound the per-element tolerance implies (taken at the output's values, which
differ from the reference's by at most one tolerance).  So any output within
tolerance element by element passes, and a single value that moves by more
than 2 * BLOCK times the largest tolerance in its block fails, however long
the column.  The tolerance classes live beside the reference data in
``reference/tolerances.json``.

Dispersion and modes tables are compared as sets of modes per momentum (see
``canonical``): the order of modes and their shapes inside a degenerate
group depend on roundoff, not on the physics.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
BLOCK = 8
_EPS = np.finfo(float).eps
# frequencies closer than this (in omega_I) form one degenerate group
_DEGENERATE = 1e-6
_BASIS_DEPENDENT = ("theta_xy[rad]", "collectivity[1]")
BLANK = -1.0  # stands for a basis-dependent value; real ones are >= 0


def load_tolerances() -> dict:
    with open(os.path.join(REFERENCE_DIR, "tolerances.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def _tolerance(column: str, tolerances: dict) -> tuple[float, float]:
    cls = tolerances["columns"].get(column.split("[")[0])
    if cls is None:
        raise KeyError(f"column {column!r} has no tolerance class")
    spec = tolerances["classes"][cls]
    return spec["rtol"], spec["atol"]


def _weights(n: int) -> np.ndarray:
    rng = np.random.default_rng(7919)
    return rng.choice((-1.0, 1.0), n) * rng.uniform(0.5, 1.0, n)


def _digest(items) -> str:
    return hashlib.sha1("\x1f".join(map(str, items)).encode()).hexdigest()[:16]


def _blocks(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Weights and values (NaN as 0), zero-padded to whole blocks of rows."""
    x = np.nan_to_num(np.asarray(values, dtype=float), nan=0.0)
    pad = -len(x) % BLOCK
    w = np.concatenate([_weights(len(x)), np.zeros(pad)]).reshape(-1, BLOCK)
    return w, np.concatenate([x, np.zeros(pad)]).reshape(-1, BLOCK)


def fingerprint_column(values: list) -> dict:
    w, x = _blocks(values)
    return {"n": len(values),
            "nan": _digest(np.flatnonzero(np.isnan(np.asarray(values, dtype=float))).tolist()),
            "proj": (w * x).sum(axis=1).tolist()}


def _moved_blocks(values: list, want: list, rtol: float, atol: float) -> list[str]:
    w, x = _blocks(values)
    delta = np.abs((w * x).sum(axis=1) - np.asarray(want))
    # the rounding slack covers summation-order noise of identical values
    bound = (np.abs(w) * (atol + rtol * np.abs(x))).sum(axis=1) \
        + 4 * BLOCK * _EPS * np.abs(w * x).sum(axis=1)
    bad = np.flatnonzero(~(delta <= bound))
    return [f"rows {b * BLOCK}-{min(len(values), (b + 1) * BLOCK) - 1} moved "
            f"{delta[b]:.3e} > bound {bound[b]:.3e}" for b in bad[:3]]


def _degenerate_groups(omega: list, rows: list[int]) -> list[list[int]]:
    """Runs of two or more rows (sorted by omega) with equal frequencies."""
    groups = [[rows[0]]] if rows else []
    for a, b in zip(rows, rows[1:]):
        if abs(omega[a] - omega[b]) <= _DEGENERATE * max(1.0, abs(omega[a])):
            groups[-1].append(b)
        else:
            groups.append([b])
    return [g for g in groups if len(g) > 1]


def _blank_shapes(table: dict, groups: list[list[int]]) -> None:
    """Blank the mode shapes inside degenerate groups.

    Inside a degenerate group the eigensolver may return any rotation of
    the modes, which changes their mixing angle and collectivity (and, for
    the y/z pair at alpha = 1, whether the angle is NaN).
    """
    for group in groups:
        for column in _BASIS_DEPENDENT:
            for i in group:
                table[column][i] = BLANK


def _merge_branches(branch: list, groups: list[list[int]]) -> list:
    """Branch labels, each replaced by the smallest label it is merged with.

    Branches are continued in k, from the first momentum on, by eigenvector
    overlap.  Inside a degenerate group the eigenvectors are any rotation of
    each other, so which of the group's labels goes on where is decided by
    roundoff, from that momentum on.  The labels of a group are therefore
    merged from the group's momentum on (rows come in blocks of six per
    momentum, in grid order); every other label must match.
    """
    root: dict = {}

    def find(b):
        while root.get(b, b) != b:
            b = root[b]
        return b

    out: list = []
    pending = iter(groups)
    group = next(pending, None)
    for start in range(0, len(branch), 6):
        while group is not None and group[0] < start + 6:
            for i in group[1:]:
                a, b = sorted((find(branch[group[0]]), find(branch[i])))
                if a != b:
                    root[b] = a
            group = next(pending, None)
        out += [find(b) for b in branch[start:start + 6]]
    return out


def canonical(table: dict) -> dict:
    """The table as the reference compares it.

    Dispersion: rows of one momentum are sorted by frequency, and branch
    labels that share a degenerate group are merged (``_merge_branches``).
    Modes: phonon rows already come sorted by frequency.  In both, the mode
    shapes of degenerate groups are blanked.
    """
    if "branch" in table:
        omega = table["omega[omega_I]"]
        order: list[int] = []
        for start in range(0, len(omega), 6):
            order += sorted(range(start, min(start + 6, len(omega))), key=lambda i: omega[i])
        out = {name: [values[i] for i in order] for name, values in table.items()}
        groups = [g for start in range(0, len(order), 6)
                  for g in _degenerate_groups(out["omega[omega_I]"],
                                              list(range(start, min(start + 6, len(order)))))]
        _blank_shapes(out, groups)
        out["branch"] = _merge_branches(out["branch"], groups)
        return out
    if "kind" in table:
        out = {name: list(values) for name, values in table.items()}
        phonons = [i for i, kind in enumerate(out["kind"]) if kind == "phonon"]
        _blank_shapes(out, _degenerate_groups(out["omega[omega_I]"], phonons))
        return out
    return table


def _is_text(values: list) -> bool:
    return any(isinstance(v, str) for v in values)


def fingerprint(table: dict, tolerances: dict) -> dict:
    out = {}
    for column, values in canonical(table).items():
        if _is_text(values):
            out[column] = {"n": len(values), "text": _digest(values)}
        else:
            _tolerance(column, tolerances)  # every numeric column needs a class
            out[column] = fingerprint_column(values)
    return out


def compare_table(table: dict, ref: dict, tolerances: dict) -> list[str]:
    """Mismatches of an output table against its reference fingerprint."""
    table = canonical(table)
    if set(table) != set(ref):
        return [f"columns {sorted(table)} != reference {sorted(ref)}"]
    problems = []
    for column, values in table.items():
        want = ref[column]
        if len(values) != want["n"]:
            problems.append(f"{column}: {len(values)} rows, reference {want['n']}")
        elif "text" in want or _is_text(values):
            if want.get("text") != _digest(values):
                problems.append(f"{column}: text differs")
        else:
            if fingerprint_column(values)["nan"] != want["nan"]:
                problems.append(f"{column}: NaN positions differ")
            problems += [f"{column}: {p}" for p in _moved_blocks(
                values, want["proj"], *_tolerance(column, tolerances))]
    return problems


def check(outcome, ref_entry: dict | None, tolerances: dict) -> str | None:
    """None when the outcome matches the reference, else the reason."""
    if ref_entry is None:
        return "no reference recorded"
    if outcome.failure is not None:
        return outcome.failure
    if "error" in ref_entry:
        if outcome.error == ref_entry["error"]:
            return None
        return f"expected {ref_entry['error']}, got {outcome.error or 'a table'}"
    if outcome.error is not None:
        return f"unexpected {outcome.error}"
    problems = compare_table(outcome.table, ref_entry["table"], tolerances)
    return "; ".join(problems) if problems else None
