"""Correctness checks on the program's ``results.csv``.

A row fails when its status is not ``ok``, when its iteration count differs
from the configured budget, when its non-timing columns differ from the
first run of the same seed, or, for a seed with a committed reference, when
a quality metric leaves the reference by more than the stated tolerance.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

#: Columns that legitimately differ between reruns of one seed.
TIMING_COLUMNS = ("wall_time_s", "cpu_time_s")

#: Quality columns compared with the reference: (relative, absolute) tolerance.
#: Loose enough for a reordered floating-point sum, tight enough that a
#: changed algorithm shows.
REFERENCE_TOLERANCE = {
    "loglik_per_obs": (1e-6, 0.0),
    "se": (1e-3, 1e-9),
    "ari": (0.0, 1e-4),
}


def read_results(path: Path) -> list:
    """Rows of a results.csv as dicts of strings."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def row_failures(rows: list, expected_iterations: dict) -> dict:
    """Variant id -> reasons, for rows that fail the status or budget check.

    A configured variant with no row, or a row for an unconfigured variant,
    fails too.
    """
    out: dict = {}
    seen = set()
    for row in rows:
        vid = row["variant"]
        seen.add(vid)
        reasons = []
        if row["status"] != "ok":
            reasons.append(f"status {row['status']}")
        want = expected_iterations.get(vid)
        if want is None:
            reasons.append("unexpected variant")
        elif int(row["iterations"]) != want:
            reasons.append(f"iterations {row['iterations']} != {want}")
        if reasons:
            out[vid] = reasons
    for vid in expected_iterations.keys() - seen:
        out[vid] = ["missing row"]
    return out


def _key(row: dict) -> tuple:
    return row["variant"], row["rep"]


def mismatches(rows: list, baseline: list) -> dict:
    """Variant id -> reasons, for rows whose non-timing columns differ from
    the baseline run of the same seed."""
    base = {_key(r): r for r in baseline}
    out: dict = {}
    for row in rows:
        ref = base.get(_key(row))
        if ref is None:
            out[row["variant"]] = ["row absent from the baseline run"]
            continue
        cols = [c for c in row if c not in TIMING_COLUMNS and row[c] != ref.get(c)]
        if cols:
            out[row["variant"]] = [f"{c} differs from the baseline run" for c in cols]
    return out


def _close(value: float, ref: float | None, rel: float, abs_: float) -> bool:
    if ref is None:
        return math.isnan(value)
    return abs(value - ref) <= abs_ + rel * abs(ref)


def reference_failures(rows: list, reference: dict) -> dict:
    """Variant id -> reasons, for rows whose quality metrics leave the
    reference (variant id -> column -> value) by more than the tolerance."""
    out: dict = {}
    for row in rows:
        ref = reference.get(row["variant"])
        if ref is None:
            out[row["variant"]] = ["variant absent from the reference"]
            continue
        reasons = []
        for col, (rel, abs_) in REFERENCE_TOLERANCE.items():
            if not _close(float(row[col]), ref[col], rel, abs_):
                reasons.append(f"{col} {row[col]} != reference {ref[col]}")
        if reasons:
            out[row["variant"]] = reasons
    return out


def reference_of(rows: list) -> dict:
    """The reference entry for one run: variant id -> quality columns, with
    None where the program reports NaN (k-means has no log-likelihood)."""
    return {
        r["variant"]: {
            c: None if math.isnan(float(r[c])) else float(r[c]) for c in REFERENCE_TOLERANCE
        }
        for r in rows
    }
