"""Output checks for the benchmark's sweeps.

A sweep's rows are checked point by point, where a point is one
``(scheme, axis value)`` pair.  ``check_rows`` returns the failures by
point, so the caller can count the failed trials instead of aborting.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FIELDS = ("scheme", "axis", "axis_value", "sinr_db", "ber", "rate_bps_hz",
          "trials", "sinr_se_db", "ber_se")
FLOAT_FIELDS = ("axis_value", "sinr_db", "ber", "rate_bps_hz", "sinr_se_db",
                "ber_se")

# Golden rows are compared with a tolerance, not byte for byte: moving the
# convolutions to another kernel reorders sums and shifts waveforms at the
# 1e-17 level, which moves the dB figures far less than this.
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12

# Baseband cancellation (+B) against its RF-only scheme.  Where the link is
# noise-limited (narrowband AC at Eb/N0 = 20 dB) the LS estimation noise
# can leave +B a fraction of a dB behind, so everywhere +B may trail by at
# most NOISE_LIMITED_LOSS_DB.  From CANCELLATION_LIMITED_EBN0_DB up, the
# residual self-interference dominates and +B must win by MIN_GAIN_DB.
NOISE_LIMITED_LOSS_DB = 1.0
CANCELLATION_LIMITED_EBN0_DB = 30.0
MIN_GAIN_DB = 10.0


def row_dict(row) -> dict:
    """The result-CSV fields of a ``harness.SweepRow``."""
    return {f: getattr(row, f) for f in FIELDS}


def point(row: dict) -> tuple:
    return (row["scheme"], float(row["axis_value"]))


def check_rows(spec, rows: list[dict], golden: list[dict] | None = None) -> dict:
    """Failures of one sweep's rows, as ``{point: [message, ...]}``.

    Checks that every requested point is present once with the requested
    trial count, that every value is finite, that +B beats its RF-only
    scheme as stated above and, when ``golden`` is given, that each row
    matches its golden row within the golden tolerance.
    """
    failures: dict = {}

    def fail(p, message):
        failures.setdefault(p, []).append(message)

    by_point = {}
    for row in rows:
        p = point(row)
        if p in by_point:
            fail(p, "duplicate row")
        by_point[p] = row
    expected = [(s, float(v)) for s in spec.schemes for v in spec.values]
    for p in set(by_point) - set(expected):
        fail(p, "unrequested point")
    for p in expected:
        row = by_point.get(p)
        if row is None:
            fail(p, "missing row")
            continue
        if row["axis"] != spec.axis:
            fail(p, f"axis {row['axis']!r} != {spec.axis!r}")
        if row["trials"] != spec.trials_per_point:
            fail(p, f"trials {row['trials']} != {spec.trials_per_point}")
        for f in FLOAT_FIELDS:
            if not math.isfinite(row[f]):
                fail(p, f"{f} = {row[f]} is not finite")

    for scheme, value in expected:
        if not scheme.endswith("+B"):
            continue
        with_b, rf_only = by_point.get((scheme, value)), by_point.get((scheme[:-2], value))
        if with_b is None or rf_only is None:
            continue
        gain = with_b["sinr_db"] - rf_only["sinr_db"]
        ebn0 = value if spec.axis == "ebn0_db" else spec.base.ebn0_db
        need = MIN_GAIN_DB if ebn0 >= CANCELLATION_LIMITED_EBN0_DB else -NOISE_LIMITED_LOSS_DB
        if not gain > need:
            fail((scheme, value), f"SINR gain over {scheme[:-2]} is {gain:.3f} dB, "
                                  f"needs > {need} dB")

    for ref in golden or ():
        p = point(ref)
        row = by_point.get(p)
        if row is None:
            fail(p, "golden point missing")
            continue
        for f in FIELDS:
            want, got = ref[f], row[f]
            same = (math.isclose(got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=GOLDEN_ABS_TOL)
                    if f in FLOAT_FIELDS else got == want)
            if not same:
                fail(p, f"{f} = {got!r}, golden {want!r}")
    return failures


def diff_rows(first: list[dict], other: list[dict]) -> dict:
    """Points whose rows differ between two runs of the same sweep."""
    a = {point(r): r for r in first}
    b = {point(r): r for r in other}
    return {p: ["rows differ between repeats"]
            for p in set(a) | set(b) if a.get(p) != b.get(p)}


def golden_path(workload: str):
    return GOLDEN_DIR / f"{workload}.csv"


def load_golden(workload: str) -> list[dict]:
    with open(golden_path(workload), newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != FIELDS:
            raise ValueError(f"{golden_path(workload)}: unexpected header")
        rows = []
        for raw in reader:
            row = dict(raw)
            for f in FLOAT_FIELDS:
                row[f] = float(row[f])
            row["trials"] = int(row["trials"])
            rows.append(row)
    return rows


def write_golden(workload: str, rows: list[dict]) -> None:
    with open(golden_path(workload), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELDS)
        for row in rows:
            writer.writerow([repr(row[f]) if f in FLOAT_FIELDS else row[f]
                             for f in FIELDS])
