"""The narrowband benchmark sweep against its committed golden rows.

Kernel changes reorder floating-point sums, so rows are compared within
the benchmark's golden tolerance, not byte for byte.  The golden file
belongs to the benchmark (``perfbench/bless.py`` writes it); this test
only reads it.
"""

import math
from dataclasses import fields
from pathlib import Path

from fdsim import harness, link

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "narrowband.csv"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def test_narrowband_sweep_matches_golden_rows():
    spec = harness.SweepSpec(base=link.LinkConfig(signal_bandwidth_hz=0.5e6),
                             axis="ebn0_db", values=(20.0, 90.0),
                             schemes=link.SCHEMES, trials_per_point=13,
                             root_seed=1)
    golden = harness.read_results(GOLDEN).rows
    rows = harness.run_sweep(spec).rows
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        for f in fields(harness.SweepRow):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL), (f.name, got, want)
            else:
                assert a == b, (f.name, got, want)
