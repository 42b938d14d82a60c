"""The benchmark's sweeps against their committed golden rows.

Kernel changes reorder floating-point sums, so rows are compared within
the benchmark's golden tolerance, not byte for byte.  The golden files
belong to the benchmark (``perfbench/bless.py`` writes them, from the
workloads in ``perfbench/workloads.py``, which the specs below mirror);
this test only reads them.
"""

import math
from dataclasses import fields
from pathlib import Path

import pytest

from fdsim import harness, link

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: workload name -> (base config overrides, axis, values, trials per point)
WORKLOADS = {
    "sweep-ebn0": ({}, "ebn0_db", (0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 90.0), 50),
    "narrowband": ({"signal_bandwidth_hz": 0.5e6}, "ebn0_db", (20.0, 90.0), 13),
    "sweep-bandwidth": ({}, "bandwidth_hz", (10e6, 5e6, 4e6, 2e6, 1e6), 10),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_sweep_matches_golden_rows(name):
    base, axis, values, trials = WORKLOADS[name]
    spec = harness.SweepSpec(base=link.LinkConfig(**base), axis=axis, values=values,
                             schemes=link.SCHEMES, trials_per_point=trials,
                             root_seed=1)
    golden = harness.read_results(GOLDEN / f"{name}.csv").rows
    rows = harness.run_sweep(spec).rows
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        for f in fields(harness.SweepRow):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL), (f.name, got, want)
            else:
                assert a == b, (f.name, got, want)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda p: p.stem)
def test_result_io_reproduces_the_golden_csv(path, tmp_path):
    # the result schema is read from SweepRow's fields; a golden file read
    # and written back must come out byte for byte
    out = tmp_path / path.name
    harness.write_results(harness.read_results(path), out)
    assert out.read_bytes() == path.read_bytes()
