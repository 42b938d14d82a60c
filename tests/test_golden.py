"""The benchmark's sweeps against their committed golden rows.

Kernel changes reorder floating-point sums, so rows are compared within
the benchmark's golden tolerance, not byte for byte.  The golden files
belong to the benchmark (``perfbench/bless.py`` writes them, from the
workloads in ``perfbench/workloads.py``, whose specs this test builds);
this test only reads them.
"""

import importlib.util
import math
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from fdsim import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden"


def _load(name: str):
    """perfbench's module ``name``.  perfbench is a directory of scripts,
    not a package, so the module is loaded from its path (and registered,
    as the workloads' dataclass needs)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
# the tolerance the benchmark compares its rows with
checks = _load("checks")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_sweep_matches_golden_rows(name):
    spec = workloads.build_spec(name, workloads.DEFAULT_SEED)
    golden = harness.read_results(GOLDEN / f"{name}.csv").rows
    rows = harness.run_sweep(spec).rows
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        for f in fields(harness.SweepRow):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=checks.GOLDEN_REL_TOL,
                                    abs_tol=checks.GOLDEN_ABS_TOL), (f.name, got, want)
            else:
                assert a == b, (f.name, got, want)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda p: p.stem)
def test_result_io_reproduces_the_golden_csv(path, tmp_path):
    # the result schema is read from SweepRow's fields; a golden file read
    # and written back must come out byte for byte
    out = tmp_path / path.name
    harness.write_results(harness.read_results(path), out)
    assert out.read_bytes() == path.read_bytes()
