"""Print a digest of each benchmark workload's sweep rows.

For every workload in ``perfbench/workloads.py`` and root seeds 1 and 7,
prints the SHA-256 of ``repr(harness.run_sweep(build_spec(w, s)).rows)``.
Two commits whose output is equal give byte-identical rows, at any BLAS
thread count:

    PYTHONPATH=src python tests/rows_digest.py

``tests/rows_digests.txt`` holds the current rows' output, and
``ci/steps.sh digests`` checks each run against it; a change that moves
a row updates that file on purpose.

``perfbench/workloads.py`` is loaded from its path and only read, as
``tests/test_golden.py`` does.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from fdsim import harness

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = (1, 7)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            rows = harness.run_sweep(workloads.build_spec(name, seed)).rows
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            print(f"{name} seed={seed} {digest}")


if __name__ == "__main__":
    main()
