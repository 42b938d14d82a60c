#!/usr/bin/env python3
"""Rewrite the golden rows in ``perfbench/golden/`` from the checkout.

Each workload is swept once at the default seed.  Re-bless only for a
change that is meant to move results, and say so where the change is
described.  Run from the repository root::

    python3 perfbench/bless.py [WORKLOAD ...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, use_checkout_fdsim, workloads  # noqa: E402


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    use_checkout_fdsim()
    from fdsim import harness

    for name in names:
        spec = workloads.build_spec(name, workloads.DEFAULT_SEED)
        rows = [checks.row_dict(r) for r in harness.run_sweep(spec).rows]
        failures = checks.check_rows(spec, rows)
        if failures:
            print(f"{name}: not blessed, rows fail the checks: {failures}")
            return 1
        checks.write_golden(name, rows)
        print(f"{name}: wrote {len(rows)} rows to {checks.golden_path(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
