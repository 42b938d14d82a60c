#!/usr/bin/env python3
"""Benchmark fdsim sweeps end to end (``--trace 0``) or layer by layer
(``--trace 1``), check every output, and print one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-ebn0 --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh child process (``worker.py``), so the
tracing wrappers of a ``--trace 1`` run never touch untraced numbers.
Metric names and units come from ``BENCHMARK.json``.  The full result,
with run metadata, is also written to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, ROOT, use_checkout_fdsim  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().with_name("worker.py")
#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
#: Every child must end within this many seconds of the run's start.
BUDGET_S = 170.0
#: Units of the measured metrics that BENCHMARK.json does not list; the
#: rest of them are trial times in ms.
UNGATED_UNITS = {"trials_per_s": "1/s", "sweep_wall_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _child(args, deadline) -> dict:
    """Run ``worker.py args`` and parse its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sweep(args, seconds, trace, deadline) -> dict:
    argv = ["sweep", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    if args.trials is not None:
        argv += ["--trials", str(args.trials)]
    return _child(argv, deadline)


def _git_commit():
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> tuple[dict, dict]:
    """Run the children of one benchmark run; return (metrics, record)."""
    deadline = time.monotonic() + BUDGET_S
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        untraced = _sweep(args, args.seconds / 2, 0, deadline)
        traced = _sweep(args, args.seconds / 2, 1, deadline)
        metrics = dict(traced["metrics"])
        metrics["trace_overhead_pct"] = 100.0 * (
            traced["metrics"]["sweep_wall_s"] / untraced["metrics"]["sweep_wall_s"] - 1.0)
        runs = [untraced, traced]
        if traced["rows"] != untraced["rows"]:
            traced["failed"] = traced["attempted"]
            traced["messages"].append("traced rows differ from untraced rows")
    else:
        setups = [_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        untraced = _sweep(args, args.seconds, 0, deadline)
        metrics = dict(untraced["metrics"], setup_s=statistics.median(setups))
        record["setup_s_samples"] = setups
        record["trial_samples"] = untraced.get("trial_samples", 0)
        runs = [untraced]
    record["attempted"] = sum(r["attempted"] for r in runs)
    record["failed"] = sum(r["failed"] for r in runs)
    record["messages"] = [m for r in runs for m in r["messages"]]
    record["sweep_walls_s"] = [r["sweep_walls_s"] for r in runs]
    record["meta"] = dict(untraced["meta"], host=platform.node(),
                          nproc=os.cpu_count(), commit=_git_commit())
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json); a run always completes one sweep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per point, for smoke runs "
                             "(default: the workload's stated size)")
    args = parser.parse_args(argv)
    try:
        use_checkout_fdsim()
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        metrics, record = measure(args)
    except (OSError, WorkerError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record["result"] = result
    record["all_metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    meta = record["meta"]
    print(f"workload {args.workload}  seed {args.seed}  commit {meta['commit']}  "
          f"host {meta['host']}  nproc {meta['nproc']}  python {meta['python']}  "
          f"numpy {meta['numpy']}  scipy {meta['scipy']}  numba {meta['use_numba']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for name in sorted(set(metrics) - set(result["metrics"])):
        print(f"  {name:48s} {metrics[name]:14.6g} "
              f"{UNGATED_UNITS.get(name, 'ms')} (not gated)")
    print(f"  {'failed_frac':48s} {record['failed'] / record['attempted']:14.6g} "
          f"({record['failed']} of {record['attempted']} trials)")
    if "trial_samples" in record:
        print(f"  trial times from {record['trial_samples']} run_trial calls")
    for message in record["messages"]:
        print(f"  check failed: {message}")
    print(f"  full record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
