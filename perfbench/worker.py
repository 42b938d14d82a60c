"""One measuring process of the benchmark; ``run.py`` starts it.

``worker.py setup`` times a fresh process's set-up: importing fdsim and
building the first self-interference channel of PS and AC (the profile
calibration every ``fdsim run`` pays).  Nothing but the standard library
is imported before the clock starts.

``worker.py sweep ...`` runs one workload's sweep back to back for the
given seconds and prints one JSON line.  Untraced, the only instrument is
a timer around ``harness.run_trial``; with ``--trace 1`` every layer in
``tracing.TRACED`` is wrapped instead.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, SRC, use_checkout_fdsim  # noqa: E402  (stdlib only)

RF_SCHEMES = ("PS", "AC")
#: Tolerance of the check that self times add up to the traced wall time.
SELF_TIME_TOLERANCE = 0.01


def _require_checkout_fdsim():
    import fdsim

    if Path(fdsim.__file__).resolve().parent != (SRC / "fdsim").resolve():
        raise ImportError(f"fdsim imported from {fdsim.__file__}, not {SRC}")


def measure_setup() -> float:
    use_checkout_fdsim()
    start = time.perf_counter()
    from fdsim import link

    for scheme in RF_SCHEMES:
        link.self_interference_channel(link.LinkConfig(scheme=scheme))
    elapsed = time.perf_counter() - start
    _require_checkout_fdsim()
    return elapsed


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _trial_timer(harness, times):
    """Wrap ``harness.run_trial`` to append (config, seconds) per call."""
    run_trial = harness.run_trial

    def timed(config, *args, **kwargs):
        start = time.perf_counter()
        try:
            return run_trial(config, *args, **kwargs)
        finally:
            times.append((config, time.perf_counter() - start))

    harness.run_trial = timed


def _latency_metrics(times) -> dict:
    """Per scheme: the median trial time, and the 90th percentile of the
    trial times at each sweep point, averaged over the points.

    The 90th percentile is taken point by point because the trials of one
    point do the same work, while the trials of different points (other
    sps on a bandwidth sweep) form separate clusters of run time.
    """
    by_point: dict = {}
    for config, t in times:
        by_point.setdefault(config, []).append(t * 1e3)
    out = {}
    for scheme in sorted({c.scheme for c in by_point}):
        label = scheme.replace("+", "_")
        points = [ms for c, ms in by_point.items() if c.scheme == scheme]
        out[f"trial_ms_p50.{label}"] = statistics.median(
            t for ms in points for t in ms)
        out[f"trial_ms_p90.{label}"] = statistics.fmean(
            _percentile(ms, 90) for ms in points)
    return out


def _layer_metrics(setup, timed) -> dict:
    """Per-layer metrics from the span summaries of set-up and timed sweeps."""
    from perfbench import tracing

    trials = timed[tracing.TRIAL_SPAN]["calls"]
    out = {}
    for mod_name, fn_names in tracing.TRACED.items():
        for fn_name in fn_names:
            name = tracing.span_name(mod_name, fn_name)
            st = timed.get(name, {"calls": 0, "self_s": 0.0})
            out[f"{name}.calls"] = st["calls"] / trials
            out[f"{name}.self_ms"] = st["self_s"] * 1e3 / trials
    for name in ("channel.synthesize_profile", "channel.derive_baseband_channel"):
        st = setup.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.self_ms"] = st["self_s"] * 1e3
    fir = timed.get("kernels.fir_convolve", {"keys": []})["keys"]
    out["kernels.fir_convolve.macs"] = sum(nx * nh for nx, nh in fir) / trials
    out["kernels.fir_convolve.bytes"] = 16 * sum(
        2 * (nx + nh) - 1 for nx, nh in fir) / trials
    for name in ("sigproc.srrc_taps", "cancellation.make_training_signal"):
        out[f"{name}.repeat_ratio"] = tracing.repeat_ratio(
            timed.get(name, {"keys": []})["keys"])
    si = timed.get("link.self_interference_channel")
    out["link.self_interference_channel.hit_ratio"] = (
        si["leaf_calls"] / si["calls"] if si else 0.0)
    return out


def run_sweeps(args) -> dict:
    use_checkout_fdsim()
    import dataclasses
    import platform
    import resource

    import numpy
    import scipy

    import fdsim
    from fdsim import harness, link

    from perfbench import checks, tracing, workloads

    _require_checkout_fdsim()
    spec = workloads.build_spec(args.workload, args.seed, args.trials)
    n_trials = len(spec.schemes) * len(spec.values) * spec.trials_per_point
    golden = (checks.load_golden(args.workload)
              if args.seed == workloads.DEFAULT_SEED and args.trials is None else None)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    # Set-up phase, as setup_s times it: the first SI channel per RF scheme.
    for scheme in RF_SCHEMES:
        link.self_interference_channel(dataclasses.replace(spec.base, scheme=scheme))
    setup_spans = list(tracer.spans) if tracer else []
    # Warm-up: one trial per point, so lazy imports and first-call costs
    # of every code path are paid before the clock starts.
    harness.run_sweep(dataclasses.replace(spec, trials_per_point=1))
    times = []
    if tracer:
        tracer.spans.clear()
    else:
        _trial_timer(harness, times)

    sweeps = []
    start = time.perf_counter()
    while not sweeps or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        try:
            result = harness.run_sweep(spec)
        except Exception as exc:  # counted as failed trials, the run goes on
            sweeps.append((time.perf_counter() - t0, None,
                           f"{type(exc).__name__}: {exc}"))
        else:
            sweeps.append((time.perf_counter() - t0,
                           [checks.row_dict(r) for r in result.rows], None))

    failed_points, messages, first_rows = 0, [], None
    for wall, rows, error in sweeps:
        if rows is None:
            failed_points += len(spec.schemes) * len(spec.values)
            messages.append(error)
            continue
        fails = checks.check_rows(spec, rows, golden)
        if first_rows is None:
            first_rows = rows
        else:
            for p, msgs in checks.diff_rows(first_rows, rows).items():
                fails.setdefault(p, []).extend(msgs)
        failed_points += len(fails)
        messages += [f"{p}: {m}" for p, ms in sorted(fails.items()) for m in ms]

    walls = [wall for wall, rows, _ in sweeps if rows is not None]
    out = {
        "attempted": n_trials * len(sweeps),
        "failed": spec.trials_per_point * failed_points,
        "messages": sorted(set(messages))[:50],
        "rows": first_rows,
        "sweep_walls_s": walls,
        "meta": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "fdsim": getattr(fdsim, "__version__", None),
            "use_numba": getattr(getattr(fdsim, "_kernels", None), "USE_NUMBA", None),
            "spec": harness.emit_config(spec),
        },
    }
    metrics = {}
    if walls:
        metrics["trials_per_s"] = statistics.median(n_trials / w for w in walls)
        metrics["sweep_wall_s"] = statistics.median(walls)
    if tracer:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.csv", setup_spans)
        timed = tracing.summarise(tracer.spans)
        metrics.update(_layer_metrics(tracing.summarise(setup_spans), timed))
        self_s = sum(st["self_s"] for st in timed.values())
        wall_s = sum(wall for wall, _, _ in sweeps)
        if abs(self_s - wall_s) > SELF_TIME_TOLERANCE * wall_s:
            out["failed"] = out["attempted"]
            out["messages"].append(f"self times add up to {self_s:.4f} s, "
                                   f"traced wall is {wall_s:.4f} s")
    elif times:
        metrics.update(_latency_metrics(times))
        out["trial_samples"] = len(times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["metrics"] = metrics
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("sweep")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cmd == "setup":
        out = {"setup_s": measure_setup()}
    else:
        out = run_sweeps(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
