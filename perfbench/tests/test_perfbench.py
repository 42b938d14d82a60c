"""Tests of the benchmark itself: metric coverage, check strength and
tracing transparency.  Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, use_checkout_fdsim, workloads  # noqa: E402

use_checkout_fdsim()

from fdsim import _kernels, harness, link, sigproc  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--trials", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_run_without_fdsim_sources_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "narrowband"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _golden_case():
    spec = workloads.build_spec("sweep-ebn0", workloads.DEFAULT_SEED)
    return spec, checks.load_golden("sweep-ebn0")


def test_golden_rows_pass_their_own_check():
    spec, golden = _golden_case()
    assert checks.check_rows(spec, golden, golden) == {}


@pytest.mark.parametrize("field, change", [
    ("sinr_db", lambda v: v * (1 + 1e-7)),
    ("ber", lambda v: v + 1e-6),
    ("rate_bps_hz", lambda v: v - 1e-6),
    ("sinr_se_db", lambda v: v * 1.001),
    ("trials", lambda v: v + 1),
])
def test_check_rejects_a_perturbed_golden_row(field, change):
    spec, golden = _golden_case()
    rows = [dict(r) for r in golden]
    rows[3][field] = change(rows[3][field])
    assert checks.point(rows[3]) in checks.check_rows(spec, rows, golden)


def test_check_rejects_missing_nonfinite_and_lost_cancellation_gain():
    spec, golden = _golden_case()
    assert ("PS", 0.0) in checks.check_rows(spec, golden[1:])
    rows = [dict(r) for r in golden]
    rows[0]["sinr_db"] = math.nan
    assert ("PS", 0.0) in checks.check_rows(spec, rows)
    rows = [dict(r) for r in golden]
    plus_b = next(r for r in rows if r["scheme"] == "AC+B" and r["axis_value"] == 90.0)
    rf = next(r for r in rows if r["scheme"] == "AC" and r["axis_value"] == 90.0)
    plus_b["sinr_db"] = rf["sinr_db"] + 5.0  # below the 10 dB gain at Eb/N0 >= 30
    assert ("AC+B", 90.0) in checks.check_rows(spec, rows)
    plus_b["sinr_db"] = rf["sinr_db"] + 20.0
    assert checks.check_rows(spec, rows) == {}


def test_repeats_must_match():
    _, golden = _golden_case()
    other = [dict(r) for r in golden]
    other[5]["ber"] += 1e-12
    assert list(checks.diff_rows(golden, other)) == [checks.point(golden[5])]


def test_checkout_reproduces_golden_rows():
    spec = workloads.build_spec("sweep-bandwidth", workloads.DEFAULT_SEED)
    rows = [checks.row_dict(r) for r in harness.run_sweep(spec).rows]
    assert checks.check_rows(spec, rows, checks.load_golden("sweep-bandwidth")) == {}


def test_traced_rows_equal_untraced_rows():
    spec = replace(workloads.build_spec("sweep-bandwidth", 5), trials_per_point=2)
    plain = harness.run_sweep(spec)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.run_trial.__wrapped__ is link.run_trial.__wrapped__
        traced = harness.run_sweep(spec)
    finally:
        tracer.uninstall()
    assert traced == plain
    # every traced layer ran, and each is restored after uninstall
    names = {s.name for s in tracer.spans}
    expected = {tracing.span_name(m, f) for m, fs in tracing.TRACED.items() for f in fs}
    assert names == expected - {"channel.synthesize_profile",
                                "channel.derive_baseband_channel"}
    assert sigproc.fir_convolve is _kernels.fir_convolve
    assert harness.run_trial is link.run_trial
    assert not hasattr(harness.run_sweep, "__wrapped__")
    # self times add up to the root span
    (root,) = [s for s in tracer.spans if s.parent == -1]
    total = sum(st["self_s"] for st in tracing.summarise(tracer.spans).values())
    assert total == pytest.approx(root.end - root.start, rel=1e-9)
    trials = [s for s in tracer.spans if s.name == tracing.TRIAL_SPAN]
    assert len(trials) == len(spec.schemes) * len(spec.values) * spec.trials_per_point
    assert all(s.trial == i for i, s in enumerate(tracer.spans)
               if s.name == tracing.TRIAL_SPAN)
