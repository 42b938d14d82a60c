"""Tests for the worker thread that draws a long frame's receiver noise,
a lone trial's while it runs and a sweep's next trial's while the trial
ahead runs, and for the BLAS thread pool it needs asleep."""

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference
from fdsim import _worker, harness, link, sigproc
from fdsim.cli import main
from fdsim.errors import FdsimError
from fdsim.harness import SweepSpec, run_sweep
from fdsim.link import LinkConfig, run_trial

SRC = str(Path(link.__file__).parents[1])

#: A narrowband config, whose 8 575-sample frame draws its noise on the worker.
NARROW = LinkConfig(scheme="PS+B", signal_bandwidth_hz=0.5e6, ebn0_db=20.0, n_bits=400)


def _narrow_spec(**over) -> SweepSpec:
    kw = dict(base=replace(NARROW, scheme="PS"), values=(20.0, 30.0),
              schemes=("PS", "AC+B"), trials_per_point=3, root_seed=5)
    return SweepSpec(**{**kw, **over})


def _python(code: str, **env) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, timeout=120).stdout


def _serial_rows(spec: SweepSpec) -> tuple:
    """The sweep's rows from lone ``run_trial`` calls, each on a fresh
    ``trial_seed`` generator."""
    rows = []
    for scheme in spec.schemes:
        for value in spec.values:
            cfg = harness.config_for_point(spec.base, scheme, spec.axis, value)
            reports = [run_trial(cfg, np.random.default_rng(
                harness.trial_seed(spec.root_seed, scheme, value, t)))
                for t in range(spec.trials_per_point)]
            rows.append(harness.point_row(scheme, spec.axis, value, reports))
    return tuple(rows)


def _handed_off(monkeypatch, fail_at=(), delay_s=0.0):
    """Record each call handed to the worker as the thread name it ran on,
    once done; the calls numbered in ``fail_at`` raise a ``MemoryError``
    instead, and every call first sleeps ``delay_s``."""
    calls, submit = [], _worker.submit

    def recorded(fn, *args):
        number = len(calls)
        calls.append(None)

        def call():
            time.sleep(delay_s)
            if number in fail_at:
                raise MemoryError
            out = fn(*args)
            calls[number] = threading.current_thread().name
            return out
        return submit(call)

    monkeypatch.setattr(_worker, "submit", recorded)
    return calls


@pytest.mark.parametrize("spec", [
    # short frames (10 and 5 MHz) into long ones (1 and 0.5 MHz)
    SweepSpec(base=LinkConfig(n_bits=400, ebn0_db=20.0), axis="bandwidth_hz",
              values=(10e6, 5e6, 1e6, 0.5e6), schemes=link.SCHEMES, trials_per_point=3,
              root_seed=3),
    # a noise-free point draws no receiver noise
    _narrow_spec(values=(20.0, math.inf), schemes=("PS", "PS+B")),
    _narrow_spec(axis="mod_order", values=(2, 4, 8, 16), schemes=("AC", "PS+B")),
], ids=["bandwidth", "ebn0-inf", "mod-order"])
def test_the_pipelined_sweep_gives_the_rows_of_lone_trials(spec):
    long_frames = [harness.config_for_point(spec.base, s, spec.axis, v).frame_samples
                   >= link.BACKGROUND_NOISE_SAMPLES for s in spec.schemes for v in spec.values]
    assert any(long_frames)
    assert repr(run_sweep(spec).rows) == repr(_serial_rows(spec))


def test_the_narrowband_frame_draws_on_the_worker_and_the_default_one_inline(monkeypatch):
    # one hand-off per trial, in a sweep and for a lone trial
    calls = _handed_off(monkeypatch)
    spec = _narrow_spec()
    run_sweep(spec)
    run_trial(NARROW, np.random.default_rng(1))
    assert calls == [_worker.THREAD_NAME] * 13
    run_sweep(replace(spec, base=LinkConfig(n_bits=400, ebn0_db=20.0)))
    run_trial(LinkConfig(ebn0_db=20.0), np.random.default_rng(1))
    assert len(calls) == 13


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads Linux's /proc")
def test_no_blas_pool_thread_runs_during_a_narrowband_design_and_trials():
    # OpenBLAS's pool, once woken by a threaded product, spins a core for
    # ~80 ms; the CPU time of every thread but this one and fdsim's worker
    # stays below one tick of that, after the pool's start-up spin at import
    code = """
import os, threading, time
import numpy as np
from fdsim import _worker, link

def cpu_ticks():
    ticks = {}
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks[int(task)] = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks

time.sleep(0.5)
before = cpu_ticks()
cfg = link.LinkConfig(scheme="PS+B", signal_bandwidth_hz=0.5e6, ebn0_db=20.0)
design = link.trial_design(cfg)
for seed in range(20):
    link.run_trial(cfg, np.random.default_rng(seed), design)
time.sleep(0.2)  # a woken pool spins on after the last product
after = cpu_ticks()
ours = {threading.main_thread().native_id} | {
    t.native_id for t in threading.enumerate() if t.name == _worker.THREAD_NAME}
print(sum(n - before.get(task, 0) for task, n in after.items() if task not in ours)
      * 1000 / os.sysconf("SC_CLK_TCK"))
"""
    assert float(_python(code)) < 20.0


def test_a_sweep_draws_its_noise_into_two_buffers_in_turn(monkeypatch):
    # a fresh buffer each trial made glibc trim and re-fault the heap; the
    # trial ahead keeps one while the next is drawn into the other
    outs, draw = [], link.draw_trial

    def recorded(config, rng, out=None):
        outs.append(out)
        return draw(config, rng, out)

    monkeypatch.setattr(harness, "draw_trial", recorded)
    run_sweep(_narrow_spec())  # four points of one frame length, three trials each
    assert len(outs) == 12 and outs[0] is not outs[1]
    assert all(out is outs[job % 2] for job, out in enumerate(outs))


@pytest.mark.parametrize("failing", ["upsample_convolve_fft", "pulse_shape"])
def test_an_exception_between_hand_off_and_join_leaves_the_next_trial_fresh(
        monkeypatch, failing):
    # the SI kernel or the shaping raises while the trial's noise, slow to
    # draw, is on the worker.  run_trial raises only once that draw is
    # done, so the generator has made exactly a trial's draws, and no late
    # draw reaches a later trial's frame
    design = link.trial_design(NARROW)
    fresh = [run_trial(NARROW, np.random.default_rng(seed), design) for seed in (8, 9)]
    module = link if failing == "upsample_convolve_fft" else sigproc
    monkeypatch.setattr(module, failing, lambda *args, **kwargs: 1 / 0)
    calls = _handed_off(monkeypatch, delay_s=0.2)
    rng = np.random.default_rng(7)
    with pytest.raises(ZeroDivisionError):
        run_trial(NARROW, rng, design)
    assert calls == [_worker.THREAD_NAME]  # the draw had run
    assert not hasattr(design.scratch, "noise")  # the failed trial's buffer is dropped
    replay = np.random.default_rng(7)
    reference.trial_draws(NARROW, replay)
    assert rng.bit_generator.state == replay.bit_generator.state
    monkeypatch.undo()
    assert [run_trial(NARROW, np.random.default_rng(seed), design)
            for seed in (8, 9)] == fresh


@pytest.mark.parametrize("failing", ["upsample_convolve_fft", "pulse_shape"])
def test_a_sweep_trial_that_raises_waits_for_the_next_trials_draw(monkeypatch, failing):
    # the SI kernel or the shaping of trial 1 raises with trial 2's noise,
    # slow to draw, handed off: the sweep raises naming trial 1 only once
    # that draw is done, and the next sweep gives the serial rows
    spec = _narrow_spec(schemes=("PS",), values=(20.0,))
    module = link if failing == "upsample_convolve_fft" else sigproc
    fn, count = getattr(module, failing), []

    def fails_at_trial_1(*args, **kwargs):
        count.append(None)
        if len(count) == 2:
            raise ZeroDivisionError("injected")
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, failing, fails_at_trial_1)
    calls = _handed_off(monkeypatch, delay_s=0.2)
    with pytest.raises(FdsimError, match=r"injected \[scheme=PS, ebn0_db=20.0, trial=1\]"):
        run_sweep(spec)
    assert calls == [_worker.THREAD_NAME] * 3  # every hand-off had run
    monkeypatch.undo()
    assert run_sweep(spec).rows == _serial_rows(spec)


def test_a_memory_error_in_the_noise_draw_reaches_the_caller(monkeypatch, tmp_path, capsys):
    # a lone trial's draw fails on the worker: run_trial raises it, and
    # `fdsim run` exits 2 naming it; the design's next trials are fresh
    cfg = replace(NARROW, scheme="PS")
    design = link.trial_design(cfg)
    fresh = [run_trial(cfg, np.random.default_rng(seed), design) for seed in (8, 9)]
    calls = _handed_off(monkeypatch, fail_at=(0, 1))
    with pytest.raises(MemoryError):
        run_trial(cfg, np.random.default_rng(1), design)
    assert calls == [None]  # handed off, and raised there
    assert not hasattr(design.scratch, "noise")
    path = tmp_path / "narrow.cfg"
    path.write_text("signal_bandwidth_hz = 500000\nebn0_db = 20\n")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "fdsim: error: MemoryError\n"
    assert calls == [None] * 2
    monkeypatch.undo()
    assert [run_trial(cfg, np.random.default_rng(seed), design) for seed in (8, 9)] == fresh


def test_a_memory_error_in_the_next_trials_noise_draw_names_that_trial(
        monkeypatch, tmp_path, capsys):
    # trial 2's draw fails while trial 1 runs; the error is trial 2's
    spec = _narrow_spec(schemes=("PS",), values=(20.0,))
    calls = _handed_off(monkeypatch, fail_at=(2,))
    with pytest.raises(FdsimError, match=r"^MemoryError \[scheme=PS, ebn0_db=20.0, trial=2\]$"):
        run_sweep(spec)
    assert calls == [_worker.THREAD_NAME] * 2 + [None]
    path = tmp_path / "narrow.cfg"
    path.write_text(harness.emit_config(spec))
    del calls[:]
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == (
        "fdsim: error: MemoryError [scheme=PS, ebn0_db=20.0, trial=2]\n")
    monkeypatch.undo()
    assert run_sweep(spec).rows == _serial_rows(spec)


def test_an_error_starting_the_next_trial_is_raised_once_the_trial_ahead_has_run(
        monkeypatch):
    # trial 1's training noise is drawn before trial 0 runs; its error is
    # trial 1's, raised after trial 0's report, as a serial sweep would
    spec = _narrow_spec(schemes=("PS+B",), values=(20.0,))
    awgn, drawn, ran = sigproc.awgn, [], []

    def fails_at_trial_1(*args):
        drawn.append(None)
        if len(drawn) == 2:
            raise MemoryError
        return awgn(*args)

    monkeypatch.setattr(sigproc, "awgn", fails_at_trial_1)
    run = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda *args: ran.append(None) or run(*args))
    with pytest.raises(FdsimError, match=r"^MemoryError \[scheme=PS\+B, ebn0_db=20.0, trial=1\]$"):
        run_sweep(spec)
    assert len(ran) == 1


def test_a_forked_child_runs_a_trial():
    # the child of a process whose worker has run gets a worker of its own,
    # for a lone trial and for a sweep
    code = """
import os, signal
import numpy as np
from fdsim import harness, link
cfg = link.LinkConfig(signal_bandwidth_hz=0.5e6, ebn0_db=20.0, n_bits=400)
spec = harness.SweepSpec(base=cfg, values=(20.0,), trials_per_point=2)
run = lambda: (link.run_trial(cfg, np.random.default_rng(3)), harness.run_sweep(spec))
want = run()
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child left waiting for its parent's worker dies
    os._exit(0 if run() == want else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    assert _python(code, PYTHONWARNINGS="ignore::DeprecationWarning").strip() == "0"


def _in_threads(run, names) -> dict:
    """``run(name)`` for each name on a thread of its own, all at once,
    with the interpreter switching threads often."""
    results = {}
    workers = [threading.Thread(target=lambda name: results.update({name: run(name)}),
                                args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    return results


def test_threads_running_trials_on_their_own_generators_get_the_serial_reports():
    # more threads than cores hand their draws to the one worker and keep
    # their buffers in one design's per-thread scratch; a draw from another
    # thread's generator, a result handed to the wrong trial or a buffer
    # shared by two threads changes a report
    design = link.trial_design(NARROW)
    seeds = {name: range(100 * name, 100 * name + 5) for name in range(3)}

    def trials(name):
        return [run_trial(NARROW, np.random.default_rng(s), design) for s in seeds[name]]

    serial = {name: trials(name) for name in seeds}
    assert _in_threads(trials, seeds) == serial


def test_threads_running_sweeps_get_the_serial_rows():
    # each sweep hands its next trial's noise to the one worker while it
    # runs the trial ahead; a draw handed to another sweep's trial changes
    # a row
    specs = {name: _narrow_spec(root_seed=name) for name in range(3)}
    serial = {name: _serial_rows(spec) for name, spec in specs.items()}
    assert _in_threads(lambda name: run_sweep(specs[name]).rows, specs) == serial


def test_a_thread_reuses_its_noise_buffers_and_another_thread_gets_its_own():
    # a fresh frame-length buffer each trial made glibc trim and re-fault
    # the heap; a design keeps the last one per thread
    design = link.trial_design(NARROW)
    run_trial(NARROW, np.random.default_rng(1), design)
    kept = design.scratch.noise
    assert kept.shape == (2 * NARROW.frame_samples,)
    run_trial(NARROW, np.random.default_rng(2), design)
    assert design.scratch.noise is kept
    other = []
    thread = threading.Thread(target=lambda: (run_trial(NARROW, np.random.default_rng(1), design),
                                              other.append(design.scratch.noise)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(other) == 1 and other[0] is not kept


def test_a_call_hands_over_its_value_once():
    call = _worker.submit(np.arange, 3)
    assert call.result().tolist() == [0, 1, 2]
    assert call.result() is None


def test_calls_run_in_hand_off_order():
    ran = []
    calls = [_worker.submit(ran.append, k) for k in range(50)]
    calls[-1].wait()
    assert ran == list(range(50))
