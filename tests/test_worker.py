"""Tests for the worker thread that draws a long frame's receiver noise,
and for the BLAS thread pool it needs asleep."""

import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference
from fdsim import _worker, link, sigproc
from fdsim.cli import main
from fdsim.link import LinkConfig, run_trial

SRC = str(Path(link.__file__).parents[1])

#: A narrowband config, whose 8 575-sample frame draws its noise on the worker.
NARROW = LinkConfig(scheme="PS+B", signal_bandwidth_hz=0.5e6, ebn0_db=20.0, n_bits=400)


def _python(code: str, **env) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, timeout=120).stdout


def test_the_narrowband_frame_draws_on_the_worker_and_the_default_one_inline(monkeypatch):
    threads, draw = [], sigproc.scaled_normals

    def scaled_normals(*args):
        threads.append(threading.current_thread().name)
        return draw(*args)

    monkeypatch.setattr(sigproc, "scaled_normals", scaled_normals)
    assert NARROW.frame_samples >= link.BACKGROUND_NOISE_SAMPLES
    run_trial(NARROW, np.random.default_rng(1))
    cfg = LinkConfig(ebn0_db=20.0)
    assert cfg.frame_samples < link.BACKGROUND_NOISE_SAMPLES
    run_trial(cfg, np.random.default_rng(1))
    # two halves each; the +B training noise is drawn inline, by awgn
    main_thread = threading.main_thread().name
    assert threads == [main_thread] * 2 + [_worker.THREAD_NAME] * 2 + [main_thread] * 2


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


@pytest.mark.parametrize("failing", ["upsample_convolve_fft", "pulse_shape"])
def test_an_exception_between_hand_off_and_join_leaves_the_next_trial_fresh(
        monkeypatch, failing):
    # the SI kernel raises with both noise halves handed off; the shaping
    # with the second one.  run_trial raises only after its draws are done,
    # so the generator has made exactly a trial's draws, and no late draw
    # reaches a later trial's frame
    design = link.trial_design(NARROW)
    fresh = [run_trial(NARROW, np.random.default_rng(seed), design) for seed in (8, 9)]
    module = link if failing == "upsample_convolve_fft" else sigproc
    monkeypatch.setattr(module, failing, lambda *args, **kwargs: 1 / 0)
    rng = np.random.default_rng(7)
    with pytest.raises(ZeroDivisionError):
        run_trial(NARROW, rng, design)
    assert not hasattr(design.scratch, "noise")  # the failed trial's buffers are dropped
    replay = np.random.default_rng(7)
    reference.trial_draws(NARROW, replay)
    assert rng.bit_generator.state == replay.bit_generator.state
    monkeypatch.undo()
    assert [run_trial(NARROW, np.random.default_rng(seed), design)
            for seed in (8, 9)] == fresh


def test_a_memory_error_in_the_noise_draw_reaches_the_caller(monkeypatch, tmp_path, capsys):
    threads = []

    def exhausted(*args):
        threads.append(threading.current_thread().name)
        raise MemoryError

    cfg = replace(NARROW, scheme="PS")  # no training noise, drawn on this thread
    design = link.trial_design(cfg)
    monkeypatch.setattr(sigproc, "scaled_normals", exhausted)
    with pytest.raises(MemoryError):
        run_trial(cfg, np.random.default_rng(1), design)
    assert threads == [_worker.THREAD_NAME] * 2
    path = tmp_path / "narrow.cfg"
    path.write_text("signal_bandwidth_hz = 500000\nebn0_db = 20\n")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "fdsim: error: MemoryError\n"


def test_a_forked_child_runs_a_trial():
    # the child of a process whose worker has run gets a worker of its own
    code = """
import os, signal
import numpy as np
from fdsim import link
cfg = link.LinkConfig(signal_bandwidth_hz=0.5e6, ebn0_db=20.0, n_bits=400)
want = link.run_trial(cfg, np.random.default_rng(3))
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child left waiting for its parent's worker dies
    os._exit(0 if link.run_trial(cfg, np.random.default_rng(3)) == want else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    assert _python(code, PYTHONWARNINGS="ignore::DeprecationWarning").strip() == "0"


def test_threads_running_trials_on_their_own_generators_get_the_serial_reports():
    # more threads than cores hand their draws to the one worker, with the
    # interpreter switching threads often; a draw from another thread's
    # generator, or a result handed to the wrong trial, changes a report
    design = link.trial_design(NARROW)
    seeds = {name: range(100 * name, 100 * name + 5) for name in range(3)}
    serial = {name: [run_trial(NARROW, np.random.default_rng(s), design) for s in seeds[name]]
              for name in seeds}
    threaded = {}

    def trials(name):
        threaded[name] = [run_trial(NARROW, np.random.default_rng(s), design)
                          for s in seeds[name]]

    workers = [threading.Thread(target=trials, args=(name,)) for name in seeds]
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
    assert threaded == serial


def test_a_thread_reuses_its_noise_buffers_and_another_thread_gets_its_own():
    # fresh frame-length buffers each trial made glibc trim and re-fault
    # the heap; a design keeps the last pair per thread
    design = link.trial_design(NARROW)
    run_trial(NARROW, np.random.default_rng(1), design)
    kept = design.scratch.noise
    assert [b.shape for b in kept] == [(NARROW.frame_samples,)] * 2
    run_trial(NARROW, np.random.default_rng(2), design)
    assert all(a is b for a, b in zip(design.scratch.noise, kept))
    other = []
    thread = threading.Thread(target=lambda: (run_trial(NARROW, np.random.default_rng(1), design),
                                              other.extend(design.scratch.noise)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(other) == 2
    assert not any(a is b for a in other for b in kept)


def test_a_call_hands_over_its_value_once():
    call = _worker.submit(np.arange, 3)
    assert call.result().tolist() == [0, 1, 2]
    assert call.result() is None


def test_calls_run_in_hand_off_order():
    ran = []
    calls = [_worker.submit(ran.append, k) for k in range(50)]
    calls[-1].wait()
    assert ran == list(range(50))
