"""One daemon thread that runs a call while its caller goes on.

fdsim hands it a long frame's receiver-noise draw, one
``standard_normal`` call that releases the GIL, so the caller's numpy
work runs beside it.  ``submit(fn, *args)`` hands ``fn(*args)`` to the
worker thread and returns its ``Call``.  The worker starts at the first
hand-off, and again in a child process after ``os.fork()``, which
copies only the forking thread.  It runs its calls one at a time, in
hand-off order.  Each call holds its own completion lock and value, so
a value reaches only the caller that handed the call off.
"""

from __future__ import annotations

import os
import threading

#: The worker thread's name (``threading.Thread.name``).
THREAD_NAME = "fdsim-worker"

_jobs = None  # the worker's queue of calls, from the first hand-off on
_start_lock = threading.Lock()


class Call:
    """A handed-off ``fn(*args)``; ``result()`` hands over its value once."""

    __slots__ = ("_fn", "_args", "_done", "_value", "_error")

    def __init__(self, fn, args: tuple):
        self._fn, self._args = fn, args
        self._value = self._error = None
        self._done = threading.Lock()
        self._done.acquire()

    def _run(self) -> None:
        try:
            self._value = self._fn(*self._args)
        except BaseException as exc:  # raised again, with its type, by result()
            self._error = exc
        self._fn = self._args = None
        self._done.release()

    def wait(self) -> None:
        """Return once the call has run."""
        with self._done:
            pass

    def result(self):
        """The call's value (``None`` after the first ``result()``), once it
        has run; an exception the call raised is raised here."""
        self.wait()
        error, self._error = self._error, None
        if error is not None:
            raise error
        value, self._value = self._value, None
        return value


def submit(fn, *args) -> Call:
    """Hand ``fn(*args)`` to the worker thread."""
    call = Call(fn, args)
    (_jobs or _start()).put(call)
    return call


def _start():
    global _jobs
    with _start_lock:
        if _jobs is None:
            from queue import SimpleQueue  # at the first hand-off, not at import

            jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name=THREAD_NAME,
                             daemon=True).start()
            _jobs = jobs
    return _jobs


def _serve(jobs) -> None:
    while True:
        jobs.get()._run()


def _forget_worker() -> None:
    # a forked child has no worker thread; its first hand-off starts one
    global _jobs, _start_lock
    _jobs, _start_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)
