"""Span tracing of fdsim's layers from outside the package.

``Tracer.install`` replaces each traced function with a wrapper wherever
fdsim looks the function up: in its own module and under every other name
an fdsim module binds it to (``sigproc``, ``channel`` and ``cancellation``
each import ``fir_convolve``; ``cancellation`` imports ``pulse_shape``;
``harness`` imports ``run_trial``).  The wrapper records one span per call
in memory; ``summarise`` turns spans into calls and self time per layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import namedtuple
from time import perf_counter

#: Traced functions by fdsim module.  Everything not listed here (seed
#: hashing, RNG construction, metric arithmetic, aggregation) counts as
#: self time of the traced caller.
TRACED = {
    "harness": ("run_sweep",),
    "link": ("run_trial", "self_interference_channel"),
    "sigproc": ("srrc_taps", "modulate_psk", "pulse_shape", "awgn",
                "matched_filter_downsample", "demodulate_psk"),
    "channel": ("synthesize_profile", "derive_baseband_channel",
                "make_desired_channel", "apply_channel"),
    "cancellation": ("make_training_signal", "run_training",
                     "build_cancellation", "cancel"),
    "_kernels": ("fir_convolve",),
}

TRIAL_SPAN = "link.run_trial"


def span_name(mod_name: str, fn_name: str) -> str:
    """Span (and metric) name of ``fdsim.<mod_name>.<fn_name>``; metric
    names must start with a letter, so ``_kernels`` becomes ``kernels``."""
    return f"{mod_name.lstrip('_')}.{fn_name}"


def _fir_key(x, h):
    return (len(x), len(h))


def _srrc_key(rolloff, span_symbols, samples_per_symbol):
    return (float(rolloff), int(span_symbols), int(samples_per_symbol))


def _training_key(n_tr, filt, sample_rate_hz):
    return (int(n_tr), float(filt.rolloff), int(filt.span_symbols),
            int(filt.samples_per_symbol), float(sample_rate_hz))


#: Argument keys recorded on spans: input lengths for the MAC and byte
#: counts, and design parameters for the repeated-design ratios.
KEYS = {
    "kernels.fir_convolve": _fir_key,
    "sigproc.srrc_taps": _srrc_key,
    "cancellation.make_training_signal": _training_key,
}

#: ``trial`` is the index of the enclosing ``link.run_trial`` span, or -1.
Span = namedtuple("Span", "name start end parent trial key")


class Tracer:
    """Records a span for each call of the functions in ``TRACED``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._trial = -1
        self._patches: list = []

    def install(self) -> None:
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            module = importlib.import_module(f"fdsim.{mod_name}")
            for fn_name in fn_names:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(span_name(mod_name, fn_name), fn))
        modules = [m for n, m in sys.modules.items()
                   if n == "fdsim" or n.startswith("fdsim.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        key_fn = KEYS.get(name)
        opens_trial = name == TRIAL_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if key_fn is not None:
                try:
                    key = key_fn(*args, **kwargs)
                except (TypeError, AttributeError):
                    pass
            index = len(spans)
            spans.append(None)
            outer_trial = self._trial
            if opens_trial:
                self._trial = index
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._trial, key)
                self._trial = outer_trial

        return traced

    def write(self, path, setup_spans=()) -> None:
        """Write set-up spans, then the current spans, as CSV.

        Columns: phase, name, start, end, parent and trial; ``parent`` and
        ``trial`` index spans of the same phase.
        """
        with open(path, "w") as fh:
            fh.write("phase,name,start_s,end_s,parent,trial\n")
            for phase, spans in (("setup", setup_spans), ("sweep", self.spans)):
                for s in spans:
                    fh.write(f"{phase},{s.name},{s.start!r},{s.end!r},"
                             f"{s.parent},{s.trial}\n")


def summarise(spans) -> dict:
    """Per span name: calls, self seconds, leaf calls and argument keys.

    Self time is a span's duration minus the durations of its direct
    children; the children never overlap, because fdsim is single threaded.
    """
    child_s = [0.0] * len(spans)
    children = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
            children[s.parent] += 1
    out: dict = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "leaf_calls": 0,
                                     "keys": []})
        st["calls"] += 1
        st["self_s"] += (s.end - s.start) - child_s[i]
        st["leaf_calls"] += children[i] == 0
        if s.key is not None:
            st["keys"].append(s.key)
    return out


def repeat_ratio(keys) -> float:
    """Share of calls whose key an earlier call already had."""
    seen = set()
    repeats = 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0
