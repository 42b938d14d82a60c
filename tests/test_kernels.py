"""The polyphase kernels against the zero-stuff / full-convolve reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdsim
from fdsim import sigproc
from fdsim._kernels import convolve_decimate, fir_convolve, upsample_convolve

#: Only the summation order differs from the reference, so the outputs
#: agree to a few ulps of the signal's peak.
REL_TOL = 1e-15


def _taps(kind, sps):
    if kind == "srrc":
        return sigproc.srrc_taps(0.25, 8, sps).taps
    # a tap count that is not span * sps + 1
    return np.random.default_rng(sps).standard_normal(3 * sps + 2)


def _stuffed(symbols, sps):
    up = np.zeros(len(symbols) * sps, dtype=np.complex128)
    up[::sps] = symbols
    return up


def _assert_close(got, ref, scale):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= REL_TOL * scale


@pytest.mark.parametrize("sps", [2, 3, 4, 5, 10, 20, 40])
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("kind", ["srrc", "odd"])
def test_kernels_match_reference(sps, n, kind):
    h = _taps(kind, sps)
    rng = np.random.default_rng(n)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ref = fir_convolve(_stuffed(symbols, sps), h)
    _assert_close(upsample_convolve(symbols, h, sps), ref, np.max(np.abs(ref)))

    x = ref + 1e-3 * (rng.standard_normal(len(ref)) + 1j * rng.standard_normal(len(ref)))
    full = fir_convolve(x, h)
    scale = np.max(np.abs(full))
    for offset in (0, 1, len(h) - 1, len(h) + 3, len(full) - 2):
        for count in (None, 1, n, len(full)):
            _assert_close(convolve_decimate(x, h, offset, sps, count),
                          full[offset::sps][:count], scale)


@pytest.mark.parametrize("sps", [2, 40])
def test_sigproc_filters_match_reference(sps):
    filt = sigproc.srrc_taps(0.25, 8, sps)
    symbols = np.exp(1j * np.random.default_rng(sps).uniform(0.0, 7.0, 300))
    wave = sigproc.pulse_shape(symbols, filt, 20e6)
    ref = fir_convolve(_stuffed(symbols, sps), filt.taps)
    _assert_close(wave.samples, ref, np.max(np.abs(ref)))
    assert wave.delay_samples == filt.group_delay

    full = fir_convolve(wave.samples, filt.taps)
    offset = wave.delay_samples + filt.group_delay
    for n_symbols in (None, len(symbols)):
        _assert_close(sigproc.matched_filter_downsample(wave, filt, n_symbols),
                      full[offset::sps][:n_symbols], np.max(np.abs(full)))


def test_kernels_reject_complex_taps():
    with pytest.raises(ValueError):
        upsample_convolve([1.0], [1.0 + 1j], 2)
    with pytest.raises(ValueError):
        convolve_decimate([1.0, 2.0], [1.0 + 1j], 0, 2)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about half a second of start-up that every
    # `fdsim` command would pay
    code = "import sys, fdsim; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(fdsim.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
