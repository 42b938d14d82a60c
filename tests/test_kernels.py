"""The polyphase kernels against the zero-stuff / full-convolve reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdsim
from fdsim import sigproc
from fdsim._kernels import fft_size, phase_spectrum, upsample_convolve_fft

#: Only the summation order differs from the reference, so the outputs
#: agree to a few ulps of the signal's peak.
REL_TOL = 1e-15


def _filter(kind, sps):
    if kind == "srrc":
        return sigproc.srrc_taps(0.25, 8, sps)
    # a filter built directly, with a tap count that is not span * sps + 1
    # (an even one at even sps)
    taps = np.random.default_rng(sps).standard_normal(3 * sps + 2)
    return sigproc.SrrcFilter(taps=taps, samples_per_symbol=sps)


def _stuffed(symbols, sps):
    up = np.zeros(len(symbols) * sps, dtype=np.complex128)
    up[::sps] = symbols
    return up


def _assert_close(got, ref, scale):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= REL_TOL * scale


@pytest.mark.parametrize("sps", [2, 3, 4, 5, 10, 20, 40])
@pytest.mark.parametrize("n", [1, 2, 1000, 1025])  # 1025: one past a block
@pytest.mark.parametrize("kind", ["srrc", "odd"])
def test_kernels_match_reference(sps, n, kind):
    filt = _filter(kind, sps)
    h = filt.taps
    rng = np.random.default_rng(n)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ref = np.convolve(_stuffed(symbols, sps), h)
    _assert_close(sigproc.pulse_shape(symbols, filt), ref, np.max(np.abs(ref)))

    x = ref + 1e-3 * (rng.standard_normal(len(ref)) + 1j * rng.standard_normal(len(ref)))
    full = np.convolve(x, h)
    scale = np.max(np.abs(full))
    # the matched filter's first instant is len(h) - 1 for any tap count;
    # output k reads samples k*sps ... (k + p)*sps - 1, p the taps' phases
    kept = full[len(h) - 1::sps]
    largest = len(x) // sps - -(-len(h) // sps) + 1
    for count in (0, 1, n, largest):
        _assert_close(sigproc.matched_filter_downsample(x, filt, count),
                      kept[:count], scale)
    # the later outputs' windows reach past the samples' end
    for count in (-1, largest + 1, len(kept), len(full)):
        with pytest.raises(ValueError):
            sigproc.matched_filter_downsample(x, filt, count)


#: The FFT kernel's rounding error grows with log2 of the transform length
#: (<= 11 here), a few ulps of the output's peak per stage.
FFT_REL_TOL = 1e-14


@pytest.mark.parametrize("sps", [2, 3, 4, 5, 10, 20, 40])
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("n_taps", ["1", "sps", "3sps+2", "600"])
def test_fft_kernel_matches_reference(sps, n, n_taps):
    length = {"1": 1, "sps": sps, "3sps+2": 3 * sps + 2, "600": 600}[n_taps]
    rng = np.random.default_rng(7 * sps + n)
    h = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ref = np.convolve(_stuffed(symbols, sps), h)
    # a spectrum built for more symbols serves fewer
    for n_built in (n, n + 500):
        got = upsample_convolve_fft(symbols, phase_spectrum(h, sps, n_built))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= FFT_REL_TOL * np.max(np.abs(ref))


@pytest.mark.parametrize("sps", [2, 3, 4, 10, 20, 40])
@pytest.mark.parametrize("n_minus", [0, 1, 57, 59, 599, 600])
def test_fft_kernel_subtracts_minus_taps(sps, n_minus):
    rng = np.random.default_rng(sps + n_minus)
    h = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    minus = rng.standard_normal(n_minus) + 1j * rng.standard_normal(n_minus)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 300))
    kept_symbols, kept_minus = symbols.copy(), minus.copy()
    diff = h.copy()
    diff[:n_minus] -= minus
    ref = np.convolve(_stuffed(symbols, sps), diff)
    # a spectrum built for the replica's length, and one for the longest
    for n_built in (n_minus, len(h)):
        spectrum = phase_spectrum(h, sps, len(symbols), n_built)
        got = upsample_convolve_fft(symbols, spectrum, minus=minus)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= FFT_REL_TOL * np.max(np.abs(ref))
        # a replica longer than the spectrum's whole phases, or its filter
        too_long = min(-(-n_built // sps) * sps, len(h)) + 1
        with pytest.raises(ValueError):
            upsample_convolve_fft(symbols, spectrum, minus=np.ones(too_long))
    # the kernel works in a buffer of its own, never in its arguments
    assert np.array_equal(symbols, kept_symbols) and np.array_equal(minus, kept_minus)
    with pytest.raises(ValueError):
        phase_spectrum(h, sps, len(symbols), len(h) + 1)


@pytest.mark.parametrize("sps, n_symbols", [(0, 10), (2, 0)])
def test_phase_spectrum_rejects_no_phases_or_no_symbols(sps, n_symbols):
    with pytest.raises(ValueError, match="sps and n_symbols must be >= 1"):
        phase_spectrum(np.ones(8, dtype=complex), sps, n_symbols)


def test_fft_kernel_rejects_more_symbols_than_its_spectrum():
    spectrum = phase_spectrum(np.ones(600, dtype=complex), 40, 1000)
    n_fft = fft_size(1000 + 15 - 1)
    assert spectrum.spectra.shape == (n_fft, 40) and spectrum.spectra.flags.c_contiguous
    assert spectrum.replica_dft.shape == (n_fft, 0)
    assert not spectrum.spectra.flags.writeable
    assert not spectrum.replica_dft.flags.writeable
    with pytest.raises(ValueError):
        upsample_convolve_fft(np.ones(n_fft), spectrum)


def test_fft_size_is_the_next_5_smooth_number():
    smooth = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8)
                    for c in range(6))
    for n in range(1, 2049):
        assert fft_size(n) == next(m for m in smooth if m >= n)


@pytest.mark.parametrize("n", [0, -1])
def test_fft_size_rejects_a_length_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        fft_size(n)


@pytest.mark.parametrize("sps", [2, 10, 40])
def test_sigproc_filters_match_reference(sps):
    filt = sigproc.srrc_taps(0.25, 8, sps)
    symbols = np.exp(1j * np.random.default_rng(sps).uniform(0.0, 7.0, 300))
    shaped = sigproc.pulse_shape(symbols, filt)
    ref = np.convolve(_stuffed(symbols, sps), filt.taps)
    _assert_close(shaped, ref, np.max(np.abs(ref)))

    # the matched filter samples from the peak of both filters in cascade
    full = np.convolve(shaped, filt.taps)
    _assert_close(sigproc.matched_filter_downsample(shaped, filt, len(symbols)),
                  full[len(filt.taps) - 1::sps][: len(symbols)], np.max(np.abs(full)))


def test_filter_rejects_complex_or_empty_taps():
    for taps in ([1.0 + 1j], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            sigproc.SrrcFilter(taps=np.array(taps), samples_per_symbol=2)


def test_filter_holds_read_only_copies():
    taps = np.hanning(17)
    filt = sigproc.SrrcFilter(taps=taps, samples_per_symbol=2)
    assert taps.flags.writeable and np.array_equal(filt.taps, taps)
    for a in (filt.taps, filt.shaping, filt.matched):
        assert not a.flags.writeable


def test_import_and_a_trial_of_every_scheme_load_no_scipy():
    # scipy costs about 0.6 s of start-up and half the peak memory that
    # every `fdsim` process would pay; it is a test-only dependency
    code = ("import sys, fdsim, numpy as np\n"
            "for scheme in fdsim.link.SCHEMES:\n"
            "    fdsim.run_trial(fdsim.LinkConfig(scheme=scheme, n_bits=200),\n"
            "                    np.random.default_rng(0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fdsim.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
