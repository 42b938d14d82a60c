"""Tests for modulation, pulse shaping, matched filtering, and noise."""

import numpy as np
import pytest

from fdsim import sigproc


def test_bpsk_point_unit_modulus():
    sym = sigproc.modulate_psk([0], 2)
    assert sym.shape == (1,)
    assert abs(abs(sym[0]) - 1.0) < 1e-12


def test_qpsk_zero_bits_map_to_first_point():
    sym = sigproc.modulate_psk([0, 0], 4)
    assert sym[0] == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-12)


def test_qpsk_mean_energy_exactly_one():
    bits = [0, 0, 0, 1, 1, 1, 1, 0]  # all four symbol labels
    sym = sigproc.modulate_psk(bits, 4)
    assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_modulate_rejects_bad_length():
    with pytest.raises(ValueError):
        sigproc.modulate_psk([0, 1, 0], 4)


def test_modulate_rejects_unsupported_order():
    with pytest.raises(ValueError):
        sigproc.modulate_psk([0, 1, 0], 3)


def test_modulate_rejects_non_binary():
    with pytest.raises(ValueError):
        sigproc.modulate_psk([0, 2], 4)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_demodulate_round_trip(m):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=20 * int(np.log2(m)))
    out = sigproc.demodulate_psk(sigproc.modulate_psk(bits, m), m)
    assert np.array_equal(out, bits)


def test_demodulate_small_perturbation():
    ref = sigproc.demodulate_psk([np.exp(1j * np.pi / 4)], 4)
    out = sigproc.demodulate_psk([np.exp(1j * (np.pi / 4 + 0.1))], 4)
    assert np.array_equal(out, ref)


def test_demodulate_tie_break_lower_index():
    # e^{j*pi/2} is equidistant from constellation points 0 and 1
    tie = sigproc.demodulate_psk([np.exp(1j * np.pi / 2)], 4)
    lower = sigproc.demodulate_psk([sigproc.constellation(4)[0]], 4)
    assert np.array_equal(tie, lower)


def test_demodulate_empty_input():
    out = sigproc.demodulate_psk([], 4)
    assert out.size == 0


@pytest.mark.parametrize("m", [4, 8, 16])
def test_gray_labels_adjacent_differ_one_bit(m):
    pts = sigproc.constellation(m)
    n_b = int(np.log2(m))
    labels = []
    for p in pts:
        bits = sigproc.demodulate_psk([p], m)
        labels.append(int(bits @ (1 << np.arange(n_b - 1, -1, -1))))
    for i in range(m):
        diff = labels[i] ^ labels[(i + 1) % m]
        assert bin(diff).count("1") == 1


def test_srrc_symmetry_and_energy():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    assert len(filt.taps) == 8 * 2 + 1
    assert np.allclose(filt.taps, filt.taps[::-1], atol=1e-14)
    assert np.sum(filt.taps**2) == pytest.approx(1.0, abs=1e-12)


def _nyquist_isi(filt):
    rc = np.convolve(filt.taps, filt.taps)
    center = np.argmax(rc)
    sps = filt.samples_per_symbol
    sym_offsets = rc[center % sps :: sps]
    others = np.delete(sym_offsets, np.argmax(sym_offsets))
    return np.max(np.abs(others)) / rc[center]


def test_srrc_nyquist_self_convolution():
    # truncation leaves ~4e-3 residual ISI at the default 8-symbol span;
    # doubling the span brings it under 1e-3
    assert _nyquist_isi(sigproc.srrc_taps(0.25, 8, 8)) < 5e-3
    assert _nyquist_isi(sigproc.srrc_taps(0.25, 16, 8)) < 1e-3


def _srrc_general(t, beta):
    num = np.sin(np.pi * t * (1 - beta)) + 4 * beta * t * np.cos(np.pi * t * (1 + beta))
    return num / (np.pi * t * (1 - (4 * beta * t) ** 2))


@pytest.mark.parametrize("beta, sps", [(0.25, 2), (0.5, 2), (1.0, 4)])
def test_srrc_singular_taps_match_their_limits(beta, sps):
    # the grid hits t = 0 and |t| = 1/(4*beta), where the formula is 0/0
    filt = sigproc.srrc_taps(beta, 8, sps)
    t = (np.arange(len(filt.taps)) - filt.group_delay) / sps
    singular = (t == 0.0) | (np.abs(np.abs(t) - 1 / (4 * beta)) <= 1e-12)
    assert singular.sum() == 3
    scale = (np.linalg.norm(filt.taps[~singular])
             / np.linalg.norm(_srrc_general(t[~singular], beta)))
    for i in np.flatnonzero(singular):
        # the mean of both sides cancels the first-order slope term
        limit = scale * np.mean(_srrc_general(t[i] + np.array([-1e-7, 1e-7]), beta))
        assert filt.taps[i] == pytest.approx(limit, rel=1e-6)
    assert np.sum(filt.taps**2) == pytest.approx(1.0, abs=1e-12)


def test_srrc_rejects_bad_rolloff():
    with pytest.raises(ValueError):
        sigproc.srrc_taps(0.0, 8, 2)
    with pytest.raises(ValueError):
        sigproc.srrc_taps(1.5, 8, 2)


def test_pulse_shape_single_symbol_is_taps():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape([1.0 + 0j], filt, 20e6)
    assert np.allclose(wave.samples[: len(filt.taps)], filt.taps, atol=1e-14)
    assert np.argmax(np.abs(wave.samples)) == filt.group_delay


def test_pulse_shape_zero_symbols():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape(np.zeros(7, dtype=complex), filt, 20e6)
    assert len(wave.samples) == 7 * 2 + len(filt.taps) - 1
    assert not np.any(wave.samples)


def test_pulse_shape_power_matches_symbol_power():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=2000)
    sym = sigproc.modulate_psk(bits, 4)
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape(sym, filt, 20e6)
    energy_per_symbol = np.sum(np.abs(wave.samples) ** 2) / len(sym)
    assert energy_per_symbol == pytest.approx(1.0, rel=0.01)


def test_matched_filter_round_trip():
    rng = np.random.default_rng(5)
    sym = sigproc.modulate_psk(rng.integers(0, 2, size=400), 4)
    for span, evm_bound in ((8, 0.01), (32, 1e-3)):
        filt = sigproc.srrc_taps(0.25, span, 2)
        wave = sigproc.pulse_shape(sym, filt, 20e6)
        out = sigproc.matched_filter_downsample(wave, filt, n_symbols=len(sym))
        interior = slice(span, len(sym) - span)
        err = out[interior] - sym[interior]
        assert np.sqrt(np.mean(np.abs(err) ** 2)) < evm_bound


def test_matched_filter_single_symbol():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape([1j], filt, 20e6)
    out = sigproc.matched_filter_downsample(wave, filt)
    assert abs(out[0] - 1j) < 1e-3


def test_matched_filter_zero_waveform():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.Waveform(samples=np.zeros(64, dtype=complex),
                            sample_rate_hz=20e6, samples_per_symbol=2)
    out = sigproc.matched_filter_downsample(wave, filt)
    assert not np.any(out)


def test_matched_filter_rejects_short_waveform():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.Waveform(samples=np.zeros(4, dtype=complex),
                            sample_rate_hz=20e6, samples_per_symbol=2)
    with pytest.raises(ValueError):
        sigproc.matched_filter_downsample(wave, filt)


def test_awgn_zero_variance():
    out = sigproc.awgn(16, 0.0, np.random.default_rng(0))
    assert not np.any(out)


def test_awgn_variance_and_independence():
    n = 1_000_000
    out = sigproc.awgn(n, 2.0, np.random.default_rng(1))
    assert np.mean(np.abs(out) ** 2) == pytest.approx(2.0, abs=0.02)
    corr = np.mean(out.real * out.imag) / 1.0
    assert abs(corr) < 3.0 / np.sqrt(n)
    assert abs(np.mean(out)) < 3.0 * np.sqrt(2.0) / np.sqrt(n)


def test_awgn_deterministic_for_seed():
    a = sigproc.awgn(100, 1.0, np.random.default_rng(42))
    b = sigproc.awgn(100, 1.0, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_awgn_rejects_negative_variance():
    with pytest.raises(ValueError):
        sigproc.awgn(4, -1.0, np.random.default_rng(0))
