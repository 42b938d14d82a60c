"""Tests for modulation, pulse shaping, matched filtering, and noise."""

import warnings

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


@pytest.mark.parametrize("bits", [[0.5, 1.7], [0.0, 0.5], [1.0, np.nan], [-0.0, -1.0]])
def test_modulate_rejects_non_binary_float_bits(bits):
    # a cast to integers would truncate 0.5 and 1.7 to valid bits
    with pytest.raises(ValueError, match="only 0 and 1"):
        sigproc.modulate_psk(bits, 4)


def test_modulate_takes_float_and_bool_bits():
    ref = sigproc.modulate_psk([0, 1, 1, 0], 4)
    for bits in ([0.0, 1.0, 1.0, 0.0], np.array([False, True, True, False])):
        assert np.array_equal(sigproc.modulate_psk(bits, 4), ref)


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


def _reference_constellation(m_order):
    k = np.arange(m_order)
    return np.exp(1j * (2.0 * np.pi * k / m_order + np.pi / m_order))


def _gray(n):
    return n ^ (n >> 1)


def _reference_modulate(bits, m_order):
    """The PSK mapping computed directly, without the lookup tables."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must contain only 0 and 1")
    points = _reference_constellation(m_order)
    n_b = int(np.log2(m_order))
    if bits.size % n_b:
        raise ValueError(f"bit count {bits.size} not divisible by log2(M) = {n_b}")
    groups = bits.reshape(-1, n_b)
    labels = groups @ (1 << np.arange(n_b - 1, -1, -1))
    inverse_gray = np.empty(m_order, dtype=np.int64)
    inverse_gray[_gray(np.arange(m_order))] = np.arange(m_order)
    return points[inverse_gray[labels]]


def _reference_demodulate(symbols, m_order):
    """Minimum-distance detection computed directly: |s - p|² via abs,
    a (symbols x points) layout and the bits shifted out of the labels."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    points = _reference_constellation(m_order)
    n_b = int(np.log2(m_order))
    if symbols.size == 0:
        return np.zeros(0, dtype=np.int64)
    d = np.abs(symbols[:, None] - points[None, :]) ** 2
    dmin = d.min(axis=1)
    k = np.argmax(d <= dmin[:, None] * (1.0 + 1e-9) + 1e-30, axis=1)
    labels = _gray(k)
    shifts = np.arange(n_b - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).reshape(-1).astype(np.int64)


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m", sigproc.SUPPORTED_ORDERS)
def test_every_label_maps_to_the_reference_symbol(m):
    n_b = int(np.log2(m))
    labels = np.arange(m)
    bits = ((labels[:, None] >> np.arange(n_b - 1, -1, -1)) & 1).reshape(-1)
    assert _same_bits(sigproc.modulate_psk(bits, m), _reference_modulate(bits, m))
    assert _same_bits(sigproc.constellation(m), _reference_constellation(m))


def _boundary_probes(m):
    """Symbols on every decision boundary (angle 2*pi*k/M) at three radii,
    and the same symbols turned by ±1e-12 and ±1e-9 of their modulus."""
    radii = np.array([0.3, 1.0, 3.0])[:, None]
    on = radii * np.exp(2j * np.pi * np.arange(m) / m)
    nudged = [on * (1.0 + 1j * eps) for eps in (1e-12, -1e-12, 1e-9, -1e-9)]
    return np.concatenate([on.ravel()] + [x.ravel() for x in nudged]
                          + [np.array([0.0, 1e-300, -1e-300j])])


@pytest.mark.parametrize("m", sigproc.SUPPORTED_ORDERS)
def test_demodulation_matches_the_reference(m):
    rng = np.random.default_rng(m)
    random = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000))
    for symbols in (random, _boundary_probes(m), _reference_constellation(m)):
        assert _same_bits(sigproc.demodulate_psk(symbols, m),
                          _reference_demodulate(symbols, m))


@pytest.mark.parametrize("m", sigproc.SUPPORTED_ORDERS)
@pytest.mark.parametrize("bad", [-1, 2])
def test_modulate_rejects_any_non_binary_bit(m, bad):
    bits = np.zeros(2 * int(np.log2(m)), dtype=np.int64)
    bits[1] = bad
    for modulate in (sigproc.modulate_psk, _reference_modulate):
        with pytest.raises(ValueError, match="only 0 and 1"):
            modulate(bits, m)


@pytest.mark.parametrize("m", sigproc.SUPPORTED_ORDERS)
def test_psk_tables_are_read_only(m):
    table = sigproc.psk_table(m)
    for name in ("points", "symbols", "weights", "bits"):
        array = getattr(table, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    points = sigproc.constellation(m)
    points[0] = 0.0  # a copy, not the table
    assert table.points[0] != 0.0


@pytest.mark.parametrize("n", [0, 1, 7, 40575])
def test_energy_is_the_sum_of_squared_moduli(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = sigproc.energy(x)
    assert type(out) is float
    assert out == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-13, abs=0)
    # a strided view and a real sequence go through a contiguous complex copy
    assert sigproc.energy(x[::2]) == pytest.approx(np.sum(np.abs(x[::2]) ** 2),
                                                   rel=1e-13, abs=0)
    assert sigproc.energy(x.real) == pytest.approx(np.sum(x.real ** 2), rel=1e-13, abs=0)


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


def test_srrc_tiny_rolloff_is_quiet_and_finite():
    # pi/(4*beta) overflows and no tap lies on |t| = 1/(4*beta), so the
    # edge limit, which would warn "invalid value", must not be evaluated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        taps = sigproc.srrc_taps(1e-320, 8, 2).taps
    assert np.all(np.isfinite(taps))
    assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(taps, sigproc.srrc_taps(1e-300, 8, 2).taps)


def test_srrc_rejects_bad_rolloff():
    with pytest.raises(ValueError):
        sigproc.srrc_taps(0.0, 8, 2)
    with pytest.raises(ValueError):
        sigproc.srrc_taps(1.5, 8, 2)


def test_pulse_shape_single_symbol_is_taps():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape([1.0 + 0j], filt)
    assert np.allclose(wave[: len(filt.taps)], filt.taps, atol=1e-14)
    assert np.argmax(np.abs(wave)) == filt.group_delay


def test_pulse_shape_rejects_empty_sequence():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    with pytest.raises(ValueError):
        sigproc.pulse_shape([], filt)


def test_pulse_shape_zero_symbols():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape(np.zeros(7, dtype=complex), filt)
    assert len(wave) == 7 * 2 + len(filt.taps) - 1
    assert not np.any(wave)


def test_pulse_shape_power_matches_symbol_power():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=2000)
    sym = sigproc.modulate_psk(bits, 4)
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape(sym, filt)
    energy_per_symbol = np.sum(np.abs(wave) ** 2) / len(sym)
    assert energy_per_symbol == pytest.approx(1.0, rel=0.01)


def test_matched_filter_round_trip():
    rng = np.random.default_rng(5)
    sym = sigproc.modulate_psk(rng.integers(0, 2, size=400), 4)
    for span, evm_bound in ((8, 0.01), (32, 1e-3)):
        filt = sigproc.srrc_taps(0.25, span, 2)
        wave = sigproc.pulse_shape(sym, filt)
        out = sigproc.matched_filter_downsample(wave, filt, n_symbols=len(sym))
        interior = slice(span, len(sym) - span)
        err = out[interior] - sym[interior]
        assert np.sqrt(np.mean(np.abs(err) ** 2)) < evm_bound


def test_matched_filter_single_symbol():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = sigproc.pulse_shape([1j], filt)
    out = sigproc.matched_filter_downsample(wave, filt)
    assert abs(out[0] - 1j) < 1e-3


def test_matched_filter_zero_waveform():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = np.zeros(64, dtype=complex)
    out = sigproc.matched_filter_downsample(wave, filt)
    assert not np.any(out)


def test_matched_filter_rejects_short_waveform():
    filt = sigproc.srrc_taps(0.25, 8, 2)
    wave = np.zeros(4, dtype=complex)
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


@pytest.mark.parametrize("n", [0, 1, 7, 40575])
@pytest.mark.parametrize("variance", [0.0, 0.3])
def test_awgn_keeps_the_noise_stream(n, variance):
    # the real halves, then the imaginary halves, as two standard_normal(n)
    # draws; zero variance draws nothing
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    out = sigproc.awgn(n, variance, rng)
    if variance:
        scale = np.sqrt(variance / 2.0)
        ref = scale * (ref_rng.standard_normal(n) + 1j * ref_rng.standard_normal(n))
    else:
        ref = np.zeros(n, dtype=np.complex128)
    assert out.dtype == np.complex128 and np.array_equal(out, ref)
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_awgn_rejects_negative_variance():
    with pytest.raises(ValueError):
        sigproc.awgn(4, -1.0, np.random.default_rng(0))


@pytest.mark.parametrize("variance", [np.nan, np.inf])
def test_awgn_rejects_a_non_finite_variance(variance):
    # neither may surface as NaN or infinite samples
    with pytest.raises(ValueError):
        sigproc.awgn(3, variance, np.random.default_rng(0))
