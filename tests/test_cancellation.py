"""Tests for training, LS channel estimation, and cancellation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fdsim import cancellation, channel, harness, link, sigproc
from fdsim.errors import EstimationError

FILT = sigproc.srrc_taps(0.25, 8, 2)


def short_channel(seed=3, n=8):
    rng = np.random.default_rng(seed)
    taps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.05
    return channel.BasebandChannel(taps=taps, sample_rate_hz=20e6)


def test_training_signal_deterministic():
    a = cancellation.make_training_signal(5, FILT, 20e6)
    b = cancellation.make_training_signal(5, FILT, 20e6)
    assert np.array_equal(a.waveform.samples, b.waveform.samples)
    assert np.all(np.abs(np.abs(a.symbols) - 1.0) < 1e-12)
    assert np.sum(np.abs(a.waveform.samples) ** 2) > 0


def test_training_signal_rejects_zero_symbols():
    with pytest.raises(ValueError):
        cancellation.make_training_signal(0, FILT, 20e6)


def test_noiseless_estimate_is_exact():
    h = short_channel()
    est = cancellation.run_training(h, 0.0, 5, 0.0, 8,
                                    np.random.default_rng(0), FILT)
    err = np.sum(np.abs(est.taps_hat - h.taps) ** 2)
    assert err / np.sum(np.abs(h.taps) ** 2) < 1e-9
    assert est.training_symbols_used == 5
    assert est.residual_training_error < 1e-12


def test_error_halves_when_power_doubles():
    h = short_channel()
    def mean_err(p_dbm, trials=150):
        tot = 0.0
        for t in range(trials):
            est = cancellation.run_training(h, p_dbm, 5, 1e-6, 8,
                                            np.random.default_rng(100 + t), FILT)
            tot += float(np.sum(np.abs(est.taps_hat - h.taps) ** 2))
        return tot / trials
    drop_db = -10.0 * math.log10(mean_err(3.0103) / mean_err(0.0))
    assert drop_db == pytest.approx(3.0, abs=0.5)


def test_error_halves_when_training_doubles():
    h = short_channel()
    def mean_err(n_tr, trials=150):
        tot = 0.0
        for t in range(trials):
            est = cancellation.run_training(h, 0.0, n_tr, 1e-6, 8,
                                            np.random.default_rng(500 + t), FILT)
            tot += float(np.sum(np.abs(est.taps_hat - h.taps) ** 2))
        return tot / trials
    drop_db = -10.0 * math.log10(mean_err(10) / mean_err(5))
    assert drop_db == pytest.approx(3.0, abs=0.5)


def test_order_longer_than_training_rejected():
    h = short_channel()
    with pytest.raises(EstimationError):
        cancellation.run_training(h, 0.0, 5, 0.0, 100,
                                  np.random.default_rng(0), FILT)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        cancellation.run_training(short_channel(), 0.0, 5, 0.0, 0,
                                  np.random.default_rng(0), FILT)


def data_waveform(seed=7, n_bits=400):
    rng = np.random.default_rng(seed)
    sym = sigproc.modulate_psk(rng.integers(0, 2, size=n_bits), 4)
    return sigproc.pulse_shape(sym, FILT, 20e6)


def test_perfect_estimate_cancels_exactly():
    h = short_channel()
    x = data_waveform()
    est = cancellation.ChannelEstimate(taps_hat=h.taps, training_symbols_used=5,
                                       residual_training_error=0.0)
    si = channel.apply_channel(x, h, 0.0)
    x_hat = cancellation.build_cancellation(x, est, 0.0)
    y = cancellation.cancel(si, x_hat)
    rel = np.sum(np.abs(y.samples) ** 2) / np.sum(np.abs(si.samples) ** 2)
    assert rel < 1e-12


def test_zero_estimate_is_passthrough():
    x = data_waveform()
    est = cancellation.ChannelEstimate(taps_hat=np.zeros(8, dtype=complex),
                                       training_symbols_used=5,
                                       residual_training_error=1.0)
    x_hat = cancellation.build_cancellation(x, est, 0.0)
    assert not np.any(x_hat.samples)
    y = cancellation.cancel(x, x_hat)
    assert np.allclose(y.samples[: len(x.samples)], x.samples, atol=1e-15)
    assert not np.any(y.samples[len(x.samples) :])


def test_build_cancellation_linearity():
    x = data_waveform()
    est = cancellation.ChannelEstimate(taps_hat=short_channel().taps,
                                       training_symbols_used=5,
                                       residual_training_error=0.0)
    a = cancellation.build_cancellation(x, est, 0.0)
    scaled = sigproc.Waveform(samples=2.5 * x.samples, sample_rate_hz=20e6,
                              samples_per_symbol=2, delay_samples=x.delay_samples)
    b = cancellation.build_cancellation(scaled, est, 0.0)
    assert np.allclose(b.samples, 2.5 * a.samples, atol=1e-14)


def test_cancel_rejects_rate_mismatch():
    x = data_waveform()
    other = sigproc.Waveform(samples=x.samples, sample_rate_hz=10e6,
                             samples_per_symbol=2)
    with pytest.raises(ValueError):
        cancellation.cancel(x, other)


def test_residual_matches_direct_reconstruction():
    # Eq. 8 two ways: cancel() subtraction vs direct error-convolution
    h = short_channel()
    x = data_waveform()
    rng = np.random.default_rng(21)
    est = cancellation.run_training(h, 0.0, 5, 1e-5, 8,
                                    np.random.default_rng(2), FILT)
    si = channel.apply_channel(x, h, 0.0)
    z = sigproc.awgn(len(si.samples), 1e-5, rng)
    noisy = sigproc.Waveform(samples=si.samples + z, sample_rate_hz=20e6,
                             samples_per_symbol=2, delay_samples=si.delay_samples)
    y = cancellation.cancel(noisy, cancellation.build_cancellation(x, est, 0.0))

    err = h.taps.astype(complex).copy()
    err[: len(est.taps_hat)] -= est.taps_hat
    direct = np.convolve(x.samples, err)
    direct_full = direct + z[: len(direct)]
    n = min(len(direct_full), len(y.samples))
    diff = np.sum(np.abs(y.samples[:n] - direct_full[:n]) ** 2)
    assert diff / np.sum(np.abs(direct_full[:n]) ** 2) < 1e-12


def test_residual_power_zero_for_perfect_estimate():
    h = short_channel()
    x = data_waveform()
    est = cancellation.ChannelEstimate(taps_hat=h.taps, training_symbols_used=5,
                                       residual_training_error=0.0)
    p = cancellation.residual_power(h, est, x, 0.0, np.zeros(1, dtype=complex))
    assert p < 1e-25


def test_residual_power_full_si_energy():
    # white input, so the residual power factorizes as P_x * sum|h|^2
    h = short_channel()
    rng = np.random.default_rng(33)
    white = (rng.standard_normal(100000) + 1j * rng.standard_normal(100000)) / np.sqrt(2)
    x = sigproc.Waveform(samples=white, sample_rate_hz=20e6, samples_per_symbol=2)
    est = cancellation.ChannelEstimate(taps_hat=np.zeros(8, dtype=complex),
                                       training_symbols_used=5,
                                       residual_training_error=1.0)
    p = cancellation.residual_power(h, est, x, 0.0, np.zeros(1, dtype=complex))
    expected = np.sum(np.abs(h.taps) ** 2)
    assert p == pytest.approx(expected, rel=0.01)


def test_residual_power_noise_floor():
    h = short_channel()
    x = data_waveform(n_bits=4000)
    est = cancellation.ChannelEstimate(taps_hat=h.taps, training_symbols_used=5,
                                       residual_training_error=0.0)
    z = sigproc.awgn(len(x.samples) + len(h.taps) - 1, 1e-4,
                     np.random.default_rng(17))
    p = cancellation.residual_power(h, est, x, 0.0, z)
    assert p == pytest.approx(1e-4, rel=0.05)


def _clear_caches():
    cancellation._training_burst.cache_clear()
    cancellation._training_solver.cache_clear()
    link._baseband_channel.cache_clear()


def test_cold_and_warm_caches_give_identical_results():
    cfg = link.LinkConfig(scheme="PS+B", n_bits=400, ebn0_db=25.0)
    spec = harness.SweepSpec(base=cfg, axis="bandwidth_hz", values=(10e6, 5e6),
                             schemes=("PS+B", "AC+B"), trials_per_point=2,
                             root_seed=3)
    _clear_caches()
    cold_report = link.run_trial(cfg, np.random.default_rng(4))
    warm_report = link.run_trial(cfg, np.random.default_rng(4))
    _clear_caches()
    cold_rows = harness.run_sweep(spec).rows
    assert harness.run_sweep(spec).rows == cold_rows
    assert cold_report == warm_report


def test_cached_training_arrays_are_read_only():
    training = cancellation.make_training_signal(5, FILT, 20e6)
    cancellation.run_training(short_channel(), 0.0, 5, 0.0, 8,
                              np.random.default_rng(0), FILT)
    conv, pinv, _ = cancellation._training_solver(5, 0.25, 8, 2, 20e6, 8, 33)
    for a in (training.symbols, training.waveform.samples, conv, pinv):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_cached_solve_matches_lstsq():
    h = short_channel()
    p_dbm, noise_var, order = 3.0, 1e-4, 8
    est = cancellation.run_training(h, p_dbm, 5, noise_var, order,
                                    np.random.default_rng(9), FILT)
    # the same model and noise draw, solved per call
    x = cancellation.make_training_signal(5, FILT, 20e6).waveform.samples
    amp = math.sqrt(channel.dbm_to_linear(p_dbm))
    n_rows = len(x) + len(h.taps) - 1
    r = amp * np.convolve(x, h.taps) + sigproc.awgn(n_rows, noise_var,
                                                    np.random.default_rng(9))
    mat = amp * cancellation._convolution_matrix(x, order, n_rows)
    ref = np.linalg.lstsq(mat, r, rcond=None)[0]
    assert np.max(np.abs(est.taps_hat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_configs_differing_in_solve_shape_do_not_share_entries():
    base = link.LinkConfig(scheme="AC+B", n_bits=400, ebn0_db=40.0)
    variants = [base, replace(base, n_taps=128), replace(base, estimator_order=20),
                replace(base, signal_bandwidth_hz=5e6)]
    _clear_caches()
    warm = [link.run_trial(cfg, np.random.default_rng(1)) for cfg in variants]
    assert cancellation._training_solver.cache_info().currsize == len(variants)
    for cfg, report in zip(variants, warm):
        _clear_caches()
        assert link.run_trial(cfg, np.random.default_rng(1)) == report
