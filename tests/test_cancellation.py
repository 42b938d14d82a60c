"""Tests for training, LS channel estimation, and cancellation."""

import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

import reference
from fdsim import cancellation, channel, harness, link, sigproc
from fdsim._kernels import phase_spectrum, upsample_convolve_fft
from fdsim.errors import EstimationError

FILT = sigproc.srrc_taps(0.25, 8, 2)


def short_channel(seed=3, n=8):
    rng = np.random.default_rng(seed)
    taps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.05
    return channel.BasebandChannel(taps=taps)


def model(n_tr, order, h, filt=FILT):
    return cancellation.training_model(cancellation.make_training_signal(n_tr, filt),
                                       order, h)


def train(h, p_dbm, n_tr, noise_var, order, rng):
    m = model(n_tr, order, h)
    return cancellation.run_training(m, p_dbm, sigproc.awgn(len(m.response), noise_var, rng))


def test_training_signal_deterministic():
    a = cancellation.make_training_signal(5, FILT)
    b = cancellation.make_training_signal(5, FILT)
    assert np.array_equal(a, b)
    assert np.sum(np.abs(a) ** 2) > 0


def test_training_signal_rejects_zero_symbols():
    with pytest.raises(ValueError):
        cancellation.make_training_signal(0, FILT)


def test_training_burst_is_shaped_by_the_given_filter():
    # a hand-built filter with non-SRRC taps shapes the burst itself
    filt = sigproc.SrrcFilter(taps=np.hanning(17), samples_per_symbol=2)
    symbols = sigproc.psk_table(4).points[np.resize(cancellation.TRAINING_PATTERN, 7)]
    assert np.array_equal(cancellation.make_training_signal(7, filt),
                          sigproc.pulse_shape(symbols, filt))


def test_noiseless_estimate_is_exact():
    h = short_channel()
    est = train(h, 0.0, 5, 0.0, 8, np.random.default_rng(0))
    assert isinstance(est, np.ndarray) and est.shape == (8,)
    err = np.sum(np.abs(est - h.taps) ** 2)
    assert err / np.sum(np.abs(h.taps) ** 2) < 1e-9


def test_error_halves_when_power_doubles():
    h = short_channel()
    def mean_err(p_dbm, trials=150):
        tot = 0.0
        for t in range(trials):
            est = train(h, p_dbm, 5, 1e-6, 8, np.random.default_rng(100 + t))
            tot += float(np.sum(np.abs(est - h.taps) ** 2))
        return tot / trials
    drop_db = -10.0 * math.log10(mean_err(3.0103) / mean_err(0.0))
    assert drop_db == pytest.approx(3.0, abs=0.5)


def test_error_halves_when_training_doubles():
    h = short_channel()
    def mean_err(n_tr, trials=150):
        tot = 0.0
        for t in range(trials):
            est = train(h, 0.0, n_tr, 1e-6, 8, np.random.default_rng(500 + t))
            tot += float(np.sum(np.abs(est - h.taps) ** 2))
        return tot / trials
    drop_db = -10.0 * math.log10(mean_err(10) / mean_err(5))
    assert drop_db == pytest.approx(3.0, abs=0.5)


def test_order_longer_than_training_rejected():
    with pytest.raises(EstimationError):
        model(5, 100, short_channel())


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        model(5, 0, short_channel())


def test_all_zero_burst_rejected():
    # rank 0: every column of the convolution matrix is zero
    with pytest.raises(EstimationError, match="degenerate"):
        cancellation.training_model(np.zeros(20, dtype=np.complex128), 8, short_channel())


def test_model_rows_follow_the_channel():
    burst = cancellation.make_training_signal(5, FILT)
    for n in (8, 9):
        m = model(5, 8, short_channel(n=n))
        assert m.pinv.shape == (8, len(burst) + n - 1)
        assert m.response.shape == (len(burst) + n - 1,)


def data_symbols(seed=7, n_bits=400):
    rng = np.random.default_rng(seed)
    return sigproc.modulate_psk(rng.integers(0, 2, size=n_bits), 4)


def test_perfect_estimate_cancels_exactly():
    h = short_channel()
    x = sigproc.pulse_shape(data_symbols(), FILT)
    si = np.convolve(x, h.taps)
    y = reference.si_less_replica(x, h.taps, h.taps, 0.0)
    assert y.shape == si.shape
    assert sigproc.energy(y) / sigproc.energy(si) < 1e-12


def test_residual_matches_direct_reconstruction():
    # Eq. 8 two ways: the trial's subtraction inside the SI spectrum vs
    # the direct error convolution, for a noisy LS estimate
    h = short_channel()
    sym = data_symbols()
    est = train(h, 0.0, 5, 1e-5, 8, np.random.default_rng(2))
    replica = np.convolve(FILT.taps, est)
    spectrum = phase_spectrum(np.convolve(FILT.taps, h.taps), 2, len(sym), len(replica))
    y = upsample_convolve_fft(sym, spectrum, minus=replica)
    x = sigproc.pulse_shape(sym, FILT)
    direct = reference.eq8_residual(x, h.taps, est, 0.0)
    assert y.shape == direct.shape
    assert sigproc.energy(direct) > 0.0
    for ref in (direct, reference.si_less_replica(x, h.taps, est, 0.0)):
        assert sigproc.energy(y - ref) / sigproc.energy(ref) < 1e-12


def _clear_si_channel_cache():
    link._baseband_channel.cache_clear()


def test_cold_and_warm_si_channel_cache_give_identical_results():
    cfg = link.LinkConfig(scheme="PS+B", n_bits=400, ebn0_db=25.0)
    spec = harness.SweepSpec(base=cfg, axis="bandwidth_hz", values=(10e6, 5e6),
                             schemes=link.SCHEMES, trials_per_point=2,
                             root_seed=3)
    _clear_si_channel_cache()
    cold_report = link.run_trial(cfg, np.random.default_rng(4))
    warm_report = link.run_trial(cfg, np.random.default_rng(4))
    _clear_si_channel_cache()
    cold_rows = harness.run_sweep(spec).rows
    assert harness.run_sweep(spec).rows == cold_rows
    assert cold_report == warm_report


def test_training_model_arrays_are_read_only():
    h = short_channel()
    burst = cancellation.make_training_signal(5, FILT)
    m = cancellation.training_model(burst, 8, h)
    assert m.pinv.shape == (8, len(burst) + 7)
    # the held response is the burst through the channel, bit for bit
    assert np.array_equal(m.response, np.convolve(burst, h.taps))
    for a in (m.pinv, m.response):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_design_holds_a_training_model_for_baseband_schemes_only(scheme):
    cfg = link.LinkConfig(scheme=scheme, n_bits=400)
    design = link.trial_design(cfg)
    if not cfg.uses_baseband_cancellation:
        assert design.training is None
        return
    m = design.training
    burst = cancellation.make_training_signal(cfg.n_training, design.filt)
    n_rows = len(burst) + len(design.h_aa.taps) - 1
    assert m.pinv.shape == (cfg.estimator_order, n_rows)
    # a left inverse of the burst's convolution matrix
    conv = cancellation._convolution_matrix(burst, cfg.estimator_order, n_rows)
    assert np.max(np.abs(m.pinv @ conv - np.eye(cfg.estimator_order))) < 1e-9
    assert np.array_equal(m.response, np.convolve(burst, design.h_aa.taps))


@pytest.mark.parametrize("scheme", ["PS+B", "AC+B"])
def test_design_training_model_holds_only_pinv_and_response(scheme):
    # one form of the pseudo-inverse is kept, the complex one, and the
    # training solve's real product over its (re, im) pairs equals pinv @ r
    m = link.trial_design(link.LinkConfig(scheme=scheme, n_bits=400)).training
    assert [f.name for f in fields(m)] == ["pinv", "response"]
    for a in (m.pinv, m.response):
        assert not a.flags.writeable and a.flags.c_contiguous
    assert m.pinv.dtype == np.complex128 and m.pinv.shape[1] == len(m.response)
    p_dbm, noise_var = 3.0, 1e-4
    got = cancellation.run_training(
        m, p_dbm, sigproc.awgn(len(m.response), noise_var, np.random.default_rng(0)))
    amp = math.sqrt(channel.dbm_to_linear(p_dbm))
    r = amp * m.response + sigproc.awgn(len(m.response), noise_var, np.random.default_rng(0))
    want = (m.pinv @ r) / amp
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _training_matrix(cfg: link.LinkConfig) -> np.ndarray:
    filt = sigproc.srrc_taps(cfg.rolloff, cfg.span_symbols, cfg.samples_per_symbol)
    burst = cancellation.make_training_signal(cfg.n_training, filt)
    return cancellation._convolution_matrix(burst, cfg.estimator_order,
                                            len(burst) + cfg.n_taps - 1)


def _lapack_pinv(a: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(a, rtol=np.finfo(np.float64).eps * max(a.shape))


@pytest.mark.parametrize("bandwidth_hz", [10e6, 2e6, 0.5e6])
def test_pinv_matches_lapack_pinv(bandwidth_hz):
    # condition numbers 217, 725 and 2.0e3, all taking the Gram route
    cfg = link.LinkConfig(scheme="PS+B", signal_bandwidth_hz=bandwidth_hz)
    want = _lapack_pinv(_training_matrix(cfg))
    got = link.trial_design(cfg).training.pinv
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def _matrix_with_singular_values(s: np.ndarray, n_rows: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((n_rows, len(s)))
                     + 1j * rng.standard_normal((n_rows, len(s))))[0]
    v = np.linalg.qr(rng.standard_normal((len(s),) * 2)
                     + 1j * rng.standard_normal((len(s),) * 2))[0]
    return (u * s) @ v.conj().T


@pytest.mark.parametrize("smallest", [1e-3, 1e-7, 1e-12, 1e-18])
def test_ill_conditioned_pinv_takes_householder_and_keeps_the_rank_rule(
        monkeypatch, smallest):
    # past MAX_GRAM_LOSS (condition ~1e5) the pseudo-inverse comes from a
    # Householder QR factor; singular values below eps * n_rows (4.4e-14)
    # of the largest are cut, as by np.linalg.pinv
    a = _matrix_with_singular_values(np.geomspace(1.0, smallest, 12), 200)
    calls = []
    householder = cancellation._householder_qr
    monkeypatch.setattr(cancellation, "_householder_qr",
                        lambda m: calls.append(m.shape) or householder(m))
    got = cancellation._pinv(a)
    assert calls == ([] if smallest == 1e-3 else [a.shape])
    want = _lapack_pinv(a)
    assert np.linalg.matrix_rank(got, rtol=1e-6) == np.linalg.matrix_rank(want, rtol=1e-6)
    # the least-squares fit of a right-hand side agrees within the rounding
    # that the condition number of the kept part allows
    b = np.random.default_rng(6).standard_normal(len(a)) + 0j
    kept = max(smallest, np.finfo(np.float64).eps * len(a))
    fit_got, fit_want = a @ (got @ b), a @ (want @ b)
    assert np.linalg.norm(fit_got - fit_want) <= 1e-12 / kept * np.linalg.norm(b)


def test_householder_qr_is_orthonormal_and_reproduces_the_matrix():
    a = _training_matrix(link.LinkConfig(scheme="PS+B", signal_bandwidth_hz=0.5e6))
    q, r = cancellation._householder_qr(a)
    assert q.shape == a.shape and r.shape == (a.shape[1],) * 2
    assert np.array_equal(r, np.triu(r))
    assert np.max(np.abs(q.conj().T @ q - np.eye(a.shape[1]))) < 1e-14
    assert np.linalg.norm(q @ r - a) < 1e-14 * np.linalg.norm(a)


def test_pinv_is_byte_identical_at_one_and_two_blas_threads():
    # every workload's bandwidth, and order 64 at 0.5 MHz; LAPACK's SVD of
    # the tall matrix rounded differently at 0.5 MHz on two threads, and
    # its SVD of a 128 x 128 matrix still does
    code = ("import hashlib\n"
            "from fdsim import link\n"
            "cfgs = [link.LinkConfig(scheme='AC+B', signal_bandwidth_hz=bw)\n"
            "        for bw in (10e6, 5e6, 4e6, 2e6, 1e6, 0.5e6)]\n"
            "cfgs.append(link.LinkConfig(scheme='AC+B', signal_bandwidth_hz=0.5e6,\n"
            "                            estimator_order=64))\n"
            "for cfg in cfgs:\n"
            "    m = link.trial_design(cfg).training.pinv\n"
            "    print(hashlib.sha256(m.tobytes()).hexdigest())\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(link.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        outputs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, check=True, env=env).stdout)
    assert len(set(outputs[0].split())) == 7
    assert outputs[0] == outputs[1]


def test_trial_design_arrays_are_read_only():
    cfg = link.LinkConfig(scheme="AC", signal_bandwidth_hz=2e6)
    design = link.trial_design(cfg)
    for a in (design.filt.taps, design.si_spectrum.spectra, design.h_aa.taps):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_pinv_solve_matches_lstsq():
    h = short_channel()
    p_dbm, noise_var, order = 3.0, 1e-4, 8
    est = train(h, p_dbm, 5, noise_var, order, np.random.default_rng(9))
    # the same model and noise draw, solved per call
    x = cancellation.make_training_signal(5, FILT)
    amp = math.sqrt(channel.dbm_to_linear(p_dbm))
    n_rows = len(x) + len(h.taps) - 1
    r = amp * np.convolve(x, h.taps) + sigproc.awgn(n_rows, noise_var,
                                                    np.random.default_rng(9))
    # column k is the burst delayed by k samples
    mat = amp * np.column_stack([np.concatenate([np.zeros(k), x, np.zeros(n_rows - len(x) - k)])
                                 for k in range(order)])
    ref = np.linalg.lstsq(mat, r, rcond=None)[0]
    assert np.max(np.abs(est - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("sps", [2, 20, 40])
def test_convolution_matrix_matches_scipy_toeplitz(sps):
    cfg = link.LinkConfig()
    burst = cancellation.make_training_signal(
        cfg.n_training, sigproc.srrc_taps(cfg.rolloff, cfg.span_symbols, sps))
    order, n_rows = cfg.estimator_order, len(burst) + cfg.n_taps - 1
    col = np.zeros(n_rows, dtype=np.complex128)
    col[: len(burst)] = burst
    conv = cancellation._convolution_matrix(burst, order, n_rows)
    ref = toeplitz(col, np.zeros(order))
    assert conv.dtype == ref.dtype and conv.flags.c_contiguous
    assert np.array_equal(conv, ref)


def test_configs_differing_in_solve_shape_get_their_own_training_models():
    base = link.LinkConfig(scheme="AC+B", n_bits=400, ebn0_db=40.0)
    variants = [base, replace(base, n_taps=128), replace(base, estimator_order=20),
                replace(base, signal_bandwidth_hz=5e6)]
    models = [link.trial_design(cfg).training for cfg in variants]
    assert len({(m.pinv.shape, m.response.shape) for m in models}) == len(variants)
    warm = [link.run_trial(cfg, np.random.default_rng(1)) for cfg in variants]
    for cfg, report in zip(variants, warm):
        _clear_si_channel_cache()
        assert link.run_trial(cfg, np.random.default_rng(1)) == report
