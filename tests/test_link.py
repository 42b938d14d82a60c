"""Tests for the single-trial orchestration and link metrics."""

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fdsim import cancellation, channel, link, sigproc
from fdsim.errors import ConfigError
from fdsim.link import LinkConfig, LinkReport, run_trial


def test_config_rejects_inconsistent_modulation():
    with pytest.raises(ConfigError):
        LinkConfig(n_b=2, mod_order=8)


def test_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        LinkConfig(scheme="XY")


def test_config_rejects_non_integer_oversampling():
    with pytest.raises(ConfigError):
        LinkConfig(signal_bandwidth_hz=7e6)


def test_config_rejects_bandwidth_above_rate():
    with pytest.raises(ConfigError):
        LinkConfig(signal_bandwidth_hz=40e6)


def test_config_rejects_indivisible_bits():
    with pytest.raises(ConfigError):
        LinkConfig(n_bits=2001)


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("n_bits", 0), ("n_bits", -2), ("n_bits", 1),
    ("channel_bandwidth_hz", 30e6), ("channel_bandwidth_hz", 0.0),
    ("ebn0_db", -1000.5), ("ebn0_db", 1e4),
])
def test_config_rejects_out_of_range_keys(key, value):
    with pytest.raises(ConfigError, match=key):
        LinkConfig(**{key: value})


def test_config_accepts_the_ends_of_the_ebn0_range():
    for ebn0_db in link.EBN0_RANGE_DB + (math.inf,):
        LinkConfig(ebn0_db=ebn0_db)
    with pytest.raises(ConfigError, match="ebn0_db"):
        LinkConfig(ebn0_db=-math.inf)


def test_config_rejects_order_beyond_training():
    # (1 + 8) * 2 = 18 training samples cannot identify the default 26 taps
    with pytest.raises(ConfigError, match="estimator_order"):
        LinkConfig(scheme="PS+B", n_training=1)
    LinkConfig(scheme="PS", n_training=1)  # no canceller, nothing to identify
    LinkConfig(scheme="PS+B", n_training=1, estimator_order=18)


def test_config_rejects_order_beyond_channel():
    # the replica of a 26-tap estimate would outlast an 8-tap channel's frame
    with pytest.raises(ConfigError, match="estimator_order 26 exceeds n_taps = 8"):
        LinkConfig(scheme="PS+B", n_taps=8, n_bits=400)
    with pytest.raises(ConfigError, match="estimator_order 20 exceeds n_taps = 16"):
        LinkConfig(scheme="AC+B", n_taps=16, estimator_order=20)
    LinkConfig(scheme="PS", n_taps=8)  # no canceller, no replica
    run_trial(LinkConfig(scheme="PS+B", n_taps=16, estimator_order=16, n_bits=400))


def test_scheme_default_carriers():
    assert LinkConfig(scheme="PS").carrier_hz == pytest.approx(2.438e9)
    assert LinkConfig(scheme="AC+B").carrier_hz == pytest.approx(2.457e9)
    assert LinkConfig(scheme="PS", f_c_hz=2.44e9).carrier_hz == 2.44e9


def test_report_enforces_rate_consistency():
    with pytest.raises(ValueError):
        LinkReport(sinr_db=10.0, ber=0.0, rate_bps_hz=1.0,
                   residual_power_dbm=-100.0, estimate_error_db=None,
                   config=LinkConfig())


def test_ber_counts_flips():
    a = np.zeros(2000, dtype=int)
    b = a.copy()
    b[[5, 100, 1999]] = 1
    assert link.ber(a, b) == pytest.approx(0.0015)
    assert link.ber(a, a) == 0.0
    assert link.ber(a, 1 - a) == 1.0
    # the CLI writes it with repr, which must read back as a float
    assert type(link.ber(a, b)) is float and type(link.ber([], [])) is float


def test_mean_power_zero_pads_to_the_window():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    for n in (300, 301, 1000):
        ref = np.sum(np.abs(x) ** 2) / n
        assert link._mean_power(x, n) == pytest.approx(ref, rel=1e-13, abs=0)
    assert link._mean_power(x) == link._mean_power(x, 300)
    assert link._mean_power(x[:0], 5) == 0.0


def test_ber_rejects_length_mismatch():
    with pytest.raises(ValueError):
        link.ber([0, 1], [0])


def test_sinr_definition():
    a = np.full(100, 1e-3 + 0j)
    assert link.sinr(a, a) == pytest.approx(0.0, abs=1e-12)
    d = np.full(100, 1e-3 + 0j)   # -60 dBm
    r = np.full(100, 1e-4 + 0j)   # -80 dBm
    assert link.sinr(d, r) == pytest.approx(20.0, abs=1e-9)


def test_sinr_zero_residual_is_infinite():
    d = np.ones(10, dtype=complex)
    assert link.sinr(d, np.zeros(10, dtype=complex)) == math.inf


def test_sinr_rejects_window_mismatch():
    with pytest.raises(ValueError):
        link.sinr(np.ones(4, dtype=complex), np.ones(5, dtype=complex))


def test_ebn0_to_noise_variance():
    assert link.ebn0_to_noise_variance(0.0, 1.0, 1, 1) == pytest.approx(1.0)
    one = link.ebn0_to_noise_variance(12.0, 1.0, 1, 2)
    two = link.ebn0_to_noise_variance(12.0, 1.0, 2, 2)
    assert two == pytest.approx(one / 2.0)
    assert link.ebn0_to_noise_variance(math.inf, 1.0, 2, 2) == 0.0


def test_noiseless_trial_is_error_free():
    # long training and full-order estimator make the LS estimate exact
    cfg = LinkConfig(scheme="PS+B", ebn0_db=math.inf, n_training=128,
                     estimator_order=256)
    rep = run_trial(cfg, np.random.default_rng(5))
    assert rep.ber == 0.0
    # residual is numerical dust relative to the SI power
    assert rep.sinr_db > 200.0
    assert rep.estimate_error_db < -200.0


@pytest.mark.parametrize("scheme", link.SCHEMES)
@pytest.mark.parametrize("bandwidth_hz", [10e6, 0.5e6])
def test_trial_si_equals_sample_rate_channel(monkeypatch, scheme, bandwidth_hz):
    # with no noise and a far-node signal ~1e-28 of the SI, the matched
    # filter's input is the trial's self-interference, after the replica
    # is subtracted for +B
    monkeypatch.setattr(channel, "make_desired_channel",
                        lambda p_rb_dbm, p_tb_dbm, rng: channel.DesiredChannel(1e-30, p_rb_dbm))
    seen = []
    matched_filter = sigproc.matched_filter_downsample

    def capture(wave, *args, **kwargs):
        seen.append(wave.samples)
        return matched_filter(wave, *args, **kwargs)

    monkeypatch.setattr(sigproc, "matched_filter_downsample", capture)
    cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=bandwidth_hz,
                     ebn0_db=math.inf, p_ta_dbm=7.0, n_bits=600)
    design = link.trial_design(cfg)
    run_trial(cfg, np.random.default_rng(3), design)

    # the same draws: training noise first, then the data bits
    rng = np.random.default_rng(3)
    sps = cfg.samples_per_symbol
    h_aa = link.self_interference_channel(cfg)
    estimate = None
    if cfg.uses_baseband_cancellation:
        noise_var = link.ebn0_to_noise_variance(
            cfg.ebn0_db, channel.dbm_to_linear(cfg.p_rb_dbm) / sps, cfg.n_b, sps)
        estimate = cancellation.run_training(h_aa, cfg.p_ta_dbm, noise_var, rng,
                                             design.training)
    bits_a = rng.integers(0, 2, size=cfg.n_bits)
    filt = sigproc.srrc_taps(cfg.rolloff, cfg.span_symbols, sps)
    x_a = sigproc.pulse_shape(sigproc.modulate_psk(bits_a, cfg.mod_order), filt,
                              cfg.sample_rate_hz)
    si = channel.apply_channel(x_a, h_aa, cfg.p_ta_dbm)
    ref = si
    if estimate is not None:
        ref = cancellation.cancel(si, cancellation.build_cancellation(x_a, estimate,
                                                                      cfg.p_ta_dbm))
    assert seen[0].shape == ref.samples.shape
    assert np.max(np.abs(seen[0] - ref.samples)) <= 1e-12 * np.max(np.abs(si.samples))
    assert link._mean_power(seen[0]) == pytest.approx(link._mean_power(ref.samples),
                                                      rel=1e-9)


@pytest.mark.parametrize("scheme", link.SCHEMES)
@pytest.mark.parametrize("n_bits", [2, 4, 8, 16])
def test_short_frame_has_finite_sinr(scheme, n_bits):
    # the transient-free window would start after the desired waveform
    # ends, so the SINR is measured over the whole frame
    cfg = LinkConfig(scheme=scheme, n_bits=n_bits)
    assert cfg.samples_per_symbol == 2
    design = link.trial_design(cfg)
    assert (design.head, design.tail) == (0, n_bits // cfg.n_b * 2 + design.si_spectrum.n_taps - 1)
    rep = run_trial(cfg, np.random.default_rng(4), design)
    assert math.isfinite(rep.sinr_db) and math.isfinite(rep.rate_bps_hz)


def test_design_window_skips_the_transients():
    cfg = LinkConfig()
    design = link.trial_design(cfg)
    n_full = cfg.n_bits // cfg.n_b * 2 + design.si_spectrum.n_taps - 1
    gd = design.filt.group_delay
    assert design.head == 2 * gd + channel.support_length(design.h_aa.taps, 0.9999)
    assert design.tail == n_full - 2 * gd
    assert design.si_tap_energy == float(np.sum(np.abs(design.h_aa.taps) ** 2))


def test_trial_deterministic_for_seed():
    cfg = LinkConfig(scheme="AC+B", ebn0_db=30.0, seed=9)
    a = run_trial(cfg)
    b = run_trial(cfg)
    assert a == b


@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_given_design_equals_built_design(scheme):
    cfg = LinkConfig(scheme=scheme, ebn0_db=30.0, n_bits=400)
    design = link.trial_design(cfg)
    assert design.config == cfg
    assert (run_trial(cfg, np.random.default_rng(6))
            == run_trial(cfg, np.random.default_rng(6), design))


def _design_arrays(obj):
    """Every array held by a trial design, through its nested dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _design_arrays(getattr(obj, f.name))


@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_trials_leave_their_shared_design_untouched(scheme):
    # the trial scales, adds and transforms its waveforms in place; none of
    # that may reach the design its trials share
    cfg = LinkConfig(scheme=scheme, ebn0_db=20.0, signal_bandwidth_hz=2e6, n_bits=400)
    design = link.trial_design(cfg)
    for t in range(3):
        run_trial(cfg, np.random.default_rng(t), design)
    arrays = list(_design_arrays(design))
    fresh = list(_design_arrays(link.trial_design(cfg)))
    assert len(arrays) == len(fresh) >= 3
    for a, b in zip(arrays, fresh):
        assert not a.flags.writeable
        assert np.array_equal(a, b)


#: Peak traced allocation of one warm narrowband trial, in received frames
#: (40 575 complex128 samples, 649 kB): the trial holds at most the frame,
#: one more frame-length waveform or the SI's FFT buffer, and a half-size
#: scratch array.  Measured 2.59 (PS) and 2.60 (PS+B); 6.6 and 7.6 when
#: each step of the frame allocated its own arrays.
ALLOCATION_BOUND_FRAMES = 3.0


@pytest.mark.parametrize("scheme", ["PS", "PS+B"])
def test_narrowband_trial_allocates_little_beyond_its_frame(scheme):
    cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=0.5e6, ebn0_db=20.0)
    design = link.trial_design(cfg)
    frame_bytes = (cfg.n_bits // cfg.n_b * cfg.samples_per_symbol
                   + design.si_spectrum.n_taps - 1) * 16
    assert frame_bytes == 40575 * 16
    run_trial(cfg, np.random.default_rng(0), design)  # warm
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_trial(cfg, np.random.default_rng(1), design)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= ALLOCATION_BOUND_FRAMES * frame_bytes


def test_design_for_another_config_is_rejected():
    cfg = LinkConfig(scheme="PS+B", n_bits=400)
    other = link.trial_design(replace(cfg, p_ta_dbm=3.0))
    with pytest.raises(ValueError, match="another config"):
        run_trial(cfg, np.random.default_rng(0), other)


def test_noise_only_residual_hits_noise_floor():
    # without self-interference the residual is pure noise, so the SINR
    # lands on P_Rb / sigma_z^2 (equal to Eb/N0 at the QPSK defaults)
    cfg = LinkConfig(scheme="PS", p_ta_dbm=-400.0, ebn0_db=20.0, n_bits=20000)
    vals = [run_trial(cfg, np.random.default_rng(40 + t)).sinr_db
            for t in range(5)]
    assert np.mean(vals) == pytest.approx(20.0, abs=0.3)


def test_rf_only_schemes_skip_training():
    rep = run_trial(LinkConfig(scheme="PS", ebn0_db=30.0))
    assert rep.estimate_error_db is None
    rep_b = run_trial(LinkConfig(scheme="PS+B", ebn0_db=30.0))
    assert rep_b.estimate_error_db is not None


def test_baseband_cancellation_beats_rf_only():
    g_ps = run_trial(LinkConfig(scheme="PS", ebn0_db=30.0),
                     np.random.default_rng(1)).sinr_db
    g_psb = run_trial(LinkConfig(scheme="PS+B", ebn0_db=30.0),
                      np.random.default_rng(1)).sinr_db
    assert g_psb > g_ps + 20.0


def test_gain_ratios_zero_for_identical_sinr():
    reports = {}
    for scheme in link.SCHEMES:
        cfg = LinkConfig(scheme=scheme)
        reports[scheme] = LinkReport(sinr_db=7.0, ber=0.01,
                                     rate_bps_hz=link.rate_from_sinr_db(7.0),
                                     residual_power_dbm=-70.0,
                                     estimate_error_db=None, config=cfg)
    ratios = link.sinr_gain_ratios(reports)
    assert all(v == pytest.approx(0.0) for v in ratios.values())


def test_gain_ratios_require_comparable_configs():
    reports = {}
    for scheme in link.SCHEMES:
        ebn0 = 10.0 if scheme == "PS" else 20.0
        cfg = LinkConfig(scheme=scheme, ebn0_db=ebn0)
        reports[scheme] = LinkReport(sinr_db=7.0, ber=0.01,
                                     rate_bps_hz=link.rate_from_sinr_db(7.0),
                                     residual_power_dbm=-70.0,
                                     estimate_error_db=None, config=cfg)
    with pytest.raises(ValueError):
        link.sinr_gain_ratios(reports)


def test_gain_ratios_require_all_schemes():
    with pytest.raises(ValueError):
        link.sinr_gain_ratios({})


def test_rate_difference_formula():
    def report(scheme, sinr_db):
        return LinkReport(sinr_db=sinr_db, ber=0.0,
                          rate_bps_hz=link.rate_from_sinr_db(sinr_db),
                          residual_power_dbm=-100.0, estimate_error_db=None,
                          config=LinkConfig(scheme=scheme))
    dr = link.rate_difference(report("PS+B", 15.0), report("AC+B", 7.0))
    expected = math.log2(1 + 10**1.5) - math.log2(1 + 10**0.7)
    assert dr == pytest.approx(expected, abs=1e-12)
    assert link.rate_difference(report("PS+B", 9.0), report("AC+B", 9.0)) == 0.0
