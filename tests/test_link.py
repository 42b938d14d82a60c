"""Tests for the single-trial orchestration and link metrics."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference
from fdsim import cancellation, channel, harness, link, sigproc
from fdsim._kernels import upsample_convolve_fft
from fdsim.errors import ConfigError
from fdsim.link import LinkConfig, LinkReport, run_trial

INT_KEYS = sorted(f.name for f in dataclasses.fields(LinkConfig) if f.type == "int")


def test_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        LinkConfig(scheme="XY")


def test_config_rejects_non_integer_oversampling():
    with pytest.raises(ConfigError, match="sample_rate_hz / signal_bandwidth_hz"):
        LinkConfig(signal_bandwidth_hz=7e6)


def test_config_rejects_bandwidth_above_rate():
    with pytest.raises(ConfigError):
        LinkConfig(signal_bandwidth_hz=40e6)


def test_config_rejects_indivisible_bits():
    with pytest.raises(ConfigError):
        LinkConfig(n_bits=2001)


@pytest.mark.parametrize("key, value", [
    ("n_bits", 0), ("n_bits", -2), ("n_bits", 1),
    ("channel_bandwidth_hz", 30e6), ("channel_bandwidth_hz", 0.0),
    ("ebn0_db", -1000.5), ("ebn0_db", 1e4),
    # sample_rate_hz / signal_bandwidth_hz overflows to inf
    ("signal_bandwidth_hz", 5e-324),
    ("sample_rate_hz", 0.0), ("sample_rate_hz", -20e6),
])
def test_config_rejects_out_of_range_keys(key, value):
    with pytest.raises(ConfigError, match=f"^{key}"):
        LinkConfig(**{key: value})


@pytest.mark.parametrize("build", [
    lambda: LinkConfig(signal_bandwidth_hz=20.0),  # sps 10**6, a 10**9-sample frame
    lambda: LinkConfig(signal_bandwidth_hz=1e-10),  # sps 2 * 10**17
    lambda: harness.config_for_point(LinkConfig(), "PS+B", "bandwidth_hz", 20.0),
], ids=["20 Hz", "1e-10 Hz", "sweep value"])
def test_config_rejects_a_frame_above_the_bound(build):
    # rejected at construction, before anything frame-sized is allocated
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ConfigError, match=r"signal_bandwidth_hz.*n_bits"):
            build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1 << 20


def test_config_frame_bound_is_inclusive():
    # at sps 2 the frame is n_bits + 8 * 2 + 255 samples
    n_bits = link.MAX_FRAME_SAMPLES - 16 - 255
    n_bits -= n_bits % 2
    LinkConfig(n_bits=n_bits)
    with pytest.raises(ConfigError, match="MAX_FRAME_SAMPLES"):
        LinkConfig(n_bits=n_bits + 2)


def test_config_bounds_the_baseband_replica_dft_matrix():
    # at sps 2 a +B design's replica DFT matrix, not the frame, binds first:
    # 1 600 000 bits need 810000 x 21 = 17.0 M entries, 1 500 000 need
    # 759375 x 21 = 15.9 M; an RF-only design builds no such matrix
    LinkConfig(scheme="PS+B", n_bits=1_500_000)
    LinkConfig(scheme="PS", n_bits=1_600_000)
    with pytest.raises(ConfigError, match=r"n_bits.*signal_bandwidth_hz.*810000 x 21"):
        LinkConfig(scheme="PS+B", n_bits=1_600_000)


@pytest.mark.parametrize("bandwidth_hz", [10e6, 5e6, 2e6])
def test_config_bound_is_the_size_of_the_design_replica_dft(monkeypatch, bandwidth_hz):
    # enough bits that the replica DFT is the design's largest matrix
    cfg = LinkConfig(scheme="AC+B", n_bits=4000, signal_bandwidth_hz=bandwidth_hz)
    design = link.trial_design(cfg)
    entries = design.si_spectrum.replica_dft.size
    assert max(cfg.frame_samples, design.training.pinv.size) < entries
    monkeypatch.setattr(link, "MAX_FRAME_SAMPLES", entries)
    replace(cfg, n_bits=4000)
    monkeypatch.setattr(link, "MAX_FRAME_SAMPLES", entries - 1)
    with pytest.raises(ConfigError, match="replica DFT"):
        replace(cfg, n_bits=4000)


def test_config_bounds_the_baseband_training_matrix():
    # at sps 2 the training matrix is ((n_training + 8) * 2 + 255) x 26:
    # 322503 training symbols give 645277 x 26 = 16 777 202 entries, one
    # more gives 16 777 254; an RF-only design builds no such matrix
    LinkConfig(scheme="PS+B", n_training=322_503)
    LinkConfig(scheme="PS", n_training=10**7)
    with pytest.raises(ConfigError, match=r"n_training.*estimator_order.*645279 x 26"):
        LinkConfig(scheme="PS+B", n_training=322_504)
    with pytest.raises(ConfigError, match=r"20000271 x 26 training matrix"):
        LinkConfig(scheme="PS+B", n_training=10**7)


@pytest.mark.parametrize("bandwidth_hz", [10e6, 2e6])
def test_config_bound_is_the_size_of_the_design_training_matrix(monkeypatch, bandwidth_hz):
    cfg = LinkConfig(scheme="PS+B", n_bits=400, n_training=200,
                     signal_bandwidth_hz=bandwidth_hz)
    design = link.trial_design(cfg)
    entries = design.training.pinv.size
    assert max(cfg.frame_samples, design.si_spectrum.replica_dft.size) < entries
    monkeypatch.setattr(link, "MAX_FRAME_SAMPLES", entries)
    replace(cfg, n_bits=400)
    monkeypatch.setattr(link, "MAX_FRAME_SAMPLES", entries - 1)
    with pytest.raises(ConfigError, match="training matrix"):
        replace(cfg, n_bits=400)


def test_config_accepts_the_ends_of_the_ebn0_range():
    for ebn0_db in link.EBN0_RANGE_DB + (math.inf,):
        LinkConfig(ebn0_db=ebn0_db)
    with pytest.raises(ConfigError, match="ebn0_db"):
        LinkConfig(ebn0_db=-math.inf)


def test_modulation_bits_are_read_from_the_order():
    for m, n_b in [(2, 1), (4, 2), (8, 3), (16, 4)]:
        assert LinkConfig(mod_order=m, n_bits=12).n_b == n_b
        assert LinkConfig(mod_order=np.int64(m), n_bits=12).n_symbols == 12 // n_b
    with pytest.raises(ConfigError, match="mod_order"):
        LinkConfig(mod_order=32)


#: Wrongly typed values for each declared field type.
WRONGLY_TYPED = {
    "str": [1, None], "int": [2.0, True, "2"], "float": ["1.0", True, 1j, None],
    "float | None": ["2.4e9", False], "tuple[float, ...]": [("a",), (True,), [1.0], 1.0],
    "tuple[str, ...]": [(1,), ["PS"]], "LinkConfig": [None, {}],
}


@pytest.mark.parametrize("record", [LinkConfig, harness.SweepSpec], ids=lambda r: r.__name__)
def test_every_field_is_type_checked(record):
    # one check, keyed on the declared types, runs on both records
    valid = {"base": LinkConfig(), "values": (1.0,)} if record is harness.SweepSpec else {}
    for f in dataclasses.fields(record):
        for value in WRONGLY_TYPED[f.type]:
            with pytest.raises(ConfigError, match=f"^{f.name} must be"):
                record(**{**valid, f.name: value})


@pytest.mark.parametrize("kind", [float, bool])
@pytest.mark.parametrize("key", INT_KEYS)
def test_config_rejects_a_non_integer_integer_key(key, kind):
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        LinkConfig(**{key: kind(getattr(LinkConfig(), key))})


@pytest.mark.parametrize("key, value", [
    ("rolloff", "0.25"), ("ebn0_db", True), ("f_c_hz", "2.4e9"),
    ("p_ta_dbm", 1j), ("scheme", 1), ("estimator_order", None),
])
def test_config_rejects_a_wrongly_typed_key(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be"):
        LinkConfig(**{key: value})


def test_config_accepts_numpy_integers():
    plain = LinkConfig(scheme="PS+B", n_bits=400)
    cfg = replace(plain, **{k: np.int64(getattr(plain, k)) for k in INT_KEYS})
    assert cfg == plain
    assert all(type(getattr(cfg, k)) is int for k in INT_KEYS)
    assert run_trial(cfg, np.random.default_rng(0)) == run_trial(plain, np.random.default_rng(0))


@pytest.mark.parametrize("key, kw", [
    ("n_training", dict(scheme="PS+B", n_training=np.int64(2**62))),
    ("span_symbols", dict(span_symbols=np.int64(2**62))),
    ("span_symbols", dict(span_symbols=2**62)),
    ("n_taps", dict(n_taps=2**62)),
    ("n_taps", dict(n_taps=np.int64(2**62))),
])
def test_huge_integer_keys_are_config_errors_naming_the_key(key, kw):
    # the bounds are computed in Python ints, so a numpy key cannot wrap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"{key} = {2**62}"):
            LinkConfig(**kw)


def test_span_bound_is_inclusive():
    # the matched filter's block products, up to (2 * span + 1) x (span + 1)
    # entries: 5791 x 2896 is the largest within MAX_FRAME_SAMPLES
    assert 5791 * 2896 <= link.MAX_FRAME_SAMPLES < 5793 * 2897
    LinkConfig(span_symbols=2895)
    with pytest.raises(ConfigError, match="^span_symbols = 2896 gives 16782321-entry"):
        LinkConfig(span_symbols=2896)


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
    run_trial(LinkConfig(scheme="PS+B", n_taps=16, estimator_order=16, n_bits=400),
              np.random.default_rng(0))


def test_scheme_default_carriers():
    assert LinkConfig(scheme="PS").carrier_hz == pytest.approx(2.438e9)
    assert LinkConfig(scheme="AC+B").carrier_hz == pytest.approx(2.457e9)
    assert LinkConfig(scheme="PS", f_c_hz=2.44e9).carrier_hz == 2.44e9


def test_report_rate_is_read_from_the_sinr():
    def report(sinr_db):
        return LinkReport(sinr_db=sinr_db, ber=0.0, residual_power_dbm=-100.0,
                          estimate_error_db=None)

    assert report(10.0 * math.log10(3.0)).rate_bps_hz == pytest.approx(2.0, rel=1e-15)
    assert report(0.0).rate_bps_hz == 1.0
    assert report(math.inf).rate_bps_hz == math.inf


@pytest.mark.parametrize("ber", [-0.1, 1.5, math.nan])
def test_report_rejects_a_ber_outside_the_unit_interval(ber):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        LinkReport(sinr_db=0.0, ber=ber, residual_power_dbm=-100.0, estimate_error_db=None)


def test_ber_counts_flips():
    a = np.zeros(2000, dtype=int)
    b = a.copy()
    b[[5, 100, 1999]] = 1
    assert link.ber(a, b) == pytest.approx(0.0015)
    assert link.ber(a, a) == 0.0
    assert link.ber(a, 1 - a) == 1.0
    # the CLI writes it with repr, which must read back as a float
    assert type(link.ber(a, b)) is float and type(link.ber([], [])) is float


def test_ber_rejects_length_mismatch():
    with pytest.raises(ValueError):
        link.ber([0, 1], [0])


def test_sinr_definition():
    # the SINR is the ratio of the window's desired and residual energies
    a = np.full(100, 1e-3 + 0j)
    assert link._power_ratio_db(sigproc.energy(a), sigproc.energy(a)) == 0.0
    d = np.full(100, 1e-3 + 0j)   # -60 dBm
    r = np.full(100, 1e-4 + 0j)   # -80 dBm
    assert link._power_ratio_db(sigproc.energy(d), sigproc.energy(r)) == pytest.approx(
        20.0, abs=1e-9)


def test_sinr_zero_residual_is_infinite():
    d = np.ones(10, dtype=complex)
    assert link._power_ratio_db(sigproc.energy(d), sigproc.energy(0.0 * d)) == math.inf


def test_sinr_and_residual_are_read_from_window_energies(monkeypatch):
    # the SINR is energy(desired[head:tail]) / energy(residual[head:tail]),
    # the desired waveform counted as zero past its end, which lies inside
    # the window; the residual power is that energy over tail - head
    # samples.  The residual is the trial's SI plus the noise it drew last,
    # and the desired waveform its far node's bits shaped at their gain,
    # both replayed from the trial's seed; at 0.5 MHz the noise is drawn
    # on the worker thread
    captured = []

    def keep_si(*args, **kwargs):
        out = upsample_convolve_fft(*args, **kwargs)
        captured.append(out.copy())  # before the trial adds to it in place
        return out

    monkeypatch.setattr(link, "upsample_convolve_fft", keep_si)
    for scheme, bandwidth_hz in (("PS", 10e6), ("AC+B", 10e6), ("PS", 0.5e6)):
        cfg = LinkConfig(scheme=scheme, ebn0_db=20.0, n_bits=400,
                         signal_bandwidth_hz=bandwidth_hz)
        design = link.trial_design(cfg)
        rep = run_trial(cfg, np.random.default_rng(2), design)
        draws = reference.trial_draws(cfg, np.random.default_rng(2))
        head, tail = design.head, design.tail
        s_b = sigproc.modulate_psk(draws.bits_b, cfg.mod_order) * draws.gain
        desired = sigproc.pulse_shape(s_b, design.filt)
        # at sps 2 the window runs past the desired waveform's end
        assert head < len(desired) and (len(desired) < tail) == (bandwidth_hz == 10e6)
        residual = captured.pop() + draws.noise  # the frame before the desired
        e_residual = sigproc.energy(residual[head:tail])
        assert rep.sinr_db == 10.0 * math.log10(sigproc.energy(desired[head:tail]) / e_residual)
        assert rep.residual_power_dbm == 10.0 * math.log10(e_residual / (tail - head))


def test_ebn0_to_noise_variance():
    assert link.ebn0_to_noise_variance(0.0, 1.0, 1) == 1.0
    one = link.ebn0_to_noise_variance(12.0, 1.0, 1)
    two = link.ebn0_to_noise_variance(12.0, 1.0, 2)
    assert two == pytest.approx(one / 2.0)
    assert link.ebn0_to_noise_variance(math.inf, 1.0, 2) == 0.0
    # N0 = Es / n_b / (Eb/N0), Es the symbol energy
    assert link.ebn0_to_noise_variance(10.0, 3.0, 2) == pytest.approx(0.15, rel=1e-15)


def test_noiseless_trial_is_error_free():
    # long training and full-order estimator make the LS estimate exact
    cfg = LinkConfig(scheme="PS+B", ebn0_db=math.inf, n_training=128,
                     estimator_order=256)
    rep = run_trial(cfg, np.random.default_rng(5))
    assert rep.ber == 0.0
    # residual is numerical dust relative to the SI power
    assert rep.sinr_db > 200.0
    assert rep.estimate_error_db < -200.0


@pytest.mark.parametrize("p_rb_dbm", [-60.0, -10.0])
@pytest.mark.parametrize("bandwidth_hz", [10e6, 0.5e6])
def test_far_node_arrives_at_p_rb_with_a_random_phase(monkeypatch, p_rb_dbm, bandwidth_hz):
    # with an SI 1e-100 below unit power and no noise, the matched filter's
    # input over the desired waveform is the far node's unit-modulus
    # symbols, scaled by one gain of power p_rb and random phase, through
    # the SRRC; the bits and the phase are replayed from the trial's seed
    cfg = LinkConfig(p_ta_dbm=-1000.0, p_rb_dbm=p_rb_dbm, ebn0_db=math.inf,
                     signal_bandwidth_hz=bandwidth_hz)
    design = link.trial_design(cfg)
    seen = []
    matched_filter = sigproc.matched_filter_downsample

    def capture(samples, *args, **kwargs):
        seen.append(samples.copy())
        return matched_filter(samples, *args, **kwargs)

    monkeypatch.setattr(sigproc, "matched_filter_downsample", capture)
    p_rb = channel.dbm_to_linear(p_rb_dbm)
    gains = []
    for seed in (1, 2):
        assert run_trial(cfg, np.random.default_rng(seed), design).ber == 0.0
        draws = reference.trial_draws(cfg, np.random.default_rng(seed))
        assert abs(draws.gain) ** 2 == pytest.approx(p_rb, rel=1e-12)
        gains.append(draws.gain)
        unit = sigproc.modulate_psk(draws.bits_b, cfg.mod_order)
        x = sigproc.pulse_shape(draws.gain * unit, design.filt)
        y = seen.pop()[: len(x)]
        assert np.max(np.abs(y - x)) <= 1e-12 * np.max(np.abs(x))
        # the symbol energy p_rb is a mean power of p_rb / sps to within
        # 3 %: the 1000 random symbols and the filter's 8-symbol ramps at
        # the ends move it by ~1 %
        assert sigproc.energy(y) / len(y) == pytest.approx(p_rb / cfg.samples_per_symbol,
                                                           rel=0.03)
    assert abs(np.angle(gains[0] / gains[1])) > 1e-3


@pytest.mark.parametrize("scheme", link.SCHEMES)
@pytest.mark.parametrize("bandwidth_hz", [10e6, 0.5e6])
def test_trial_si_equals_sample_rate_channel(monkeypatch, scheme, bandwidth_hz):
    # with no noise and a far-node signal 1e-107 of the SI's transmit
    # power, the matched filter's input is the trial's self-interference,
    # after the replica is subtracted for +B
    seen = []
    matched_filter = sigproc.matched_filter_downsample

    def capture(samples, *args, **kwargs):
        seen.append(samples)
        return matched_filter(samples, *args, **kwargs)

    monkeypatch.setattr(sigproc, "matched_filter_downsample", capture)
    cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=bandwidth_hz,
                     ebn0_db=math.inf, p_ta_dbm=7.0, p_rb_dbm=-1000.0, n_bits=600)
    design = link.trial_design(cfg)
    run_trial(cfg, np.random.default_rng(3), design)

    # the same draws, replayed; the +B estimate is lstsq's on the same
    # (noise-free) training
    draws = reference.trial_draws(cfg, np.random.default_rng(3))
    sps = cfg.samples_per_symbol
    h_aa = link.self_interference_channel(cfg)
    estimate, bits_a = draws.h_hat, draws.bits_a
    filt = sigproc.srrc_taps(cfg.rolloff, cfg.span_symbols, sps)
    x_a = sigproc.pulse_shape(sigproc.modulate_psk(bits_a, cfg.mod_order), filt)
    si = math.sqrt(channel.dbm_to_linear(cfg.p_ta_dbm)) * np.convolve(x_a, h_aa.taps)
    ref = si
    if estimate is not None:
        ref = reference.si_less_replica(x_a, h_aa.taps, estimate,
                                        cfg.p_ta_dbm)
    assert seen[0].shape == ref.shape
    assert np.max(np.abs(seen[0] - ref)) <= 1e-12 * np.max(np.abs(si))
    assert sigproc.energy(seen[0]) == pytest.approx(sigproc.energy(ref), rel=1e-9)


@pytest.mark.parametrize("scheme", link.SCHEMES)
@pytest.mark.parametrize("n_bits", [2, 4, 8, 16])
def test_short_frame_has_finite_sinr(scheme, n_bits):
    # the transient-free window would start after the desired waveform
    # ends, so the SINR is measured over the whole frame
    cfg = LinkConfig(scheme=scheme, n_bits=n_bits)
    assert cfg.samples_per_symbol == 2
    design = link.trial_design(cfg)
    assert (design.head, design.tail) == (0, cfg.frame_samples)
    assert cfg.frame_samples == n_bits // 2 * 2 + design.si_spectrum.n_taps - 1
    rep = run_trial(cfg, np.random.default_rng(4), design)
    assert math.isfinite(rep.sinr_db) and math.isfinite(rep.rate_bps_hz)


def test_design_window_skips_the_transients():
    cfg = LinkConfig()
    design = link.trial_design(cfg)
    n_full = cfg.n_bits // 2 * 2 + design.si_spectrum.n_taps - 1
    assert cfg.frame_samples == n_full
    delay = len(design.filt.taps) - 1  # the SRRC cascade's, span_symbols * sps
    assert delay == cfg.span_symbols * cfg.samples_per_symbol
    assert design.head == delay + channel.support_length(design.h_aa.taps)
    assert design.tail == n_full - delay
    amp = math.sqrt(channel.dbm_to_linear(cfg.p_ta_dbm))
    assert np.array_equal(design.si_pulse, amp * np.convolve(design.filt.taps,
                                                             design.h_aa.taps))
    assert not design.si_pulse.flags.writeable


@pytest.mark.parametrize("fields", [
    *(pytest.param(dict(span_symbols=span, signal_bandwidth_hz=bw, p_ta_dbm=-400.0), id=i)
      for span, bw, i in [(5, 20e6 / 3, "span5-sps3"), (5, 4e6, "span5-sps5"),
                          (7, 20e6 / 3, "span7-sps3")]),
    *(pytest.param(dict(p_rb_dbm=p_rb, mod_order=m, p_ta_dbm=-1000.0, n_bits=1200),
                   id=f"prb{p_rb:g}-m{m}")
      for p_rb in (-1000.0, -200.0, -60.0, 200.0, 1000.0) for m in (2, 4, 8, 16)),
])
def test_noise_free_trial_without_si_detects_every_bit(fields):
    # the detector samples the matched filter at the SRRC cascade's peak,
    # also when span_symbols * sps is odd and the filter has an even tap
    # count; and it reads only the phase, at any received power
    cfg = LinkConfig(ebn0_db=math.inf, **fields)
    assert run_trial(cfg, np.random.default_rng(1)).ber == 0.0


def test_records_holding_arrays_compare_by_identity():
    # field-wise == would compare arrays and raise "truth value ... ambiguous"
    design = link.trial_design(LinkConfig(scheme="PS+B"))
    records = [design, design.filt, design.h_aa, design.si_spectrum, design.training,
               channel.synthesize_profile("PS"), sigproc.psk_table(4)]
    for record in records:
        twin = replace(record)
        assert record == record and record != twin
        assert len({record, twin}) == 2


def test_trial_deterministic_for_seed():
    cfg = LinkConfig(scheme="AC+B", ebn0_db=30.0)
    a = run_trial(cfg, np.random.default_rng(9))
    b = run_trial(cfg, np.random.default_rng(9))
    assert a == b


@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_given_design_equals_built_design(scheme):
    cfg = LinkConfig(scheme=scheme, ebn0_db=30.0, n_bits=400)
    design = link.trial_design(cfg)
    assert design.config == cfg
    assert (run_trial(cfg, np.random.default_rng(6))
            == run_trial(cfg, np.random.default_rng(6), design))


@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_trial_with_a_design_builds_no_polyphase_matrix(monkeypatch, scheme):
    # the SRRC filter's shaping and matched-filter matrices are built with
    # the design, and its trials only read them
    cfg = LinkConfig(scheme=scheme, ebn0_db=30.0, n_bits=400)
    design = link.trial_design(cfg)

    def refuse(filt):
        raise AssertionError("a trial built a polyphase matrix")

    monkeypatch.setattr(sigproc.SrrcFilter, "__post_init__", refuse)
    run_trial(cfg, np.random.default_rng(6), design)
    for a in (design.filt.shaping, design.filt.matched):
        assert not a.flags.writeable


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


#: Peak traced (tracemalloc) allocation of one warm narrowband trial, in
#: received frames (40 575 complex128 samples, 649 kB): the trial holds at
#: most the frame, one more frame-length waveform or the SI's FFT buffer,
#: and a half-size scratch array.  The two receiver-noise buffers (one
#: frame) are not counted: the design keeps them from the warm-up trial,
#: and the tests check that they are all its scratch keeps.  Measured
#: 2.16 (PS) and 2.17 (PS+B); 6.6 and 7.6 when each step of the frame
#: allocated its own arrays.  tracemalloc does not see numpy's matmul
#: copy of a strided operand.
ALLOCATION_BOUND_FRAMES = 3.0

#: The same at sps 2 (40 271 samples, 644 kB), where the per-symbol
#: arrays are as long as the frame is in samples: two bit vectors, the
#: symbols and the detector's sectors.  Measured 5.12 (PS and PS+B), the
#: kept noise buffers not counted; 8.95 when the matched filter formed
#: one product over the whole frame.
SPS2_ALLOCATION_BOUND_FRAMES = 5.5


def _warm_trial_peak_frames(design: link.TrialDesign) -> float:
    """Peak traced allocation of one warm trial of ``design``, in frames."""
    cfg = design.config
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
    return peak / (cfg.frame_samples * 16)


def _assert_design_keeps_one_frame_of_noise(design: link.TrialDesign):
    # the two receiver-noise halves, one complex frame, are all that the
    # design holds from one trial to the next beyond its read-only arrays
    assert list(vars(design.scratch)) == ["noise"]
    noise = design.scratch.noise
    assert len(noise) == 2
    for b in noise:
        assert b.dtype == np.float64 and b.shape == (design.config.frame_samples,)


@pytest.mark.parametrize("scheme", ["PS", "PS+B"])
def test_narrowband_trial_allocates_little_beyond_its_frame(scheme):
    design = link.trial_design(LinkConfig(scheme=scheme, signal_bandwidth_hz=0.5e6,
                                          ebn0_db=20.0))
    assert design.config.frame_samples == 40575
    assert _warm_trial_peak_frames(design) <= ALLOCATION_BOUND_FRAMES
    _assert_design_keeps_one_frame_of_noise(design)


@pytest.mark.parametrize("scheme", ["PS", "PS+B"])
def test_sps2_trial_allocation_is_its_per_symbol_arrays(scheme):
    design = link.trial_design(LinkConfig(scheme=scheme, ebn0_db=20.0, n_bits=40000))
    assert design.config.frame_samples == 40271
    assert _warm_trial_peak_frames(design) <= SPS2_ALLOCATION_BOUND_FRAMES
    _assert_design_keeps_one_frame_of_noise(design)


#: Rise of the resident-set high-water mark over one sps-2 trial of 400 000
#: bits, in received frames (400 271 samples, 6.4 MB), in a fresh process
#: with one BLAS thread.  Unlike tracemalloc, it sees the operand copy
#: numpy's matmul makes of ``pulse_shape``'s overlapping windows.  Measured
#: 5.85; 7.88 when each SRRC kernel formed one product over the whole frame.
SPS2_RSS_BOUND_FRAMES = 6.5


def test_sps2_trial_rss_rise_is_bounded():
    code = ("import resource, numpy as np\n"
            "from fdsim import link\n"
            "cfg = link.LinkConfig(n_bits=400000, ebn0_db=20.0)\n"
            "design = link.trial_design(cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "link.run_trial(cfg, np.random.default_rng(1), design)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024 / (cfg.frame_samples * 16))\n")  # KiB on Linux
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(link.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert float(out.stdout) < SPS2_RSS_BOUND_FRAMES


@pytest.mark.parametrize("bandwidth_hz", [10e6, 0.5e6])
def test_baseband_trial_transforms_like_an_rf_only_trial(monkeypatch, bandwidth_hz):
    # +B reuses its design's replica DFT matrix and training response: a
    # trial of every scheme makes one FFT and one inverse FFT, and only a
    # +B trial convolves, once, to form its short replica filter
    # amp·(srrc ⊛ ĥ)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, len(out)) if name == "convolve" else name)
            return out
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    monkeypatch.setattr(np, "convolve", counted("convolve", np.convolve))
    seen, expected = {}, {}
    for scheme in link.SCHEMES:
        cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=bandwidth_hz, ebn0_db=20.0,
                         n_bits=400)
        design = link.trial_design(cfg)
        calls.clear()
        run_trial(cfg, np.random.default_rng(0), design)
        seen[scheme] = calls[:]
        expected[scheme] = ["fft", "ifft"]
        if cfg.uses_baseband_cancellation:
            n_replica = len(design.filt.taps) + cfg.estimator_order - 1
            expected[scheme] = [("convolve", n_replica), "fft", "ifft"]
    assert seen == expected


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
    rep = run_trial(LinkConfig(scheme="PS", ebn0_db=30.0), np.random.default_rng(0))
    assert rep.estimate_error_db is None
    rep_b = run_trial(LinkConfig(scheme="PS+B", ebn0_db=30.0), np.random.default_rng(0))
    assert rep_b.estimate_error_db is not None


#: Trials per case of the estimate-error comparison below.
ESTIMATE_TRIALS = 20


@pytest.mark.parametrize("bandwidth_hz", [10e6, 2e6, 0.5e6])
@pytest.mark.parametrize("scheme", ["PS+B", "AC+B"])
def test_estimate_error_is_the_window_si_ratio_of_the_replica(scheme, bandwidth_hz):
    # estimate_error_db, ‖si_pulse − replica‖²/‖si_pulse‖², is the expected
    # ratio of the window's SI with the replica to its SI without it: each
    # trial's symbols are drawn again and filtered both ways
    cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=bandwidth_hz, ebn0_db=20.0)
    design = link.trial_design(cfg)
    amp = math.sqrt(channel.dbm_to_linear(cfg.p_ta_dbm))
    noise_var = link.ebn0_to_noise_variance(cfg.ebn0_db, channel.dbm_to_linear(cfg.p_rb_dbm),
                                            cfg.n_b)
    window = slice(design.head, design.tail)
    estimated, measured = [], []
    for seed in range(ESTIMATE_TRIALS):
        rep = run_trial(cfg, np.random.default_rng(seed), design)
        estimated.append(10.0 ** (rep.estimate_error_db / 10.0))
        # the trial's draws: the training noise, then the near node's bits
        rng = np.random.default_rng(seed)
        taps_hat = cancellation.run_training(design.training, cfg.p_ta_dbm, noise_var, rng)
        s_a = sigproc.modulate_psk(rng.integers(0, 2, size=cfg.n_bits), cfg.mod_order)
        replica = amp * np.convolve(design.filt.taps, taps_hat)
        with_replica, without = (
            sigproc.energy(upsample_convolve_fft(s_a, design.si_spectrum, minus=m)[window])
            for m in (replica, None))
        measured.append(with_replica / without)
    # a trial's two ratios differ by its symbols' spread about their mean
    # (standard deviation 0.02-0.19 dB in these cases), so the two means
    # agree within reference.K_SE standard errors of that difference
    diff_db = 10.0 * np.log10(np.array(measured) / np.array(estimated))
    tol_db = reference.K_SE * np.std(diff_db, ddof=1) / math.sqrt(ESTIMATE_TRIALS)
    assert abs(10.0 * math.log10(np.mean(measured) / np.mean(estimated))) <= tol_db


def test_baseband_cancellation_beats_rf_only():
    g_ps = run_trial(LinkConfig(scheme="PS", ebn0_db=30.0),
                     np.random.default_rng(1)).sinr_db
    g_psb = run_trial(LinkConfig(scheme="PS+B", ebn0_db=30.0),
                      np.random.default_rng(1)).sinr_db
    assert g_psb > g_ps + 20.0


@pytest.mark.parametrize("ebn0_db", [8.0, 90.0])
@pytest.mark.parametrize("bandwidth_hz, span", [
    pytest.param(10e6, 8, id="sps2"), pytest.param(2e6, 8, id="sps10"),
    pytest.param(0.5e6, 8, id="sps40"),
    # an odd span_symbols * sps, whose SRRC has an even tap count
    pytest.param(4e6, 5, id="sps5-span5"), pytest.param(20e6 / 3, 5, id="sps3-span5"),
])
@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_trial_matches_the_sample_rate_reference(scheme, bandwidth_hz, span, ebn0_db):
    # the whole trial against reference.run_trial: the same draws through
    # np.convolve and lstsq in place of the polyphase and FFT kernels and pinv
    cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=bandwidth_hz, span_symbols=span,
                     ebn0_db=ebn0_db)
    design = link.trial_design(cfg)
    for seed in (1, 2):
        got = run_trial(cfg, np.random.default_rng(seed), design)
        want = reference.run_trial(cfg, np.random.default_rng(seed))
        assert got.ber == want.ber
        for key in ("sinr_db", "residual_power_dbm", "estimate_error_db"):
            a, b = getattr(got, key), getattr(want, key)
            assert (a is None) == (b is None), key
            assert a is None or a == pytest.approx(b, rel=1e-9, abs=0.0), key


#: Trials per set and bits per trial of the statistical comparisons, at an
#: Eb/N0 where every scheme makes errors at every bandwidth below.
STAT_TRIALS, STAT_BITS, STAT_EBN0_DB = 20, 1000, 4.0


def _trial_sets(cfg, cfg_reference):
    """``link.run_trial`` on seeds 0..STAT_TRIALS - 1, and
    ``reference.run_trial`` on the next STAT_TRIALS seeds."""
    design = link.trial_design(cfg)
    got = [run_trial(cfg, np.random.default_rng(s), design) for s in range(STAT_TRIALS)]
    want = [reference.run_trial(cfg_reference, np.random.default_rng(STAT_TRIALS + s))
            for s in range(STAT_TRIALS)]
    return got, want


@pytest.mark.parametrize("bandwidth_hz", [
    pytest.param(10e6, id="sps2"), pytest.param(2e6, id="sps10"),
    pytest.param(0.5e6, id="sps40"),
])
@pytest.mark.parametrize("scheme", link.SCHEMES)
def test_trials_agree_with_the_reference_within_monte_carlo_error(scheme, bandwidth_hz):
    # mean SINR and BER within reference.K_SE combined standard errors, on
    # disjoint seeds
    cfg = LinkConfig(scheme=scheme, signal_bandwidth_hz=bandwidth_hz,
                     ebn0_db=STAT_EBN0_DB, n_bits=STAT_BITS)
    got, want = _trial_sets(cfg, cfg)
    assert 0.0 < np.mean([r.ber for r in got])
    assert reference.compare_trials(got, want, STAT_BITS) == {}


def test_trial_comparison_flags_a_one_db_ebn0_shift():
    # a noise-limited link (no SI) against the reference 1 dB higher: both
    # the mean SINR and the BER must be flagged
    cfg = LinkConfig(scheme="PS", p_ta_dbm=-400.0, ebn0_db=STAT_EBN0_DB, n_bits=STAT_BITS)
    got, want = _trial_sets(cfg, dataclasses.replace(cfg, ebn0_db=STAT_EBN0_DB + 1.0))
    assert set(reference.compare_trials(got, want, STAT_BITS)) == {"sinr_db", "ber"}
    assert reference.compare_trials(*_trial_sets(cfg, cfg), STAT_BITS) == {}
