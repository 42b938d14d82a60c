"""Property tests: config emit/parse, PSK mapping and profile CSV round
trips, the exit code of ``fdsim run`` on a drawn config file, the CLI's
derive-channel against the library, detection on an open eye, and a
trial against the sample-rate reference.  Each runs the examples of the
loaded hypothesis profile (``conftest.py``)."""

import io
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import reference
from fdsim import channel, harness, link, sigproc
from fdsim.cli import main
from fdsim.errors import ConfigError, ProfileError
from fdsim.link import EBN0_RANGE_DB, POWER_RANGE_DBM, SCHEMES, LinkConfig, run_trial

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
powers_dbm = st.floats(*POWER_RANGE_DBM)
ebn0s_db = st.floats(*EBN0_RANGE_DB)


@st.composite
def link_configs(draw, max_symbols=5000, max_log2_taps=12, runnable=False):
    """A valid ``LinkConfig``.  With ``runnable=True`` its channel band
    lies inside its scheme's profile, so that its trial design builds."""
    mod_order = draw(st.sampled_from(sigproc.SUPPORTED_ORDERS))
    sps = draw(st.integers(2, 40))
    sample_rate_hz = draw(st.floats(1e5, 1e9))
    n_training = draw(st.integers(1, 20))
    span_symbols = draw(st.integers(4, 16))
    scheme = draw(st.sampled_from(SCHEMES))
    n_taps = 2 ** draw(st.integers(1, max_log2_taps))
    max_order = (n_training + span_symbols) * sps
    # a +B estimate is also no longer than the channel its replica follows
    if scheme.endswith("+B"):
        max_order = min(max_order, n_taps)
    orders = st.integers(1, max_order)
    return LinkConfig(
        mod_order=mod_order,
        n_bits=(mod_order.bit_length() - 1) * draw(st.integers(1, max_symbols)),
        n_training=n_training,
        f_c_hz=None if runnable else draw(st.one_of(st.none(), finite)),
        sample_rate_hz=sample_rate_hz,
        # each scheme's profile spans 24 MHz about its default carrier
        channel_bandwidth_hz=draw(st.floats(0.0, min(sample_rate_hz, 20e6) if runnable
                                            else sample_rate_hz, exclude_min=True)),
        signal_bandwidth_hz=sample_rate_hz / sps,
        p_ta_dbm=draw(powers_dbm), p_rb_dbm=draw(powers_dbm), scheme=scheme,
        ebn0_db=draw(st.one_of(ebn0s_db, st.just(math.inf))),
        rolloff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        span_symbols=span_symbols,
        estimator_order=draw(orders),
        n_taps=n_taps,
    )


@st.composite
def sweep_fields(draw, runnable=True, base=link_configs()):
    """The fields of a ``SweepSpec`` on a base config drawn from ``base``.
    With ``runnable=False``, from a wider domain: values and schemes may
    repeat, and any axis but mod_order may take ±inf."""
    axis = draw(st.sampled_from(harness.AXES))
    if axis == "mod_order":
        value = st.sampled_from(sigproc.SUPPORTED_ORDERS).map(float)
    elif not runnable:
        value = st.one_of(finite, st.just(math.inf), st.just(-math.inf))
    elif axis == "ebn0_db":
        value = st.one_of(finite, st.just(math.inf))
    else:
        value = finite
    return dict(
        base=draw(base), axis=axis,
        values=tuple(draw(st.lists(value, min_size=1, max_size=5, unique=runnable))),
        schemes=tuple(draw(st.lists(st.sampled_from(SCHEMES), min_size=1,
                                    max_size=4, unique=runnable))),
        trials_per_point=draw(st.integers(1, 10**6)),
        root_seed=draw(st.integers(0, 2**64 - 1)),
    )


def _round_trip(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.cfg")
        with open(path, "w") as fh:
            fh.write(harness.emit_config(spec))
        return harness.parse_config(path)


@given(sweep_fields().map(lambda kw: harness.SweepSpec(**kw)))
def test_emitted_config_parses_back_to_the_spec(spec):
    assert _round_trip(spec) == spec


@given(sweep_fields(runnable=False))
def test_a_wider_spec_round_trips_or_names_its_key(kw):
    try:
        spec = harness.SweepSpec(**kw)
    except ConfigError as exc:
        assert str(exc).startswith(("values ", "schemes "))
        return
    assert _round_trip(spec) == spec


#: Config values out of range for most keys, or of the wrong type.  Set in
#: a valid config, none makes a frame or a training burst longer than 4000
#: symbols, so a drawn trial stays cheap.
BAD_VALUES = ("-4000", "-1", "0", "0.5", "4000", "1e400", "-inf", "nan",
              "", "abc", "none", "true", "1,2", "PS+X", "0x10")


@given(sweep_fields(base=st.one_of(link_configs(max_symbols=64, max_log2_taps=8),
                                   link_configs(max_symbols=64, max_log2_taps=8,
                                                runnable=True))), st.data())
def test_run_on_a_drawn_config_file_exits_0_or_names_a_key(kw, data):
    # exit 2 is the README's runtime failure: for a config file it would
    # mean a crash inside the trial
    lines = harness.emit_config(harness.SweepSpec(**kw)).splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    i = data.draw(st.none() | st.integers(0, len(lines) - 1))  # the key set badly
    if i is not None:
        lines[i] = f"{keys[i]} = {data.draw(st.sampled_from(BAD_VALUES))}"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["run", "--config", path])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("fdsim: config error: ")
        assert any(re.search(rf"\b{key}\b", err.getvalue()) for key in keys), err.getvalue()


@given(st.sampled_from(sigproc.SUPPORTED_ORDERS), st.data())
def test_psk_round_trip(m_order, data):
    n_b = int(math.log2(m_order))
    n_sym = data.draw(st.integers(0, 64))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_b * n_sym,
                                       max_size=n_b * n_sym)), dtype=np.int64)
    rx = sigproc.demodulate_psk(sigproc.modulate_psk(bits, m_order), m_order)
    assert np.array_equal(rx, bits)


@st.composite
def profiles(draw):
    freqs = sorted(draw(st.lists(finite, min_size=2, max_size=40, unique=True)))
    n = len(freqs)
    isolation = st.lists(st.floats(*channel.ISOLATION_RANGE_DB), min_size=n, max_size=n)
    phase = st.lists(finite, min_size=n, max_size=n)
    return channel.ChannelProfile(np.array(freqs), np.array(draw(isolation)),
                                  np.array(draw(phase)))


@given(profiles())
def test_profile_csv_round_trip(profile):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        channel.save_profile(profile, path)
        back = channel.load_profile(path)
    assert np.array_equal(back.freqs_hz, profile.freqs_hz)
    assert np.array_equal(back.isolation_db, profile.isolation_db)
    assert np.array_equal(back.phase_deg, profile.phase_deg)


@st.composite
def derive_cases(draw):
    """A smooth-enough profile on an even grid and a config whose channel
    band lies (up to rounding) inside it."""
    center = draw(st.floats(1e8, 6e9))
    half = draw(st.floats(1e6, 30e6))
    n = draw(st.integers(2, 200))
    freqs = center + np.linspace(-half, half, n)
    iso = np.array(draw(st.lists(st.floats(-20.0, 120.0), min_size=n, max_size=n)))
    phase = np.array(draw(st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n)))
    sps = draw(st.integers(2, 8))
    sample_rate_hz = draw(st.floats(1e6, 40e6))
    band_hz = draw(st.floats(0.0, min(sample_rate_hz, 2.0 * half), exclude_min=True))
    f_c_hz = draw(st.one_of(
        st.none(), st.floats(-1.0, 1.0).map(lambda u: center + u * (half - band_hz / 2))))
    cfg = LinkConfig(sample_rate_hz=sample_rate_hz,
                     signal_bandwidth_hz=sample_rate_hz / sps,
                     channel_bandwidth_hz=band_hz, f_c_hz=f_c_hz,
                     n_taps=2 ** draw(st.integers(1, 12)))
    return channel.ChannelProfile(freqs, iso, phase), cfg


@given(derive_cases())
def test_derive_channel_cli_writes_the_library_taps(case):
    profile, cfg = case
    # the CLI tunes a profile read from CSV to its grid's midpoint when the
    # config leaves f_c_hz unset
    f_c = cfg.f_c_hz
    if f_c is None:
        f_c = 0.5 * (profile.freqs_hz[0] + profile.freqs_hz[-1])
    try:
        ref = channel.derive_baseband_channel(profile, f_c, cfg.channel_bandwidth_hz,
                                              cfg.sample_rate_hz, cfg.n_taps).taps
    except ProfileError:  # the band misses the grid by a rounding error
        ref = None
    with tempfile.TemporaryDirectory() as tmp:
        prof_path, cfg_path, out_path = (os.path.join(tmp, name) for name in
                                         ("profile.csv", "link.cfg", "taps.csv"))
        channel.save_profile(profile, prof_path)
        with open(cfg_path, "w") as fh:
            fh.write(harness.emit_config(harness.SweepSpec(base=cfg, values=(0.0,))))
        code = main(["derive-channel", prof_path, "--config", cfg_path, "--out", out_path])
        if ref is None:
            assert code == 2
            return
        assert code == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    taps = rows[:, 1] + 1j * rows[:, 2]
    assert np.array_equal(rows[:, 0], np.arange(cfg.n_taps))
    assert np.array_equal(taps, ref)


@given(p_ta_dbm=st.one_of(st.sampled_from(POWER_RANGE_DBM), powers_dbm),
       p_rb_dbm=st.one_of(st.sampled_from(POWER_RANGE_DBM), powers_dbm),
       ebn0_db=st.one_of(st.sampled_from(EBN0_RANGE_DB + (math.inf,)), ebn0s_db),
       scheme=st.sampled_from(SCHEMES))
def test_every_accepted_power_gives_a_finite_sinr(p_ta_dbm, p_rb_dbm, ebn0_db, scheme):
    cfg = LinkConfig(p_ta_dbm=p_ta_dbm, p_rb_dbm=p_rb_dbm, ebn0_db=ebn0_db,
                     scheme=scheme, n_bits=200)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = run_trial(cfg, np.random.default_rng(0))
    assert math.isfinite(report.sinr_db) and math.isfinite(report.rate_bps_hz)


def _eye_is_open(taps: np.ndarray, sps: int, m_order: int) -> bool:
    """Whether the SRRC cascade's noise-free eye is open: its worst-case
    ISI at the symbol instants, sum over k != 0 of |r_k| for r = taps ⊛
    taps sampled every sps from its peak at len(taps) - 1, is below r_0
    times sin(pi/M), a point's distance to its decision boundaries."""
    r = np.convolve(taps, taps)
    peak = len(taps) - 1
    isi = np.abs(r[peak % sps :: sps]).sum() - r[peak]
    return bool(isi < r[peak] * math.sin(math.pi / m_order))


@given(mod_order=st.sampled_from(sigproc.SUPPORTED_ORDERS), span_symbols=st.integers(4, 11),
       rolloff=st.floats(0.0, 1.0, exclude_min=True), sps=st.integers(2, 40),
       p_rb_dbm=powers_dbm)
def test_a_noise_free_trial_on_an_open_eye_detects_every_bit(mod_order, span_symbols,
                                                              rolloff, sps, p_rb_dbm):
    # the SI 400 dB below the desired signal, or at the lowest accepted power
    cfg = LinkConfig(mod_order=mod_order, n_bits=(mod_order.bit_length() - 1) * 200,
                     span_symbols=span_symbols, rolloff=rolloff,
                     signal_bandwidth_hz=LinkConfig.sample_rate_hz / sps,
                     p_rb_dbm=p_rb_dbm, p_ta_dbm=max(p_rb_dbm - 400.0, POWER_RANGE_DBM[0]),
                     ebn0_db=math.inf)
    design = link.trial_design(cfg)
    report = run_trial(cfg, np.random.default_rng(0), design)
    if _eye_is_open(design.filt.taps, sps, mod_order):
        assert report.ber == 0.0


#: The two chains' SI differ by rounding, at most ROUNDING_ULPS * eps * kappa
#: of its amplitude: kappa is the +B training model's condition number,
#: which bounds the estimate's relative rounding (1 for RF only).  Measured
#: at most 0.45 * eps * kappa over 6000 drawn configs.
ROUNDING_ULPS = 100

#: Relative agreement of the two chains' powers above the SI's rounding.
REL = 1e-9


@given(link_configs(max_symbols=64, max_log2_taps=8, runnable=True), st.integers(0, 2**32))
def test_a_trial_equals_the_sample_rate_reference(cfg, seed):
    # the reference shapes, filters and matched-filters with np.convolve and
    # estimates with lstsq, so this also checks the polyphase SRRC kernels
    # and the FFT SI filter at sps 2-40 and span 4-16
    design = link.trial_design(cfg)
    got = run_trial(cfg, np.random.default_rng(seed), design)
    want = reference.run_trial(cfg, np.random.default_rng(seed))
    kappa = 1.0 if design.training is None else float(np.linalg.cond(design.training.pinv))
    sps = cfg.samples_per_symbol
    # the SI's per-sample power, and the floor 20*log10(2 * rho / REL) dB
    # below it: a rounding of rho = ROUNDING_ULPS * eps * kappa of the SI's
    # amplitude moves a power above the floor by at most REL
    rho = ROUNDING_ULPS * np.finfo(float).eps * kappa
    floor_db = 20.0 * math.log10(2.0 * rho / REL)
    floor_dbm = cfg.p_ta_dbm + 10.0 * math.log10(design.si_tap_energy / sps) + floor_db
    tol_db = 10.0 * math.log10(1.0 + REL)  # two powers within REL of each other
    # a desired signal below the floor is detected from the SI's rounding
    if cfg.p_rb_dbm - 10.0 * math.log10(sps) >= floor_dbm:
        assert got.ber == want.ber
    if min(got.residual_power_dbm, want.residual_power_dbm) >= floor_dbm:
        assert abs(got.residual_power_dbm - want.residual_power_dbm) <= tol_db
        assert abs(got.sinr_db - want.sinr_db) <= tol_db
    else:
        # cancelled to the SI's rounding, which differs between the chains:
        # both SINRs exceed the window's desired power over twice the floor
        desired_dbm = [r.sinr_db + r.residual_power_dbm for r in (want, got)
                       if math.isfinite(r.sinr_db)]
        if desired_dbm:
            sinr_floor_db = desired_dbm[0] - floor_dbm - 10.0 * math.log10(2.0)
            assert min(got.sinr_db, want.sinr_db) >= sinr_floor_db
    assert (got.estimate_error_db is None) == (want.estimate_error_db is None)
    if got.estimate_error_db is not None and min(got.estimate_error_db,
                                                 want.estimate_error_db) >= floor_db:
        assert abs(got.estimate_error_db - want.estimate_error_db) <= tol_db
