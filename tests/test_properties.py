"""Property tests: config emit/parse, PSK mapping and profile CSV round
trips, and the CLI's derive-channel against the library."""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdsim import channel, harness, sigproc
from fdsim.cli import main
from fdsim.errors import ProfileError
from fdsim.link import EBN0_RANGE_DB, POWER_RANGE_DBM, SCHEMES, LinkConfig, run_trial

PROPERTIES = settings(max_examples=60, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
powers_dbm = st.floats(*POWER_RANGE_DBM)
ebn0s_db = st.floats(*EBN0_RANGE_DB)


@st.composite
def link_configs(draw):
    n_b = draw(st.integers(1, 4))
    sps = draw(st.integers(2, 40))
    sample_rate_hz = draw(st.floats(1e5, 1e9))
    n_training = draw(st.integers(1, 20))
    span_symbols = draw(st.integers(4, 16))
    scheme = draw(st.sampled_from(SCHEMES))
    n_taps = 2 ** draw(st.integers(1, 12))
    max_order = (n_training + span_symbols) * sps
    # a +B estimate is also no longer than the channel its replica follows
    if scheme.endswith("+B"):
        max_order = min(max_order, n_taps)
    orders = st.integers(1, max_order)
    # None is the default order, 26, which +B must be able to identify
    if not scheme.endswith("+B") or max_order >= 26:
        orders = st.one_of(st.none(), orders)
    return LinkConfig(
        n_b=n_b, mod_order=2**n_b,
        n_bits=n_b * draw(st.integers(1, 5000)),
        n_training=n_training,
        f_c_hz=draw(st.one_of(st.none(), finite)),
        sample_rate_hz=sample_rate_hz,
        channel_bandwidth_hz=draw(st.floats(0.0, sample_rate_hz, exclude_min=True)),
        signal_bandwidth_hz=sample_rate_hz / sps,
        p_ta_dbm=draw(powers_dbm), p_rb_dbm=draw(powers_dbm), scheme=scheme,
        ebn0_db=draw(st.one_of(ebn0s_db, st.just(math.inf))),
        rolloff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        span_symbols=span_symbols,
        estimator_order=draw(orders),
        n_taps=n_taps,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def sweep_specs(draw):
    axis = draw(st.sampled_from(harness.AXES))
    if axis == "mod_order":
        value = st.sampled_from(sigproc.SUPPORTED_ORDERS).map(float)
    else:
        value = st.one_of(finite, st.just(math.inf), st.just(-math.inf))
    return harness.SweepSpec(
        base=draw(link_configs()), axis=axis,
        values=tuple(draw(st.lists(value, min_size=1, max_size=5))),
        schemes=tuple(draw(st.lists(st.sampled_from(SCHEMES), min_size=1,
                                    max_size=4))),
        trials_per_point=draw(st.integers(1, 10**6)),
        root_seed=draw(st.integers(0, 2**64 - 1)),
    )


@PROPERTIES
@given(sweep_specs())
def test_emitted_config_parses_back_to_the_spec(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.cfg")
        with open(path, "w") as fh:
            fh.write(harness.emit_config(spec))
        assert harness.parse_config(path) == spec


@PROPERTIES
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
    values = st.lists(finite, min_size=n, max_size=n)
    return channel.ChannelProfile(np.array(freqs), np.array(draw(values)),
                                  np.array(draw(values)))


@PROPERTIES
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


@PROPERTIES
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


@PROPERTIES
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
