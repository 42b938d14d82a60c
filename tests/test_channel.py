"""Tests for profile synthesis and baseband derivation."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fdsim import channel
from fdsim.errors import ProfileError


def flat_profile(iso_db=40.0, phase_deg=None, f_c=2.44e9, half=12e6, n=481):
    freqs = f_c + np.linspace(-half, half, n)
    phase = np.zeros(n) if phase_deg is None else phase_deg(freqs)
    return channel.ChannelProfile(freqs, np.full(n, iso_db), phase)


def test_profile_rejects_unequal_lengths():
    with pytest.raises(ProfileError):
        channel.ChannelProfile(np.array([1.0, 2.0]), np.array([3.0]),
                               np.array([0.0, 0.0]))


def test_profile_rejects_non_increasing_grid():
    with pytest.raises(ProfileError):
        channel.ChannelProfile(np.array([2.0, 1.0]), np.zeros(2), np.zeros(2))


def test_band_isolation_rejects_a_band_outside_the_profile():
    with pytest.raises(ProfileError, match="does not cover"):
        channel.band_isolation_db(flat_profile(half=4e6), 2.44e9)


def test_synthesize_ps_peak():
    ps = channel.SCHEME_SHAPES["PS"]
    prof = channel.synthesize_profile("PS")
    i = np.argmax(prof.isolation_db)
    assert abs(prof.freqs_hz[i] - ps.peak_hz) < 200e3
    assert prof.isolation_db[i] == pytest.approx(ps.peak_db, abs=0.25)


def test_synthesize_ps_band_mean():
    ps = channel.SCHEME_SHAPES["PS"]
    prof = channel.synthesize_profile("PS")
    band = channel.band_isolation_db(prof, ps.peak_hz)
    assert band == pytest.approx(ps.band_db, abs=0.1)


def test_synthesize_ac_peak_and_band():
    ac = channel.SCHEME_SHAPES["AC"]
    prof = channel.synthesize_profile("AC")
    i = np.argmax(prof.isolation_db)
    assert abs(prof.freqs_hz[i] - ac.peak_hz) < 200e3
    assert prof.isolation_db[i] == pytest.approx(ac.peak_db, abs=0.3)
    band = channel.band_isolation_db(prof, ac.peak_hz)
    assert band == pytest.approx(ac.band_db, abs=0.1)


def test_synthesize_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        channel.synthesize_profile("XX")


@pytest.mark.parametrize("scheme", channel.SCHEME_SHAPES)
def test_stored_floor_is_the_root_that_meets_the_band_target(scheme, monkeypatch):
    # re-derive the stored floor: the root of the synthesized profile's band
    # isolation less the published band figure
    shape = channel.SCHEME_SHAPES[scheme]

    def mismatch(floor_db):
        monkeypatch.setitem(channel.SCHEME_SHAPES, scheme, replace(shape, floor_db=floor_db))
        prof = channel.synthesize_profile(scheme)
        return channel.band_isolation_db(prof, shape.peak_hz) - shape.band_db

    root = brentq(mismatch, 1.0, shape.band_db - 1e-9, xtol=1e-6)
    assert root == pytest.approx(shape.floor_db, abs=1e-6)


@pytest.mark.parametrize("iso_db", [-1000.0, 1000.0])
def test_profile_accepts_the_ends_of_the_isolation_range(iso_db):
    prof = flat_profile(iso_db)
    taps = channel.derive_baseband_channel(prof, 2.44e9, 20e6, 20e6, 256).taps
    # a flat profile is one tap of magnitude 0.5 * 10**(-iso/20)
    energy = np.sum(np.abs(taps) ** 2)
    assert energy == pytest.approx(0.25 * 10.0 ** (-iso_db / 10.0), rel=1e-9)


@pytest.mark.parametrize("iso_db", [-1000.5, 1000.5, -4000.0])
def test_profile_rejects_isolation_out_of_range(iso_db):
    with pytest.raises(ProfileError, match="isolation_db"):
        flat_profile(iso_db)


def test_load_rejects_isolation_out_of_range(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n2.4e9,40.0,0.0\n2.5e9,-4000,0.0\n")
    with pytest.raises(ProfileError, match="isolation_db"):
        channel.load_profile(path)


def test_save_load_round_trip(tmp_path):
    prof = flat_profile(n=3)
    path = tmp_path / "prof.csv"
    channel.save_profile(prof, path)
    back = channel.load_profile(path)
    assert np.array_equal(back.freqs_hz, prof.freqs_hz)
    assert np.array_equal(back.isolation_db, prof.isolation_db)
    assert np.array_equal(back.phase_deg, prof.phase_deg)


def test_load_three_row_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n"
                    "2.4e9,40.0,0.0\n2.41e9,41.0,-1.0\n2.42e9,42.0,-2.0\n")
    prof = channel.load_profile(path)
    assert len(prof.freqs_hz) == 3


def test_load_rejects_descending_frequencies(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n"
                    "2.42e9,40.0,0.0\n2.41e9,41.0,0.0\n")
    with pytest.raises(ProfileError):
        channel.load_profile(path)


def test_load_rejects_duplicate_frequencies(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n"
                    "2.4e9,40.0,0.0\n2.4e9,41.0,0.0\n")
    with pytest.raises(ProfileError):
        channel.load_profile(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("f,iso,ph\n2.4e9,40.0,0.0\n")
    with pytest.raises(ProfileError):
        channel.load_profile(path)


def test_load_rejects_nan(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n2.4e9,nan,0.0\n2.5e9,1.0,0.0\n")
    with pytest.raises(ProfileError):
        channel.load_profile(path)


@pytest.mark.parametrize("text, match", [
    ("", "empty profile file"),
    ("freq_hz,isolation_db,phase_deg\n2.4e9,40.0,0.0\n2.5e9,41.0\n", ":3: expected 3 columns"),
    ("freq_hz,isolation_db,phase_deg\n2.4e9,40.0,0.0\n", "at least 2"),
], ids=["empty", "two-columns", "one-row"])
def test_load_rejects_a_malformed_file(tmp_path, text, match):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ProfileError, match=match):
        channel.load_profile(path)


def test_load_skips_a_blank_row(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n2.4e9,40.0,0.0\n\n2.41e9,41.0,-1.0\n")
    prof = channel.load_profile(path)
    assert np.array_equal(prof.freqs_hz, [2.4e9, 2.41e9])
    assert np.array_equal(prof.isolation_db, [40.0, 41.0])
    assert np.array_equal(prof.phase_deg, [0.0, -1.0])


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("freq_hz,isolation_db,phase_deg\n2.4e9,40.0,0.0\n2.5e9,x,0.0\n")
    with pytest.raises(ProfileError, match=":3:"):
        channel.load_profile(path)


def test_derive_flat_profile_single_tap():
    prof = flat_profile(40.0)
    chan = channel.derive_baseband_channel(prof, 2.44e9, 20e6, 20e6, 256)
    expected = 0.5 * 10.0 ** (-40.0 / 20.0)
    assert abs(chan.taps[0]) == pytest.approx(expected, rel=1e-9)
    rest = np.abs(chan.taps[1:])
    assert np.all(rest < 1e-6 * expected)


def test_derive_linear_phase_delays_tap():
    tau = 4 / 20e6  # four sample periods
    prof = flat_profile(40.0, phase_deg=lambda f: -360.0 * tau * (f - 2.44e9))
    chan = channel.derive_baseband_channel(prof, 2.44e9, 20e6, 20e6, 256)
    assert int(np.argmax(np.abs(chan.taps))) == 4
    expected = 0.5 * 10.0 ** (-40.0 / 20.0)
    assert abs(chan.taps[4]) == pytest.approx(expected, rel=1e-6)


def test_derive_ps_dc_bin_matches_peak():
    prof = channel.synthesize_profile("PS")
    ps = channel.SCHEME_SHAPES["PS"]
    chan = channel.derive_baseband_channel(prof, ps.peak_hz, 20e6, 20e6, 256)
    dc = abs(np.fft.fft(chan.taps)[0])
    assert dc == pytest.approx(0.5 * 10.0 ** (-ps.peak_db / 20.0), rel=0.01)


def test_derive_round_trip_matches_profile_in_band():
    prof = channel.synthesize_profile("AC")
    n_taps = 256
    ac_peak_hz = channel.SCHEME_SHAPES["AC"].peak_hz
    chan = channel.derive_baseband_channel(prof, ac_peak_hz, 20e6, 20e6, n_taps)
    resp = np.fft.fft(chan.taps)
    f_bb = np.fft.fftfreq(n_taps, d=1.0 / 20e6)
    # undo the causality shift before comparing phases
    resp = resp * np.exp(2j * np.pi * f_bb * chan.shift_samples / 20e6)
    in_band = np.abs(f_bb) <= 9e6  # interior points only
    f_pass = f_bb[in_band] + ac_peak_hz
    mag_expect = 0.5 * 10.0 ** (-np.interp(f_pass, prof.freqs_hz, prof.isolation_db) / 20.0)
    ph_expect = np.interp(f_pass, prof.freqs_hz,
                          np.unwrap(np.deg2rad(prof.phase_deg)))
    assert np.all(np.abs(np.abs(resp[in_band]) - mag_expect) <= 0.01 * mag_expect)
    ph_err = np.angle(resp[in_band] * np.exp(-1j * ph_expect))
    assert np.max(np.abs(ph_err)) < np.deg2rad(2.0)


def test_derive_out_of_band_is_zero_before_shift():
    prof = flat_profile(40.0)
    chan = channel.derive_baseband_channel(prof, 2.44e9, 10e6, 20e6, 256)
    resp = np.fft.fft(chan.taps)
    f_bb = np.fft.fftfreq(256, d=1.0 / 20e6)
    out_band = np.abs(f_bb) > 5e6
    assert np.max(np.abs(resp[out_band])) < 1e-12


def test_derive_passband_feature_maps_to_offset():
    # a notch 3 MHz above f_c must appear at +3 MHz baseband
    f_c, half = 2.44e9, 12e6
    freqs = f_c + np.linspace(-half, half, 2401)
    iso = 40.0 + 20.0 * np.exp(-((freqs - f_c - 3e6) ** 2) / (2 * (0.5e6) ** 2))
    prof = channel.ChannelProfile(freqs, iso, np.zeros_like(freqs))
    chan = channel.derive_baseband_channel(prof, f_c, 20e6, 20e6, 256)
    resp = np.abs(np.fft.fft(chan.taps))
    f_bb = np.fft.fftfreq(256, d=1.0 / 20e6)
    deepest = f_bb[np.argmin(np.where(np.abs(f_bb) <= 10e6, resp, np.inf))]
    assert abs(deepest - 3e6) < 200e3


def test_derive_rejects_bad_n_taps():
    prof = flat_profile()
    with pytest.raises(ValueError):
        channel.derive_baseband_channel(prof, 2.44e9, 20e6, 20e6, 200)


def test_derive_rejects_a_band_wider_than_the_sample_rate():
    with pytest.raises(ValueError, match="sample_rate_hz"):
        channel.derive_baseband_channel(flat_profile(), 2.44e9, 20e6, 10e6, 256)


def test_derive_rejects_insufficient_coverage():
    prof = flat_profile(half=4e6)
    with pytest.raises(ProfileError):
        channel.derive_baseband_channel(prof, 2.44e9, 20e6, 20e6, 256)


def test_eq4_half_factor():
    prof = flat_profile(40.0)
    chan = channel.derive_baseband_channel(prof, 2.44e9, 20e6, 20e6, 256)
    peak_bb = np.max(np.abs(np.fft.fft(chan.taps)))
    peak_rf = np.max(10.0 ** (-prof.isolation_db / 20.0))
    assert peak_bb == pytest.approx(0.5 * peak_rf, rel=1e-9)


def test_support_length_prefix():
    # the causal prefix holding 99.99 % of the tap energy; the comments give
    # the third tap's share, against the 0.01 % the prefix may leave out
    for taps, support in [([3.0, 0.0, 1.0, 0.0], 3),  # 10 %
                          ([1.0, 0.0, 0.011, 0.0], 3),  # 0.0121 %
                          ([1.0, 0.0, 0.009, 0.0], 1),  # 0.0081 %
                          ([0.0, 0.0, 0.0, 0.0], 1)]:  # no energy: one tap
        assert channel.support_length(np.array(taps, dtype=complex)) == support, taps
