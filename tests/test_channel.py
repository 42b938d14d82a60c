"""Tests for profile synthesis and baseband derivation."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fdsim import channel
from fdsim.errors import CalibrationError, ProfileError


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


def test_synthesize_rejects_narrow_grid():
    grid = channel.SCHEME_SHAPES["PS"].peak_hz + np.linspace(-2e6, 2e6, 101)
    with pytest.raises(ProfileError):
        channel.synthesize_profile("PS", grid)


def test_synthesize_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        channel.synthesize_profile("XX")


# Grids of offsets from the peak: the default one, a coarse one just
# covering the band, and a wide uneven one.
CALIBRATION_GRIDS = {
    "default": np.linspace(-12e6, 12e6, 1921),
    "coarse": np.linspace(-5.5e6, 5.5e6, 221),
    "uneven": np.concatenate([np.linspace(-20e6, -1e6, 700, endpoint=False),
                              np.linspace(-1e6, 15e6, 2501)]),
}


@pytest.mark.parametrize("grid", CALIBRATION_GRIDS)
@pytest.mark.parametrize("scheme", channel.SCHEME_SHAPES)
def test_brent_port_matches_scipy_on_calibration(scheme, grid):
    shape = channel.SCHEME_SHAPES[scheme]
    freqs = shape.peak_hz + CALIBRATION_GRIDS[grid]
    notch_db, mismatch = channel._calibration(scheme, freqs)
    bracket = (1.0, shape.band_db - 1e-9)
    floor_db = brentq(mismatch, *bracket, xtol=1e-6)
    assert channel._brentq(mismatch, *bracket, xtol=1e-6) == floor_db
    prof = channel.synthesize_profile(scheme, freqs)
    assert np.array_equal(prof.isolation_db, notch_db(floor_db))


ANALYTIC = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 2.0, -1.0, 4.0),
    "flat_tail": (lambda x: math.atan(50.0 * (x - 0.1)), -3.0, 7.0),
    # steep: some interpolation steps are rejected for a bisection
    "steep": (lambda x: x**9 - 0.5, 0.0, 2.0),
    # +-1 never lets an interpolation step in: pure bisection
    "step": (lambda x: math.copysign(1.0, x - 0.3), -1.0, 2.0),
}


@pytest.mark.parametrize("xtol", [1e-6, 2e-12])
@pytest.mark.parametrize("name", ANALYTIC)
def test_brent_port_matches_scipy_on_analytic_functions(name, xtol):
    f, a, b = ANALYTIC[name]
    assert channel._brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)
    assert channel._brentq(f, b, a, xtol) == brentq(f, b, a, xtol=xtol)


def test_brent_port_returns_a_zero_end():
    assert channel._brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-6) == 1.0
    assert channel._brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-6) == 3.0


def test_brent_port_failures_are_calibration_errors():
    f, a, b = ANALYTIC["cubic"]
    with pytest.raises(RuntimeError):  # scipy's own failure type
        brentq(f, a, b, maxiter=2)
    with pytest.raises(CalibrationError, match="2 iterations"):
        channel._brentq(f, a, b, 2e-12, maxiter=2)
    with pytest.raises(CalibrationError, match="same sign"):
        channel._brentq(f, 3.0, 4.0, 1e-6)
    with pytest.raises(CalibrationError, match="NaN"):
        channel._brentq(lambda x: math.nan, 0.0, 1.0, 1e-6)


def test_unreachable_band_target_is_a_calibration_error(monkeypatch):
    # no floor can bring the band isolation above the peak isolation
    ps = channel.SCHEME_SHAPES["PS"]
    monkeypatch.setitem(channel.SCHEME_SHAPES, "PS", replace(ps, band_db=ps.peak_db + 5.0))
    with pytest.raises(CalibrationError, match="PS profile calibration failed"):
        channel.synthesize_profile("PS")


def test_unconverged_calibration_is_a_calibration_error(monkeypatch):
    monkeypatch.setattr(channel, "_brentq",
                        functools.partial(channel._brentq, maxiter=3))
    with pytest.raises(CalibrationError, match="3 iterations"):
        channel.synthesize_profile("AC")


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
    taps = np.array([3.0, 0.0, 1.0, 0.0], dtype=complex)
    assert channel.support_length(taps, 0.89) == 1
    assert channel.support_length(taps, 0.999) == 3
