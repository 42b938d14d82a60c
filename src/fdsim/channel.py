"""Self-interference channel models.

Passband isolation/phase profiles for the passive (PS) and active (AC)
antenna schemes and their conversion to equivalent baseband
impulse-response taps, which the link convolves with its pulse.
Profiles are synthesized from the published scalar characteristics
(peak isolation/frequency and 10-MHz band isolation).  Each scheme's
notch floor, which sets its band isolation, is stored in its
``SchemeShape``, not solved at run time; the tests re-derive it with
scipy's root finder and check the band figures to 0.1 dB.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ProfileError

BAND_WIDTH_HZ = 10e6  # bandwidth over which the band isolation is quoted


@dataclass(frozen=True)
class SchemeShape:
    """An RF scheme's published isolation and its synthesized notch's shape."""

    peak_db: float  # published peak isolation, at peak_hz
    peak_hz: float
    band_db: float  # published isolation over BAND_WIDTH_HZ, which floor_db meets
    # the notch floor: the root in (1, band_db) of the synthesized profile's
    # band isolation minus band_db, found once by scipy's Brent root finder
    # (xtol 1e-6) and stored; tests/test_channel.py re-derives it
    floor_db: float
    sigma_hz: float  # width of the notch, a Gaussian bump in dB
    ripple_db: float  # the ripple envelope is TEXTURE_RMS_DB plus a Gaussian this high,
    ripple_center_hz: float  # centred this far from the peak (in |f - peak_hz|),
    ripple_sigma_hz: float  # and this wide


#: The prototype's RF schemes, the one place their published figures live.
#: The PS antenna null is broad, with mild ripple at its peak; the AC
#: canceller null is deep and narrow, its ripple strongest at its edges.
SCHEME_SHAPES = {
    "PS": SchemeShape(peak_db=53.9, peak_hz=2.438e9, band_db=42.5,
                      floor_db=29.708635299441646, sigma_hz=3.0e6,
                      ripple_db=0.019, ripple_center_hz=0.0, ripple_sigma_hz=0.25e6),
    "AC": SchemeShape(peak_db=78.1, peak_hz=2.457e9, band_db=35.3,
                      floor_db=30.54008534500548, sigma_hz=1.4e6,
                      ripple_db=0.24, ripple_center_hz=0.9e6, ripple_sigma_hz=0.5e6),
}

# Fine-scale isolation ripple on the synthesized profiles.  A measured
# isolation curve is never analytically smooth; the texture is a
# deterministic sum of slow cosines in the dB domain, far below the plotted
# curve but responsible for the diffuse impulse-response tail that a
# finite-order canceller cannot model.  Its envelope levels (this uniform
# one and each scheme's) are calibrated to the prototype's published
# relative-SINR behaviour, whose underlying curves the paper does not give.
TEXTURE_RMS_DB = 0.02
TEXTURE_SEED = 0x51C4A7
TEXTURE_COMPONENTS = 64
TEXTURE_DELAY_RANGE_S = (1.0e-6, 4.0e-6)

# Synthesized phase slope (group delay).  The magnitude is a free
# parameter; one sample period at the 20 MHz simulation rate keeps the
# phase continuous across the band-edge wrap so the derived taps stay
# compact.
GROUP_DELAY_S = 5e-8

PROFILE_HEADER = ("freq_hz", "isolation_db", "phase_deg")

#: Accepted range of a profile's isolation, in dB.  The baseband tap
#: magnitude 0.5 * 10**(-isolation/20) and its square then stay normal
#: floats.
ISOLATION_RANGE_DB = (-1000.0, 1000.0)


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """Passband isolation (dB, positive = attenuation) and phase (deg)."""

    freqs_hz: np.ndarray
    isolation_db: np.ndarray
    phase_deg: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        iso = np.asarray(self.isolation_db, dtype=float)
        ph = np.asarray(self.phase_deg, dtype=float)
        if not (len(f) == len(iso) == len(ph)):
            raise ProfileError("profile arrays must have equal length")
        if len(f) < 2:
            raise ProfileError("profile needs at least 2 frequency points")
        if np.any(f[1:] <= f[:-1]):  # not np.diff, which overflows on wide grids
            raise ProfileError("profile frequency grid must be strictly increasing")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(iso)) and np.all(np.isfinite(ph))):
            raise ProfileError("profile values must be finite")
        low, high = ISOLATION_RANGE_DB
        if np.any(iso < low) or np.any(iso > high):
            raise ProfileError(f"isolation_db must be in [{low:g}, {high:g}] dB, got "
                               f"values in [{iso.min():g}, {iso.max():g}]")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "isolation_db", iso)
        object.__setattr__(self, "phase_deg", ph)


@dataclass(frozen=True, eq=False)
class BasebandChannel:
    """Complex impulse-response taps at the simulation sample rate."""

    taps: np.ndarray
    shift_samples: int = 0  # circular shift applied when centering the taps


def dbm_to_linear(dbm: float) -> float:
    """Power in simulation units under the 0 dBm == unit power convention."""
    return 10.0 ** (dbm / 10.0)


def band_isolation_db(profile: ChannelProfile, center_hz: float) -> float:
    """Effective isolation over the ``BAND_WIDTH_HZ`` band around
    ``center_hz``: dB of the mean linear power gain at 2001 points."""
    f = np.linspace(center_hz - BAND_WIDTH_HZ / 2.0, center_hz + BAND_WIDTH_HZ / 2.0, 2001)
    if f[0] < profile.freqs_hz[0] or f[-1] > profile.freqs_hz[-1]:
        raise ProfileError("profile does not cover the requested band")
    iso = np.interp(f, profile.freqs_hz, profile.isolation_db)
    return -10.0 * np.log10(np.mean(10.0 ** (-iso / 10.0)))


def _texture_db(f_rel: np.ndarray) -> np.ndarray:
    """Unit-RMS pseudo-random ripple as a function of offset from the peak."""
    rng = np.random.default_rng(TEXTURE_SEED)
    delays = rng.uniform(*TEXTURE_DELAY_RANGE_S, TEXTURE_COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, TEXTURE_COMPONENTS)
    arg = 2.0 * np.pi * np.outer(f_rel, delays) + phases
    return math.sqrt(2.0 / TEXTURE_COMPONENTS) * np.cos(arg).sum(axis=1)


def synthesize_profile(scheme: str) -> ChannelProfile:
    """The isolation/phase profile of an RF scheme on a 12.5 kHz grid
    24 MHz wide around its peak.

    The isolation is a notch in dB, ``floor + (peak - floor) * bump +
    ripple``: its peak value and frequency are exact by construction, and
    the stored floor puts its mean isolation over the quoted 10 MHz band
    at the published value.
    """
    if scheme not in SCHEME_SHAPES:
        raise ValueError(f"scheme must be one of {tuple(SCHEME_SHAPES)}, got {scheme!r}")
    shape = SCHEME_SHAPES[scheme]
    freqs_hz = shape.peak_hz + np.linspace(-12e6, 12e6, 1921)
    f_rel = freqs_hz - shape.peak_hz
    bump = np.exp(-(f_rel**2) / (2.0 * shape.sigma_hz**2))
    envelope = TEXTURE_RMS_DB + shape.ripple_db * np.exp(
        -((np.abs(f_rel) - shape.ripple_center_hz) ** 2) / (2.0 * shape.ripple_sigma_hz**2)
    )
    ripple = envelope * _texture_db(f_rel)
    isolation_db = shape.floor_db + (shape.peak_db - shape.floor_db) * bump + ripple
    phase_deg = -360.0 * GROUP_DELAY_S * (freqs_hz - shape.peak_hz)
    return ChannelProfile(freqs_hz, isolation_db, phase_deg)


def save_profile(profile: ChannelProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROFILE_HEADER)
        for f, iso, ph in zip(profile.freqs_hz, profile.isolation_db, profile.phase_deg):
            writer.writerow([repr(float(f)), repr(float(iso)), repr(float(ph))])


def load_profile(path) -> ChannelProfile:
    """Read a profile CSV (freq_hz,isolation_db,phase_deg), skipping blank
    rows; ``ChannelProfile`` checks the values read."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ProfileError(f"{path}: empty profile file") from None
            if [c.strip() for c in header] != list(PROFILE_HEADER):
                raise ProfileError(f"{path}: expected header {','.join(PROFILE_HEADER)}, "
                                   f"got {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ProfileError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    raise ProfileError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return ChannelProfile(*np.array(rows).reshape(-1, 3).T)


def derive_baseband_channel(profile: ChannelProfile, f_c: float, band_hz: float,
                            sample_rate_hz: float, n_taps: int) -> BasebandChannel:
    """Convert a passband profile to equivalent baseband impulse-response taps.

    The one-sided passband response is shifted to 0 Hz (picking up the
    factor 1/2), resampled onto the FFT grid by interpolating isolation in
    dB and unwrapped phase, zeroed outside the measured band, and inverse
    transformed.  If the dominant tap lands outside the first quarter of
    the window the taps are circularly shifted to make it causal.
    """
    if n_taps < 2 or n_taps & (n_taps - 1):
        raise ValueError(f"n_taps must be a power of two, got {n_taps}")
    if sample_rate_hz < band_hz:
        raise ValueError("sample_rate_hz must be >= band_hz")
    lo, hi = f_c - band_hz / 2.0, f_c + band_hz / 2.0
    if lo < profile.freqs_hz[0] or hi > profile.freqs_hz[-1]:
        raise ProfileError(
            f"profile covers [{profile.freqs_hz[0]:.4g}, {profile.freqs_hz[-1]:.4g}] Hz "
            f"but [{lo:.4g}, {hi:.4g}] is required"
        )
    phase_unwrapped = np.unwrap(np.deg2rad(profile.phase_deg))
    f_bb = np.fft.fftfreq(n_taps, d=1.0 / sample_rate_hz)
    response = np.zeros(n_taps, dtype=np.complex128)
    in_band = np.abs(f_bb) <= band_hz / 2.0
    f_pass = f_bb[in_band] + f_c
    iso = np.interp(f_pass, profile.freqs_hz, profile.isolation_db)
    ph = np.interp(f_pass, profile.freqs_hz, phase_unwrapped)
    response[in_band] = 0.5 * 10.0 ** (-iso / 20.0) * np.exp(1j * ph)
    taps = np.fft.ifft(response)
    # two-sided impulse responses wrap their anti-causal part to the end of
    # the window; a small circular pre-delay makes them causal and compact
    mag = np.abs(taps)
    power = mag**2
    shift = 3 * n_taps // 64 if power[3 * n_taps // 4 :].sum() > 1e-9 * power.sum() else 0
    # the dominant tap after that pre-delay, the first in shifted order on a tie
    dominant = int(np.min((np.flatnonzero(mag == mag.max()) + shift) % n_taps))
    if dominant >= n_taps // 4:
        shift += (n_taps // 8 - dominant) % n_taps
    return BasebandChannel(taps=np.roll(taps, shift), shift_samples=shift)


def support_length(taps: np.ndarray) -> int:
    """Length of the causal prefix holding 99.99 % of the tap energy."""
    power = np.abs(taps) ** 2
    total = power.sum()
    if total == 0.0:
        return 1
    cum = np.cumsum(power)
    return int(np.searchsorted(cum, 0.9999 * total) + 1)
