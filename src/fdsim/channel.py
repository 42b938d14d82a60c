"""Self-interference channel models.

Passband isolation/phase profiles for the passive (PS) and active (AC)
antenna schemes, conversion to equivalent baseband impulse responses, and
channel application.  Profiles are synthesized from the published scalar
characteristics (peak isolation/frequency and 10-MHz band isolation) and
calibrated at runtime so the band figures are met to better than 0.1 dB.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from ._kernels import fir_convolve
from .errors import CalibrationError, ProfileError
from .sigproc import Waveform

# Published characteristics of the patch-antenna prototype.
PS_PEAK_DB = 53.9
PS_PEAK_HZ = 2.438e9
PS_BAND_DB = 42.5
AC_PEAK_DB = 78.1
AC_PEAK_HZ = 2.457e9
AC_BAND_DB = 35.3
BAND_WIDTH_HZ = 10e6  # bandwidth over which the band isolation is quoted

# Shape constants.  Both notches are Gaussian bumps in dB: the PS antenna
# null is broad, the AC canceller null is deep and narrow.  Floors are
# re-solved at runtime against the 10-MHz band targets.
PS_SIGMA_HZ = 3.0e6
AC_SIGMA_HZ = 1.4e6

# Fine-scale isolation ripple on the synthesized profiles.  A measured
# isolation curve is never analytically smooth; the texture is a
# deterministic sum of slow cosines in the dB domain, far below the plotted
# curve but responsible for the diffuse impulse-response tail that a
# finite-order canceller cannot model.  On top of a uniform
# measurement-grade ripple, each notch carries extra fine structure in its
# null region — strongest around the edges of the deep active null, mild at
# the passive peak.  The envelope levels are calibrated so the synthetic
# pair reproduces the published relative-SINR behaviour of the prototype,
# which the paper reports but whose underlying curves it does not tabulate.
TEXTURE_RMS_DB = 0.02
AC_EDGE_RIPPLE_DB = 0.24
AC_EDGE_RIPPLE_CENTER_HZ = 0.9e6
AC_EDGE_RIPPLE_SIGMA_HZ = 0.5e6
PS_PEAK_RIPPLE_DB = 0.019
PS_PEAK_RIPPLE_SIGMA_HZ = 0.25e6
TEXTURE_SEED = 0x51C4A7
TEXTURE_COMPONENTS = 64
TEXTURE_DELAY_RANGE_S = (1.0e-6, 4.0e-6)

# Synthesized phase slope (group delay).  The magnitude is a free
# parameter; one sample period at the 20 MHz simulation rate keeps the
# phase continuous across the band-edge wrap so the derived taps stay
# compact.
GROUP_DELAY_S = 5e-8

PROFILE_HEADER = ("freq_hz", "isolation_db", "phase_deg")


@dataclass(frozen=True)
class ChannelProfile:
    """Passband isolation (dB, positive = attenuation) and phase (deg)."""

    freqs_hz: np.ndarray
    isolation_db: np.ndarray
    phase_deg: np.ndarray
    scheme_label: str = "custom"
    center_hint_hz: float | None = None

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        iso = np.asarray(self.isolation_db, dtype=float)
        ph = np.asarray(self.phase_deg, dtype=float)
        if not (len(f) == len(iso) == len(ph)):
            raise ProfileError("profile arrays must have equal length")
        if len(f) < 2:
            raise ProfileError("profile needs at least 2 frequency points")
        if np.any(np.diff(f) <= 0):
            raise ProfileError("profile frequency grid must be strictly increasing")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(iso)) and np.all(np.isfinite(ph))):
            raise ProfileError("profile values must be finite")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "isolation_db", iso)
        object.__setattr__(self, "phase_deg", ph)


@dataclass(frozen=True)
class BasebandChannel:
    """Complex impulse-response taps at the simulation sample rate."""

    taps: np.ndarray
    sample_rate_hz: float
    scheme_label: str = "custom"
    shift_samples: int = 0  # circular shift applied when centering the taps


@dataclass(frozen=True)
class DesiredChannel:
    """Single-tap link from the far node, set by its received power."""

    gain: complex
    target_rx_power_dbm: float


def dbm_to_linear(dbm: float) -> float:
    """Power in simulation units under the 0 dBm == unit power convention."""
    return 10.0 ** (dbm / 10.0)


def band_isolation_db(profile: ChannelProfile, center_hz: float,
                      width_hz: float = BAND_WIDTH_HZ, n: int = 2001) -> float:
    """Effective isolation over a band: dB of the mean linear power gain."""
    f = np.linspace(center_hz - width_hz / 2.0, center_hz + width_hz / 2.0, n)
    if f[0] < profile.freqs_hz[0] or f[-1] > profile.freqs_hz[-1]:
        raise ProfileError("profile does not cover the requested band")
    iso = np.interp(f, profile.freqs_hz, profile.isolation_db)
    return -10.0 * np.log10(np.mean(10.0 ** (-iso / 10.0)))


@lru_cache(maxsize=1)
def _texture_components() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(TEXTURE_SEED)
    lo, hi = TEXTURE_DELAY_RANGE_S
    delays = rng.uniform(lo, hi, TEXTURE_COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, TEXTURE_COMPONENTS)
    return delays, phases


def _texture_db(f_rel: np.ndarray) -> np.ndarray:
    """Unit-RMS pseudo-random ripple as a function of offset from the peak."""
    delays, phases = _texture_components()
    arg = 2.0 * np.pi * np.outer(f_rel, delays) + phases
    return math.sqrt(2.0 / TEXTURE_COMPONENTS) * np.cos(arg).sum(axis=1)


def _notch_db(f_rel: np.ndarray, scheme: str, floor_db: float) -> np.ndarray:
    peak_db = PS_PEAK_DB if scheme == "PS" else AC_PEAK_DB
    sigma_hz = PS_SIGMA_HZ if scheme == "PS" else AC_SIGMA_HZ
    bump = np.exp(-(f_rel**2) / (2.0 * sigma_hz**2))
    smooth = floor_db + (peak_db - floor_db) * bump
    envelope = np.full_like(np.asarray(f_rel, dtype=float), TEXTURE_RMS_DB)
    if scheme == "AC":
        envelope = envelope + AC_EDGE_RIPPLE_DB * np.exp(
            -((np.abs(f_rel) - AC_EDGE_RIPPLE_CENTER_HZ) ** 2)
            / (2.0 * AC_EDGE_RIPPLE_SIGMA_HZ**2)
        )
    else:
        envelope = envelope + PS_PEAK_RIPPLE_DB * np.exp(
            -(f_rel**2) / (2.0 * PS_PEAK_RIPPLE_SIGMA_HZ**2)
        )
    return smooth + envelope * _texture_db(f_rel)


def synthesize_profile(scheme: str, freqs_hz: np.ndarray | None = None) -> ChannelProfile:
    """Build a calibrated PS or AC isolation/phase profile.

    The notch floor is solved so the mean isolation over the quoted 10 MHz
    band matches the published value to within 0.1 dB; the peak value and
    frequency are exact by construction.
    """
    if scheme not in ("PS", "AC"):
        raise ValueError(f"scheme must be 'PS' or 'AC', got {scheme!r}")
    peak_hz = PS_PEAK_HZ if scheme == "PS" else AC_PEAK_HZ
    target_db = PS_BAND_DB if scheme == "PS" else AC_BAND_DB
    if freqs_hz is None:
        freqs_hz = peak_hz + np.linspace(-12e6, 12e6, 1921)  # 12.5 kHz spacing
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    if freqs_hz[0] > peak_hz - BAND_WIDTH_HZ / 2 or freqs_hz[-1] < peak_hz + BAND_WIDTH_HZ / 2:
        raise ProfileError(
            f"grid must cover the {BAND_WIDTH_HZ/1e6:.0f} MHz band around {peak_hz/1e9} GHz"
        )
    f_rel = freqs_hz - peak_hz

    def mismatch(floor_db: float) -> float:
        prof = ChannelProfile(freqs_hz, _notch_db(f_rel, scheme, floor_db),
                              np.zeros_like(freqs_hz), scheme, peak_hz)
        return band_isolation_db(prof, peak_hz) - target_db

    try:
        floor_db = brentq(mismatch, 1.0, target_db - 1e-9, xtol=1e-6)
    except ValueError as exc:
        raise CalibrationError(
            f"{scheme} profile calibration failed: no floor in (1, {target_db}) "
            f"meets the {target_db} dB band target ({exc})"
        ) from exc
    residual = mismatch(floor_db)
    if abs(residual) > 0.1:
        raise CalibrationError(
            f"{scheme} profile calibration residual {residual:.3f} dB exceeds 0.1 dB"
        )
    phase_deg = -360.0 * GROUP_DELAY_S * f_rel
    return ChannelProfile(freqs_hz, _notch_db(f_rel, scheme, floor_db),
                          phase_deg, scheme, peak_hz)


def save_profile(profile: ChannelProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROFILE_HEADER)
        for f, iso, ph in zip(profile.freqs_hz, profile.isolation_db, profile.phase_deg):
            writer.writerow([repr(float(f)), repr(float(iso)), repr(float(ph))])


def load_profile(path) -> ChannelProfile:
    """Read a profile CSV (freq_hz,isolation_db,phase_deg), validating rows."""
    freqs, isos, phases = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError(f"{path}: empty profile file") from None
        if [c.strip() for c in header] != list(PROFILE_HEADER):
            raise ProfileError(
                f"{path}: expected header {','.join(PROFILE_HEADER)}, got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ProfileError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                vals = [float(c) for c in row]
            except ValueError:
                raise ProfileError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ProfileError(f"{path}:{lineno}: NaN/Inf not allowed")
            freqs.append(vals[0])
            isos.append(vals[1])
            phases.append(vals[2])
    if len(freqs) >= 2 and np.any(np.diff(freqs) == 0):
        raise ProfileError(f"{path}: duplicate frequencies in grid")
    if len(freqs) >= 2 and np.any(np.diff(freqs) < 0):
        raise ProfileError(f"{path}: frequency grid must be increasing")
    return ChannelProfile(np.array(freqs), np.array(isos), np.array(phases))


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
    shift = 0
    # two-sided impulse responses wrap their anti-causal part to the end of
    # the window; a small circular pre-delay makes them causal and compact
    power = np.abs(taps) ** 2
    total = power.sum()
    if total > 0.0 and power[3 * n_taps // 4 :].sum() > 1e-9 * total:
        shift = 3 * n_taps // 64
        taps = np.roll(taps, shift)
    dominant = int(np.argmax(np.abs(taps)))
    if dominant >= n_taps // 4:
        extra = (n_taps // 8 - dominant) % n_taps
        shift += extra
        taps = np.roll(taps, extra)
    return BasebandChannel(taps=taps, sample_rate_hz=sample_rate_hz,
                           scheme_label=profile.scheme_label, shift_samples=shift)


def apply_channel(wave: Waveform, chan: BasebandChannel, tx_power_dbm: float) -> Waveform:
    """Pass a waveform through the channel at the given transmit power."""
    if wave.sample_rate_hz != chan.sample_rate_hz:
        raise ValueError("waveform and channel sample rates differ")
    amp = math.sqrt(dbm_to_linear(tx_power_dbm))
    out = amp * fir_convolve(wave.samples, chan.taps)
    return Waveform(samples=out, sample_rate_hz=wave.sample_rate_hz,
                    samples_per_symbol=wave.samples_per_symbol,
                    delay_samples=wave.delay_samples)


def make_desired_channel(p_rb_dbm: float, p_tb_dbm: float,
                         rng: np.random.Generator) -> DesiredChannel:
    """Single complex tap delivering the target received power.

    A unit-average-power transmit waveform sent at p_tb_dbm arrives with
    average power p_rb_dbm; the phase is uniform random.
    """
    mag = math.sqrt(dbm_to_linear(p_rb_dbm) / dbm_to_linear(p_tb_dbm))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return DesiredChannel(gain=mag * np.exp(1j * phase), target_rx_power_dbm=p_rb_dbm)


def support_length(taps: np.ndarray, energy_fraction: float = 0.999) -> int:
    """Length of the causal prefix holding the given fraction of tap energy."""
    power = np.abs(taps) ** 2
    total = power.sum()
    if total == 0.0:
        return 1
    cum = np.cumsum(power)
    return int(np.searchsorted(cum, energy_fraction * total) + 1)
