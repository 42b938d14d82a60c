"""Single full-duplex trial orchestration and link metrics.

Runs one frame from the near node's perspective: both nodes transmit,
the self-interference arrives through the scheme's measured-style channel,
optional baseband cancellation subtracts its estimated replica, and the
surviving signal is matched-filtered and detected.  Metrics are the
measured SINR, bit error rate, and Shannon rate.  What a config's trials
share (filter, SI channel, pulse spectrum, SINR window, training model)
is its trial design, which the caller builds once and passes to each
trial.

The SI reaches the receiver at the symbol rate: the trial's symbols pass
once through the design's spectrum of the SRRC pulse through the SI
channel.  With +B the replica is subtracted inside that spectrum, not as
a second sample-rate waveform: the SI after cancellation is the symbols
through the pulse⊛channel filter less amp·(SRRC ⊛ estimate), which is
linear in the filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import cancellation, channel, sigproc
from ._kernels import PhaseSpectrum, phase_spectrum, upsample_convolve_fft
from .errors import ConfigError, ProfileError

SCHEMES = ("PS", "AC", "PS+B", "AC+B")

#: Scheme-optimal carrier frequencies (the system is tuned to whichever
#: RF scheme is in use).
SCHEME_FC_HZ = {"PS": channel.PS_PEAK_HZ, "AC": channel.AC_PEAK_HZ}

#: Default canceller model order: the longest FIR identifiable from the
#: default 5-symbol training burst at the widest default bandwidth.  Kept
#: fixed across bandwidth sweeps — the canceller hardware does not grow
#: extra taps when the waveform narrows.
DEFAULT_ESTIMATOR_ORDER = 26

#: Accepted range of ``p_ta_dbm`` and ``p_rb_dbm``, in dBm.  Their linear
#: powers stay within 1e±100, so every power a trial forms from them (and
#: the ratio of the two) stays a normal float.
POWER_RANGE_DBM = (-1000.0, 1000.0)

#: Accepted range of a finite ``ebn0_db``, in dB (+inf, the noise-free
#: link, is accepted too).  With the powers in ``POWER_RANGE_DBM``, the
#: noise variance it sets lies between about 1e-204 and 1e197, so it and
#: the noise powers a trial sums stay normal floats.
EBN0_RANGE_DB = (-1000.0, 1000.0)


@dataclass(frozen=True)
class LinkConfig:
    """Simulation parameters; defaults follow the prototype's network setup."""

    n_b: int = 2
    mod_order: int = 4
    n_bits: int = 2000
    n_training: int = 5
    f_c_hz: float | None = None  # None: scheme-optimal frequency
    sample_rate_hz: float = 20e6
    channel_bandwidth_hz: float = 20e6
    signal_bandwidth_hz: float = 10e6
    p_ta_dbm: float = 0.0
    p_rb_dbm: float = -60.0
    scheme: str = "PS"
    ebn0_db: float = 90.0  # cancellation-limited by default
    rolloff: float = 0.25
    span_symbols: int = 8
    estimator_order: int | None = None  # None: DEFAULT_ESTIMATOR_ORDER
    n_taps: int = 256
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # ebn0_db = +inf is the noise-free link
            if (isinstance(value, float) and not math.isfinite(value)
                    and not (f.name == "ebn0_db" and value == math.inf)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        low, high = POWER_RANGE_DBM
        for key in ("p_ta_dbm", "p_rb_dbm"):
            if not low <= getattr(self, key) <= high:
                raise ConfigError(f"{key} must be in [{low:g}, {high:g}] dBm, "
                                  f"got {getattr(self, key)}")
        low, high = EBN0_RANGE_DB
        if math.isfinite(self.ebn0_db) and not low <= self.ebn0_db <= high:
            raise ConfigError(f"ebn0_db must be in [{low:g}, {high:g}] dB or inf, "
                              f"got {self.ebn0_db}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_training < 1:
            raise ConfigError(f"n_training must be >= 1, got {self.n_training}")
        if self.n_taps < 2 or self.n_taps & (self.n_taps - 1):
            raise ConfigError(f"n_taps must be a power of two >= 2, got {self.n_taps}")
        if self.estimator_order is not None and self.estimator_order < 1:
            raise ConfigError(
                f"estimator_order must be >= 1, got {self.estimator_order}"
            )
        if self.mod_order != 2**self.n_b:
            raise ConfigError(f"mod_order {self.mod_order} != 2**n_b with n_b={self.n_b}")
        if self.mod_order not in sigproc.SUPPORTED_ORDERS:
            raise ConfigError(f"unsupported modulation order {self.mod_order}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        # the SRRC design (sigproc.srrc_taps) needs sps >= 2, rolloff in
        # (0, 1] and span >= 4; the training length below depends on it
        if not 0.0 < 2.0 * self.signal_bandwidth_hz <= self.sample_rate_hz:
            raise ConfigError(
                f"signal_bandwidth_hz must be in (0, sample_rate_hz / 2] (at "
                f"least 2 samples per symbol), got {self.signal_bandwidth_hz}"
            )
        if not 0.0 < self.rolloff <= 1.0:
            raise ConfigError(f"rolloff must be in (0, 1], got {self.rolloff}")
        if self.span_symbols < 4:
            raise ConfigError(f"span_symbols must be >= 4, got {self.span_symbols}")
        sps = self.sample_rate_hz / self.signal_bandwidth_hz
        if abs(sps - round(sps)) > 1e-9:
            raise ConfigError(
                f"sample_rate/signal_bandwidth = {sps} is not an integer"
            )
        if not 0.0 < self.channel_bandwidth_hz <= self.sample_rate_hz:
            raise ConfigError(
                f"channel_bandwidth_hz must be in (0, sample_rate_hz], got "
                f"{self.channel_bandwidth_hz}"
            )
        if self.n_bits < self.n_b:
            raise ConfigError(
                f"n_bits must be >= n_b (one symbol), got {self.n_bits}"
            )
        if self.n_bits % self.n_b:
            raise ConfigError(f"n_bits={self.n_bits} not divisible by n_b={self.n_b}")
        n_training_samples = (self.n_training + self.span_symbols) * self.samples_per_symbol
        order = self.effective_estimator_order
        if self.uses_baseband_cancellation and order > n_training_samples:
            raise ConfigError(
                f"estimator_order {order} exceeds the {n_training_samples} "
                f"training samples ((n_training + span_symbols) * "
                f"samples_per_symbol); increase n_training or lower "
                f"estimator_order"
            )
        # a longer replica would outlast the received frame
        if self.uses_baseband_cancellation and order > self.n_taps:
            raise ConfigError(
                f"estimator_order {order} exceeds n_taps = {self.n_taps}; "
                f"lower estimator_order or raise n_taps"
            )

    @property
    def samples_per_symbol(self) -> int:
        return int(round(self.sample_rate_hz / self.signal_bandwidth_hz))

    @property
    def effective_estimator_order(self) -> int:
        """The canceller's model order (``estimator_order`` or the default)."""
        if self.estimator_order is None:
            return DEFAULT_ESTIMATOR_ORDER
        return self.estimator_order

    @property
    def rf_scheme(self) -> str:
        return self.scheme.split("+")[0]

    @property
    def uses_baseband_cancellation(self) -> bool:
        return self.scheme.endswith("+B")

    @property
    def carrier_hz(self) -> float:
        return self.f_c_hz if self.f_c_hz is not None else SCHEME_FC_HZ[self.rf_scheme]


@dataclass(frozen=True)
class LinkReport:
    """Per-trial metrics; the rate field is always log2(1 + linear SINR)."""

    sinr_db: float
    ber: float
    rate_bps_hz: float
    residual_power_dbm: float
    estimate_error_db: float | None
    config: LinkConfig
    trials: int = 1

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber {self.ber} outside [0, 1]")
        expected = rate_from_sinr_db(self.sinr_db)
        if not math.isclose(self.rate_bps_hz, expected, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("rate_bps_hz inconsistent with sinr_db")


def rate_from_sinr_db(sinr_db: float) -> float:
    if sinr_db == math.inf:
        return math.inf
    return math.log2(1.0 + 10.0 ** (sinr_db / 10.0))


def ebn0_to_noise_variance(ebn0_db: float, reference_power: float, n_b: int,
                           samples_per_symbol: int) -> float:
    """Per-sample noise variance for a target Eb/N0.

    ``reference_power`` is the mean per-sample power of the reference
    (desired) waveform, so reference_power * samples_per_symbol is its
    symbol energy and the quotient by n_b the energy per bit.
    """
    return reference_power * samples_per_symbol / (n_b * 10.0 ** (ebn0_db / 10.0))


def ber(tx_bits, rx_bits) -> float:
    """Fraction of differing bits."""
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.shape != rx.shape:
        raise ValueError(f"bit vector lengths differ: {tx.shape} vs {rx.shape}")
    if tx.size == 0:
        return 0.0
    return float(np.count_nonzero(tx != rx) / tx.size)


def _mean_power(x: np.ndarray, n: int | None = None) -> float:
    """Mean of |x|² over ``n`` samples (default ``len(x)``), x zero-padded."""
    return sigproc.energy(x) / (len(x) if n is None else n)


def _power_ratio_db(p_desired: float, p_residual: float) -> float:
    if p_residual == 0.0:
        return math.inf
    return 10.0 * math.log10(p_desired / p_residual)


def sinr(desired: np.ndarray, residual: np.ndarray) -> float:
    """Ratio of mean powers in dB; +inf when the residual is exactly zero."""
    if len(desired) != len(residual):
        raise ValueError("desired and residual measurement windows differ in length")
    return _power_ratio_db(_mean_power(desired), _mean_power(residual))


@lru_cache(maxsize=16)
def _baseband_channel(scheme: str, f_c_hz: float, band_hz: float,
                      sample_rate_hz: float, n_taps: int) -> channel.BasebandChannel:
    profile = channel.synthesize_profile(scheme)
    chan = channel.derive_baseband_channel(profile, f_c_hz, band_hz,
                                           sample_rate_hz, n_taps)
    chan.taps.setflags(write=False)
    return chan


def self_interference_channel(config: LinkConfig) -> channel.BasebandChannel:
    """The scheme's baseband self-interference channel for this config; a
    channel band outside the scheme's profile is a ``ConfigError``."""
    try:
        return _baseband_channel(config.rf_scheme, config.carrier_hz,
                                 config.channel_bandwidth_hz,
                                 config.sample_rate_hz, config.n_taps)
    except ProfileError as exc:
        raise ConfigError(f"f_c_hz = {config.carrier_hz:g}, channel_bandwidth_hz = "
                          f"{config.channel_bandwidth_hz:g}: {exc}") from exc


@dataclass(frozen=True)
class TrialDesign:
    """The parts of a trial that do not change from trial to trial, all for
    ``config``: the SRRC filter, the SI channel and its tap energy, the
    polyphase spectrum of one transmitted pulse through that channel, the
    SINR measurement window ``[head, tail)`` of the received frame, and
    (for +B, else ``None``) the LS training model.  Its arrays are
    read-only.  A +B trial subtracts its replica inside ``si_spectrum``."""

    config: LinkConfig
    filt: sigproc.SrrcFilter
    h_aa: channel.BasebandChannel
    si_spectrum: PhaseSpectrum
    training: cancellation.TrainingModel | None
    head: int
    tail: int
    si_tap_energy: float


def _sinr_window(config: LinkConfig, filt: sigproc.SrrcFilter,
                 h_aa: channel.BasebandChannel, n_full: int) -> tuple[int, int]:
    """The received samples ``[head, tail)`` over which the SINR is measured:
    past the filter and channel transients at both ends, or the whole frame
    when that leaves less than a symbol or starts after the desired
    waveform has ended (a frame of a few symbols)."""
    n_desired = (config.n_bits // config.n_b) * config.samples_per_symbol + len(filt.taps) - 1
    head = 2 * filt.group_delay + channel.support_length(h_aa.taps, 0.9999)
    tail = n_full - 2 * filt.group_delay
    if tail - head < config.samples_per_symbol or head >= n_desired:
        return 0, n_full
    return head, tail


def trial_design(config: LinkConfig) -> TrialDesign:
    """The trial design of this config.  A sweep builds one per point and
    passes it to each trial of the point; nothing keeps it after that."""
    sps = config.samples_per_symbol
    n_sym = config.n_bits // config.n_b
    filt = sigproc.srrc_taps(config.rolloff, config.span_symbols, sps)
    filt.taps.setflags(write=False)
    h_aa = self_interference_channel(config)
    # the SI of one transmitted pulse; a frame's SI is the sum of its
    # symbol-spaced shifts scaled by the symbols
    pulse = sigproc.Waveform(samples=filt.taps, sample_rate_hz=config.sample_rate_hz,
                             samples_per_symbol=sps)
    si_pulse = channel.apply_channel(pulse, h_aa, config.p_ta_dbm)
    spectrum = phase_spectrum(si_pulse.samples, sps, n_sym)
    head, tail = _sinr_window(config, filt, h_aa, n_sym * sps + spectrum.n_taps - 1)
    training = None
    if config.uses_baseband_cancellation:
        burst = cancellation.make_training_signal(config.n_training, filt, config.sample_rate_hz)
        training = cancellation.training_model(burst, config.effective_estimator_order,
                                               len(h_aa.taps))
    return TrialDesign(config, filt, h_aa, spectrum, training, head, tail,
                       float(np.sum(np.abs(h_aa.taps) ** 2)))


def run_trial(config: LinkConfig, rng: np.random.Generator | None = None,
              design: TrialDesign | None = None) -> LinkReport:
    """Simulate one full-duplex frame and report the link metrics.

    ``design`` is ``trial_design(config)``, built here when not given.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if design is None:
        design = trial_design(config)
    elif design.config != config:
        raise ValueError("trial design was built for another config")
    sps = config.samples_per_symbol
    filt, h_aa = design.filt, design.h_aa

    p_rb_lin = channel.dbm_to_linear(config.p_rb_dbm)
    # reference is the desired signal's waveform-level (per-sample) power
    noise_var = ebn0_to_noise_variance(config.ebn0_db, p_rb_lin / sps,
                                       config.n_b, sps)

    estimate = None
    if design.training is not None:
        estimate = cancellation.run_training(h_aa, config.p_ta_dbm, noise_var,
                                             rng, design.training)

    n_sym = config.n_bits // config.n_b
    bits_a = rng.integers(0, 2, size=config.n_bits)
    bits_b = rng.integers(0, 2, size=config.n_bits)
    s_a = sigproc.modulate_psk(bits_a, config.mod_order)
    s_b = sigproc.modulate_psk(bits_b, config.mod_order)

    p_tb_dbm = config.p_ta_dbm  # symmetric nodes
    h_ba = channel.make_desired_channel(config.p_rb_dbm, p_tb_dbm, rng)
    replica = None
    if estimate is not None:
        # +B: the replica amp·(pulse_shape(s_a) ⊛ ĥ) is s_a through the
        # filter amp·(srrc ⊛ ĥ), so the SI less its replica is s_a through
        # the difference of the two filters
        amp = math.sqrt(channel.dbm_to_linear(config.p_ta_dbm))
        replica = amp * np.convolve(filt.taps, estimate.taps_hat)

    # the received frame is built in the noise's buffer: the SI
    # (channel.apply_channel(pulse_shape(s_a), h_aa), at the symbol rate)
    # and then the desired waveform are added to it, so at most two
    # frame-length arrays are alive at once
    n_full = n_sym * sps + design.si_spectrum.n_taps - 1
    frame = sigproc.awgn(n_full, noise_var, rng)
    frame += upsample_convolve_fft(s_a, design.si_spectrum, minus=replica)
    head, tail = design.head, design.tail
    p_residual = _mean_power(frame[head:tail])
    x_b = sigproc.pulse_shape(s_b, filt, config.sample_rate_hz)
    desired = x_b.samples
    # the gain as the left operand, which numpy's complex product is not
    # bitwise symmetric in
    np.multiply(math.sqrt(channel.dbm_to_linear(p_tb_dbm)) * h_ba.gain, desired,
                out=desired)
    # the desired waveform is zero past its end, inside the window too
    gamma_db = _power_ratio_db(_mean_power(desired[head:tail], tail - head), p_residual)
    frame[: len(desired)] += desired
    r_a = sigproc.Waveform(samples=frame, sample_rate_hz=config.sample_rate_hz,
                           samples_per_symbol=sps, delay_samples=filt.group_delay)

    # detection: matched filter, known-phase equalization, demodulation
    symbols = sigproc.matched_filter_downsample(r_a, filt, n_symbols=n_sym)
    symbols = symbols * np.exp(-1j * np.angle(h_ba.gain))
    bits_hat = sigproc.demodulate_psk(symbols, config.mod_order)
    p_b = ber(bits_b, bits_hat)
    residual_dbm = 10.0 * math.log10(max(p_residual, 1e-300))

    est_err_db = None
    if estimate is not None:
        err = np.array(h_aa.taps, dtype=np.complex128, copy=True)
        err[: len(estimate.taps_hat)] -= estimate.taps_hat
        est_err_db = 10.0 * math.log10(
            max(sigproc.energy(err) / design.si_tap_energy, 1e-300)
        )

    return LinkReport(sinr_db=gamma_db, ber=p_b,
                      rate_bps_hz=rate_from_sinr_db(gamma_db),
                      residual_power_dbm=residual_dbm,
                      estimate_error_db=est_err_db,
                      config=config)


def _comparison_key(config: LinkConfig) -> LinkConfig:
    return replace(config, scheme="PS", f_c_hz=None, estimator_order=None)


def _require_comparable(*reports: LinkReport) -> None:
    keys = {_comparison_key(r.config) for r in reports}
    if len(keys) != 1:
        raise ValueError("reports differ in more than the cancellation scheme")


def sinr_gain_ratios(reports: dict[str, LinkReport]) -> dict[str, float]:
    """Relative SINR gains between schemes, in dB.

    Expects one report per scheme label; all reports must share the same
    configuration apart from the scheme itself.
    """
    missing = [s for s in SCHEMES if s not in reports]
    if missing:
        raise ValueError(f"missing reports for schemes: {missing}")
    _require_comparable(*reports.values())
    g = {s: reports[s].sinr_db for s in SCHEMES}
    return {
        "ps_b_over_ac_b": g["PS+B"] - g["AC+B"],
        "ps_b_over_ps": g["PS+B"] - g["PS"],
        "ac_b_over_ac": g["AC+B"] - g["AC"],
    }


def rate_difference(r_ps_b: LinkReport, r_ac_b: LinkReport) -> float:
    """Achievable-rate advantage of PS+B over AC+B, in bps/Hz."""
    _require_comparable(r_ps_b, r_ac_b)
    return r_ps_b.rate_bps_hz - r_ac_b.rate_bps_hz
