"""Single full-duplex trial orchestration and link metrics.

Runs one frame from the near node's perspective: both nodes transmit,
the self-interference arrives through the scheme's measured-style channel,
optional baseband cancellation subtracts its estimated replica, and the
surviving signal is matched-filtered and detected.  Metrics are the
measured SINR, bit error rate, and Shannon rate.  The stages pass plain
sample arrays, at the config's sample rate and samples per symbol.  What
a config's trials share (filter, SI channel, pulse filter, SINR window,
training model) is its trial design, which the caller builds once and
passes to each trial.

The SI reaches the receiver at the symbol rate, the trial's symbols
passing once through the design's filter of the SRRC pulse through the
SI channel (``_kernels``), less the +B replica's amp·(SRRC ⊛ estimate),
so a +B trial filters no more than an RF-only one.  This is the only
canceller in the package.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from . import _worker, cancellation, channel, sigproc
from ._kernels import PhaseSpectrum, phase_spectrum, spectrum_shape, upsample_convolve_fft
from .errors import ConfigError, ProfileError

#: The RF schemes, then each with baseband cancellation (+B).
SCHEMES = (*channel.SCHEME_SHAPES, *(f"{s}+B" for s in channel.SCHEME_SHAPES))

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

#: Shortest received frame whose receiver noise ``draw_trial`` hands to
#: the worker thread (``_worker``).  On a 2-vCPU VM the hand-off cost the
#: 2 271-sample 10 MHz frame ~13 µs per trial and saved the 4 287-sample
#: 5 MHz frame ~27 µs.
BACKGROUND_NOISE_SAMPLES = 2**12

#: Longest received frame (``LinkConfig.frame_samples``), and most entries
#: of a +B design's replica DFT and LS training matrices and of the
#: matched filter's block product: 2**24 samples are 268 MB (the README
#: gives the frames a trial and a sweep hold at their peak).  Any of them
#: above it is a config error, not an allocation that exhausts memory.
MAX_FRAME_SAMPLES = 2**24


@dataclass(frozen=True)
class LinkConfig:
    """Simulation parameters; defaults follow the prototype's network setup."""

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
    estimator_order: int = DEFAULT_ESTIMATOR_ORDER
    n_taps: int = 256

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            # ebn0_db = +inf is the noise-free link
            if (isinstance(value, (float, np.floating)) and not math.isfinite(value)
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
        if self.n_training < 1:
            raise ConfigError(f"n_training must be >= 1, got {self.n_training}")
        if self.n_taps < 2 or self.n_taps & (self.n_taps - 1):
            raise ConfigError(f"n_taps must be a power of two >= 2, got {self.n_taps}")
        if self.estimator_order < 1:
            raise ConfigError(
                f"estimator_order must be >= 1, got {self.estimator_order}"
            )
        # n_b is read from mod_order, so mod_order is checked first
        if self.mod_order not in sigproc.SUPPORTED_ORDERS:
            raise ConfigError(f"mod_order must be one of {sigproc.SUPPORTED_ORDERS}, "
                              f"got {self.mod_order}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.sample_rate_hz > 0.0:
            raise ConfigError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
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
        # the matched filter's block product: up to 2 * span + 1 rows of
        # span + 1 phases (sigproc.matched_filter_downsample)
        kernel = (2 * self.span_symbols + 1) * (self.span_symbols + 1)
        if kernel > MAX_FRAME_SAMPLES:
            raise ConfigError(f"span_symbols = {self.span_symbols} gives {kernel}-entry SRRC "
                              f"kernel products, above MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}")
        sps = self.sample_rate_hz / self.signal_bandwidth_hz
        if not math.isfinite(sps):
            raise ConfigError(f"signal_bandwidth_hz = {self.signal_bandwidth_hz} is too "
                              "small: sample_rate_hz / signal_bandwidth_hz overflows")
        if abs(sps - round(sps)) > 1e-9:
            raise ConfigError(
                f"sample_rate_hz / signal_bandwidth_hz = {sps} is not an integer"
            )
        if not 0.0 < self.channel_bandwidth_hz <= self.sample_rate_hz:
            raise ConfigError(
                f"channel_bandwidth_hz must be in (0, sample_rate_hz], got "
                f"{self.channel_bandwidth_hz}"
            )
        if self.n_bits < self.n_b or self.n_bits % self.n_b:
            raise ConfigError(f"n_bits must be a positive multiple of log2(mod_order) "
                              f"= {self.n_b}, got {self.n_bits}")
        if self.frame_samples > MAX_FRAME_SAMPLES:
            raise ConfigError(
                f"signal_bandwidth_hz = {self.signal_bandwidth_hz:g}, n_bits = "
                f"{self.n_bits}, span_symbols = {self.span_symbols} and n_taps = "
                f"{self.n_taps} give a {self.frame_samples}-sample frame, above "
                f"MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES}; raise signal_bandwidth_hz "
                f"or lower n_bits, span_symbols or n_taps"
            )
        if not self.uses_baseband_cancellation:
            return
        n_training_samples = (self.n_training + self.span_symbols) * self.samples_per_symbol
        order = self.estimator_order
        if order > n_training_samples:
            raise ConfigError(
                f"estimator_order {order} exceeds the {n_training_samples} training "
                f"samples ((n_training + span_symbols) * samples_per_symbol); "
                f"increase n_training or lower estimator_order"
            )
        # a longer replica would outlast the received frame
        if order > self.n_taps:
            raise ConfigError(f"estimator_order {order} exceeds n_taps = {self.n_taps}; "
                              f"lower estimator_order or raise n_taps")
        # the design's LS training matrix, the burst through the channel
        rows = self.training_samples
        if rows * order > MAX_FRAME_SAMPLES:
            raise ConfigError(
                f"n_training = {self.n_training} and estimator_order = {order} give a "
                f"{rows} x {order} training matrix, above MAX_FRAME_SAMPLES = "
                f"{MAX_FRAME_SAMPLES} entries; lower n_training or estimator_order"
            )
        # the design's replica DFT matrix, for the SRRC⊛SI pulse and SRRC⊛ĥ
        n_srrc = self.span_symbols * self.samples_per_symbol + 1
        rows, cols = spectrum_shape(n_srrc + self.n_taps - 1, self.samples_per_symbol,
                                    self.n_symbols, n_srrc + order - 1)
        if rows * cols > MAX_FRAME_SAMPLES:
            raise ConfigError(
                f"n_bits = {self.n_bits} and signal_bandwidth_hz = "
                f"{self.signal_bandwidth_hz:g} give a {rows} x {cols} replica DFT "
                f"matrix, above MAX_FRAME_SAMPLES = {MAX_FRAME_SAMPLES} entries; "
                f"lower n_bits or raise signal_bandwidth_hz"
            )

    @property
    def n_b(self) -> int:
        """Bits per symbol, log2(mod_order)."""
        return self.mod_order.bit_length() - 1

    @property
    def n_symbols(self) -> int:
        return self.n_bits // self.n_b

    @property
    def samples_per_symbol(self) -> int:
        return int(round(self.sample_rate_hz / self.signal_bandwidth_hz))

    @property
    def frame_samples(self) -> int:
        """Length of the received frame, the shaped symbols through the SI."""
        return (self.n_symbols + self.span_symbols) * self.samples_per_symbol + self.n_taps - 1

    @property
    def training_samples(self) -> int:
        """Length of the received +B training burst, the shaped burst through the SI."""
        return (self.n_training + self.span_symbols) * self.samples_per_symbol + self.n_taps - 1

    @property
    def rf_scheme(self) -> str:
        return self.scheme.split("+")[0]

    @property
    def uses_baseband_cancellation(self) -> bool:
        return self.scheme.endswith("+B")

    @property
    def carrier_hz(self) -> float:
        shape = channel.SCHEME_SHAPES[self.rf_scheme]  # tuned to the RF scheme's peak
        return self.f_c_hz if self.f_c_hz is not None else shape.peak_hz


#: Declared field type -> (what it holds, the classes it takes).  A numpy
#: integer is an integer (stored as an ``int``); a bool is neither an
#: integer nor a real number.
_FIELD_TYPES = {"str": ("a string", str), "int": ("an integer", (int, np.integer)),
                "float": ("a real number", numbers.Real),
                "float | None": ("a real number or none", (numbers.Real, type(None))),
                "LinkConfig": ("a LinkConfig", LinkConfig)}


def check_field_types(record) -> None:
    """Raise a ``ConfigError`` naming the first field of the dataclass
    ``record`` whose value is not of its declared type; a field declared
    ``tuple[T, ...]`` holds a tuple of ``T``.  A numpy integer field is
    stored as an ``int``, so the bounds computed from it cannot wrap."""
    for f in fields(record):
        value = getattr(record, f.name)
        item_type = f.type.removeprefix("tuple[").removesuffix(", ...]")
        kind, classes = _FIELD_TYPES[item_type]
        items = (value,) if item_type == f.type else value
        if not (isinstance(items, tuple) and all(
                isinstance(v, classes) and not isinstance(v, bool) for v in items)):
            kind = kind if item_type == f.type else f"a tuple, each item {kind}"
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if isinstance(value, np.integer):
            object.__setattr__(record, f.name, int(value))


@dataclass(frozen=True)
class LinkReport:
    """Per-trial metrics."""

    sinr_db: float
    ber: float
    residual_power_dbm: float
    estimate_error_db: float | None

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber {self.ber} outside [0, 1]")

    @property
    def rate_bps_hz(self) -> float:
        """Shannon rate, log2(1 + linear SINR)."""
        if self.sinr_db == math.inf:
            return math.inf
        return math.log2(1.0 + 10.0 ** (self.sinr_db / 10.0))


def ebn0_to_noise_variance(ebn0_db: float, symbol_energy: float, n_b: int) -> float:
    """Per-sample noise variance N0 for a target Eb/N0, where
    ``symbol_energy`` is the desired signal's energy per symbol and its
    quotient by n_b the energy per bit (unit-energy SRRC taps pass N0 to
    the matched filter's output unchanged)."""
    return symbol_energy / n_b / 10.0 ** (ebn0_db / 10.0)


def ber(tx_bits, rx_bits) -> float:
    """Fraction of differing bits."""
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.shape != rx.shape:
        raise ValueError(f"bit vector lengths differ: {tx.shape} vs {rx.shape}")
    if tx.size == 0:
        return 0.0
    return float(np.count_nonzero(tx != rx) / tx.size)


def _power_ratio_db(e_desired: float, e_residual: float) -> float:
    """The SINR in dB from the desired and residual energies of one window."""
    if e_residual == 0.0:
        return math.inf
    return 10.0 * math.log10(e_desired / e_residual)


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


@dataclass(frozen=True, eq=False)
class TrialDesign:
    """The parts of a trial that do not change from trial to trial, all for
    ``config``: the SRRC filter, the SI channel, the SI of one transmitted
    pulse ``si_pulse = amp·(srrc ⊛ h)`` and its polyphase filter, the
    SINR measurement window ``[head, tail)`` of the received frame, and
    (for +B, else ``None``) the LS training model for the SI channel.  Its
    arrays are read-only.  A +B trial subtracts its replica inside
    ``si_spectrum``, built for the replica's length.  ``scratch`` keeps,
    per thread, the receiver-noise buffer of its last trial that drew one."""

    config: LinkConfig
    filt: sigproc.SrrcFilter
    h_aa: channel.BasebandChannel
    si_spectrum: PhaseSpectrum
    training: cancellation.TrainingModel | None
    head: int
    tail: int
    si_pulse: np.ndarray
    scratch: threading.local = field(default_factory=threading.local, repr=False)


def _sinr_window(config: LinkConfig, filt: sigproc.SrrcFilter,
                 h_aa: channel.BasebandChannel) -> tuple[int, int]:
    """The received samples ``[head, tail)`` over which the SINR is measured:
    from the SRRC cascade's delay ``len(filt.taps) - 1`` plus the SI
    channel's 99.99 %-energy support to the frame's end less that delay,
    ``n_taps - len(filt.taps)`` samples past the desired waveform's end
    (before it when negative).  The whole frame when that leaves less than
    a symbol or starts after the desired waveform ends, at its
    ``(n_symbols - 1) * sps + len(filt.taps)`` samples (a few-symbol
    frame, whose window would hold no desired signal)."""
    delay = len(filt.taps) - 1
    head = delay + channel.support_length(h_aa.taps)
    tail = config.frame_samples - delay
    desired_end = (config.n_symbols - 1) * config.samples_per_symbol + len(filt.taps)
    if tail - head < config.samples_per_symbol or head >= desired_end:
        return 0, config.frame_samples
    return head, tail


def trial_design(config: LinkConfig) -> TrialDesign:
    """The trial design of this config.  A sweep builds one per point and
    passes it to each trial of the point; nothing keeps it after that."""
    sps = config.samples_per_symbol
    filt = sigproc.srrc_taps(config.rolloff, config.span_symbols, sps)
    h_aa = self_interference_channel(config)
    # the SI of one transmitted pulse; a frame's SI is the sum of its
    # symbol-spaced shifts scaled by the symbols
    amp = math.sqrt(channel.dbm_to_linear(config.p_ta_dbm))
    si_pulse = amp * np.convolve(filt.taps, h_aa.taps)
    si_pulse.setflags(write=False)
    training = None
    n_replica = 0
    if config.uses_baseband_cancellation:
        burst = cancellation.make_training_signal(config.n_training, filt)
        training = cancellation.training_model(burst, config.estimator_order, h_aa)
        # the replica filter amp·(srrc ⊛ ĥ)
        n_replica = len(filt.taps) + config.estimator_order - 1
    spectrum = phase_spectrum(si_pulse, sps, config.n_symbols, n_replica)
    head, tail = _sinr_window(config, filt, h_aa)
    return TrialDesign(config, filt, h_aa, spectrum, training, head, tail, si_pulse)


@dataclass(eq=False, slots=True)
class TrialDraws:
    """One trial's random inputs, which a trial consumes (``draw_trial``);
    ``noise`` is ``None`` on a noise-free link, and ``pending`` the
    worker's call still drawing it, if handed off."""

    noise_var: float
    training_noise: np.ndarray | None
    bits_a: np.ndarray | None
    bits_b: np.ndarray
    phase: float
    noise: np.ndarray | None = None
    pending: _worker.Call | None = None


def draw_trial(config: LinkConfig, rng: np.random.Generator, out=None) -> TrialDraws:
    """Take a trial's draws from ``rng``, in this order: the +B training
    noise, both nodes' bits, the far node's phase and the receiver noise,
    one ``standard_normal`` call into ``out`` (2·frame_samples floats, the
    real half first; allocated when not given), handed to the worker
    thread from ``BACKGROUND_NOISE_SAMPLES`` on."""
    noise_var = ebn0_to_noise_variance(config.ebn0_db, channel.dbm_to_linear(config.p_rb_dbm),
                                       config.n_b)
    training_noise = None
    if config.uses_baseband_cancellation:
        training_noise = sigproc.awgn(config.training_samples, noise_var, rng)
    long_frame = config.frame_samples >= BACKGROUND_NOISE_SAMPLES
    # a sweep holds a long frame's bits while the trial ahead runs: at
    # sps 2 an int64 vector is half a frame, a byte per bit a sixteenth
    bits = [rng.integers(0, 2, size=config.n_bits).astype(
        np.uint8 if long_frame else np.int64, copy=False) for _ in "ab"]
    draws = TrialDraws(noise_var, training_noise, *bits, rng.uniform(0.0, 2.0 * np.pi))
    if noise_var > 0.0:
        draws.noise = np.empty(2 * config.frame_samples) if out is None else out
        if long_frame:
            draws.pending = _worker.submit(partial(rng.standard_normal, out=draws.noise))
        else:
            rng.standard_normal(out=draws.noise)
    return draws


def run_trial(config: LinkConfig, rng: np.random.Generator | TrialDraws,
              design: TrialDesign | None = None) -> LinkReport:
    """Simulate one full-duplex frame and report the link metrics.

    The power model (0 dBm is unit power): ``p_ta_dbm`` sets the SI and
    the training burst's amplitude; the far node's symbols are scaled by
    a gain of power ``p_rb`` and uniform random phase before they are
    shaped, so its symbol energy is ``p_rb``; the noise is set by
    ``ebn0_db`` relative to that symbol energy.  The SINR is the ratio of
    the desired waveform's energy to the residual's (SI after
    cancellation plus noise) over the design's window, and
    ``residual_power_dbm`` that residual energy per window sample.  With
    +B, ``estimate_error_db`` is the in-band estimation error
    ``‖si_pulse − replica‖² / ‖si_pulse‖²``, the replica amp·(srrc ⊛ ĥ)
    zero-padded: the expected ratio of the window's SI after
    cancellation to the SI without it.

    ``rng`` is the trial's generator, or the ``TrialDraws`` taken from it
    (``harness.run_sweep`` takes them while the trial ahead runs); the
    same config and generator state give the same report.  The trial
    forms its SI and desired waveform while a handed-off noise draw runs,
    and waits for it before it returns or raises.  A trial that draws
    itself keeps its noise buffer in the design's ``scratch`` for the
    next.  ``design`` is ``trial_design(config)``, built here when not given.
    """
    if design is None:
        design = trial_design(config)
    elif design.config != config:
        raise ValueError("trial design was built for another config")
    draws = rng if isinstance(rng, TrialDraws) else draw_trial(
        config, rng, design.scratch.__dict__.pop("noise", None))
    filt, noise = design.filt, draws.noise
    try:
        replica = est_err_db = None
        if design.training is not None:
            # +B: the replica amp·(pulse_shape(s_a) ⊛ ĥ) is s_a through the
            # filter amp·(srrc ⊛ ĥ), so the SI less its replica is s_a through
            # the difference of the two filters
            taps_hat = cancellation.run_training(design.training, config.p_ta_dbm,
                                                 draws.training_noise)
            amp = math.sqrt(channel.dbm_to_linear(config.p_ta_dbm))
            replica = amp * np.convolve(filt.taps, taps_hat)
            si_pulse, n = design.si_pulse, len(replica)
            err = sigproc.energy(si_pulse[:n] - replica) + sigproc.energy(si_pulse[n:])
            est_err_db = 10.0 * math.log10(max(err / sigproc.energy(si_pulse), 1e-300))

        gain = math.sqrt(channel.dbm_to_linear(config.p_rb_dbm)) * np.exp(1j * draws.phase)
        # the received frame is built in the SI's buffer (amp·(pulse_shape(s_a)
        # ⊛ h_aa), at the symbol rate): the noise and then the desired
        # waveform s_b·gain shaped are added to it.  At sps 2 the per-symbol
        # arrays bound the trial's memory: each is freed once used
        frame = upsample_convolve_fft(sigproc.modulate_psk(draws.bits_a, config.mod_order),
                                      design.si_spectrum, minus=replica)
        draws.bits_a = None
        desired = sigproc.pulse_shape(sigproc.modulate_psk(draws.bits_b, config.mod_order)
                                      * gain, filt)
        head, tail = design.head, design.tail
        # the desired waveform is zero past its end, inside the window too
        e_desired = sigproc.energy(desired[head:tail])
    finally:  # no draw outlives its trial, even one that raised; a failed draw raises
        if draws.pending is not None:
            draws.pending.result()
    if noise is not None:
        noise *= math.sqrt(draws.noise_var / 2.0)
        frame.real += noise[: len(frame)]
        frame.imag += noise[len(frame) :]
        if draws is not rng:  # for the next trial here; a trial that raised drops it
            design.scratch.noise = noise
    e_residual = sigproc.energy(frame[head:tail])
    gamma_db = _power_ratio_db(e_desired, e_residual)
    frame[: len(desired)] += desired
    del desired  # the matched filter's products peak the trial's memory

    # detection: matched filter, known-phase equalization (the detector
    # reads only the angle, so |gain|² scales nothing it needs), demodulation
    symbols = sigproc.matched_filter_downsample(frame, filt, n_symbols=config.n_symbols)
    symbols *= np.conj(gain)
    bits_hat = sigproc.demodulate_psk(symbols, config.mod_order)
    residual_dbm = 10.0 * math.log10(max(e_residual / (tail - head), 1e-300))
    return LinkReport(sinr_db=gamma_db, ber=ber(draws.bits_b, bits_hat),
                      residual_power_dbm=residual_dbm, estimate_error_db=est_err_db)
