"""Training-based least-squares estimation of the self-interference channel
and construction/subtraction of the baseband cancellation signal.

A link trial subtracts the replica inside its SI spectrum
(``link.run_trial``); ``build_cancellation``, ``cancel`` and
``residual_power`` are the same operation on sample-rate waveforms, the
reference that the link is checked against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import fir_convolve
from .channel import BasebandChannel, dbm_to_linear
from .errors import EstimationError
from .sigproc import SrrcFilter, Waveform, awgn, constellation, energy, pulse_shape

# Fixed QPSK probe pattern, as constellation indices.  A constant run
# with a single antipodal symbol keeps the short-burst convolution matrix
# well conditioned (an i.i.d. pattern this short leaves parts of the band
# nearly unexcited).  Both nodes know the pattern; it is independent of
# the per-trial data RNG and tiles to any burst length.
TRAINING_PATTERN = (0, 0, 0, 2, 0)


@dataclass(frozen=True)
class TrainingSignal:
    symbols: np.ndarray
    waveform: Waveform


@dataclass(frozen=True)
class ChannelEstimate:
    taps_hat: np.ndarray
    training_symbols_used: int
    residual_training_error: float


def make_training_signal(n_tr: int, filt: SrrcFilter, sample_rate_hz: float) -> TrainingSignal:
    """Deterministic QPSK training burst of n_tr symbols, shaped by ``filt``."""
    if n_tr < 1:
        raise ValueError("need at least one training symbol")
    symbols = constellation(4)[np.resize(TRAINING_PATTERN, n_tr)]
    return TrainingSignal(symbols=symbols,
                          waveform=pulse_shape(symbols, filt, sample_rate_hz))


@dataclass(frozen=True)
class TrainingModel:
    """The noise-free part of the LS training problem: the burst, its
    (n_rows x order) convolution matrix and that matrix's pseudo-inverse.
    Its arrays are read-only."""

    training: TrainingSignal
    conv: np.ndarray
    pinv: np.ndarray


def _convolution_matrix(x: np.ndarray, order: int, n_rows: int) -> np.ndarray:
    """The (n_rows x order) matrix whose column j is ``x`` delayed by j
    samples: entry (i, j) is ``x[i - j]``, zero where i < j or past ``x``."""
    col = np.zeros(n_rows, dtype=np.complex128)
    col[: len(x)] = x
    lag = np.arange(n_rows)[:, None] - np.arange(order)
    return np.where(lag >= 0, col[lag], 0.0)


def training_model(training: TrainingSignal, estimator_order: int,
                   n_channel_taps: int) -> TrainingModel:
    """The training model for an ``estimator_order``-tap estimate of an
    ``n_channel_taps``-tap channel from the burst ``training``.

    The rank cut-off is ``np.linalg.lstsq``'s default (``rcond=None``), so
    ``pinv @ r`` is the least-squares solution lstsq returns.
    """
    if estimator_order < 1:
        raise ValueError("estimator_order must be >= 1")
    x = training.waveform.samples
    if estimator_order > len(x):
        raise EstimationError(
            f"training waveform has {len(x)} samples; cannot identify "
            f"{estimator_order} taps (increase n_tr or lower the order)"
        )
    conv = _convolution_matrix(x, estimator_order, len(x) + n_channel_taps - 1)
    u, sv, vh = np.linalg.svd(conv, full_matrices=False)
    rank = int(np.sum(sv > np.finfo(np.float64).eps * max(conv.shape) * sv[0]))
    if rank < 1:
        raise EstimationError("training signal is degenerate; estimation failed")
    pinv = (vh[:rank].conj().T / sv[:rank]) @ u[:, :rank].conj().T
    for a in (training.symbols, x, conv, pinv):
        a.setflags(write=False)
    return TrainingModel(training=training, conv=conv, pinv=pinv)


def run_training(h_aa: BasebandChannel, p_ta_dbm: float, noise_variance: float,
                 rng: np.random.Generator, model: TrainingModel) -> ChannelEstimate:
    """Estimate the self-interference channel from a silent-far-node burst.

    The model's training waveform passes through the true channel with
    additive noise; the least-squares estimate on the convolution model is
    one product with the model's pseudo-inverse.
    """
    wave, n_rows = model.training.waveform, len(model.conv)
    if (len(wave.samples) + len(h_aa.taps) - 1 != n_rows
            or h_aa.sample_rate_hz != wave.sample_rate_hz):
        raise ValueError("training model does not match the channel")
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    r = amp * fir_convolve(wave.samples, h_aa.taps) + awgn(n_rows, noise_variance, rng)
    # the model matrix is amp * conv, so its pseudo-inverse is pinv / amp
    taps_hat = (model.pinv @ r) / amp
    fit = amp * (model.conv @ taps_hat)
    denom = energy(r)
    residual = energy(r - fit) / denom if denom > 0 else 0.0
    return ChannelEstimate(taps_hat=taps_hat,
                           training_symbols_used=len(model.training.symbols),
                           residual_training_error=residual)


def build_cancellation(x_a: Waveform, estimate: ChannelEstimate,
                       p_ta_dbm: float) -> Waveform:
    """Negated replica of the self-interference from the channel estimate."""
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    out = -amp * fir_convolve(x_a.samples, estimate.taps_hat)
    return Waveform(samples=out, sample_rate_hz=x_a.sample_rate_hz,
                    samples_per_symbol=x_a.samples_per_symbol,
                    delay_samples=x_a.delay_samples)


def cancel(r_a: Waveform, x_hat: Waveform) -> Waveform:
    """Sample-wise sum of the received signal and the cancellation signal."""
    if r_a.sample_rate_hz != x_hat.sample_rate_hz:
        raise ValueError("sample rates differ")
    n = max(len(r_a.samples), len(x_hat.samples))
    out = np.zeros(n, dtype=np.complex128)
    out[: len(r_a.samples)] = r_a.samples
    out[: len(x_hat.samples)] += x_hat.samples
    return Waveform(samples=out, sample_rate_hz=r_a.sample_rate_hz,
                    samples_per_symbol=r_a.samples_per_symbol,
                    delay_samples=r_a.delay_samples)


def residual_power(h_aa: BasebandChannel, estimate: ChannelEstimate,
                   x_a: Waveform, p_ta_dbm: float, noise: np.ndarray,
                   exclude: int | None = None) -> float:
    """Mean power of the residual self-interference plus noise.

    Computed directly from the estimation error convolved with the
    transmitted waveform; the first and last ``exclude`` samples (filter
    and channel transients) are left out of the measurement window.
    """
    p_lin = dbm_to_linear(p_ta_dbm)
    n_h = max(len(h_aa.taps), len(estimate.taps_hat))
    err = np.zeros(n_h, dtype=np.complex128)
    err[: len(h_aa.taps)] = h_aa.taps
    err[: len(estimate.taps_hat)] -= estimate.taps_hat
    res = math.sqrt(p_lin) * fir_convolve(x_a.samples, err)
    n = max(len(res), len(noise))
    full = np.zeros(n, dtype=np.complex128)
    full[: len(res)] = res
    full[: len(noise)] += noise
    if exclude is None:
        exclude = len(estimate.taps_hat)
    window = full[exclude : n - exclude] if n > 2 * exclude else full
    return energy(window) / len(window)
