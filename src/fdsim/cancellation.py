"""Training-based least-squares estimation of the self-interference channel.

The estimate feeds the +B canceller, whose replica a link trial subtracts
inside its SI spectrum (``link.run_trial``).  Everything but the noise is
fixed for a channel, so a training model built for the link's channel
holds the burst's noise-free response through it, and a trial's training
adds its noise to that and solves with one product."""

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
    (n_rows x order) convolution matrix and that matrix's pseudo-inverse,
    and, for a model built for a channel, that channel and the burst's
    response through it (``burst ⊛ taps``, before the transmit
    amplitude).  Its arrays are read-only."""

    training: TrainingSignal
    conv: np.ndarray
    pinv: np.ndarray
    channel: BasebandChannel | None = None
    response: np.ndarray | None = None


def _convolution_matrix(x: np.ndarray, order: int, n_rows: int) -> np.ndarray:
    """The (n_rows x order) matrix whose column j is ``x`` delayed by j
    samples: entry (i, j) is ``x[i - j]``, zero where i < j or past ``x``."""
    col = np.zeros(n_rows, dtype=np.complex128)
    col[: len(x)] = x
    lag = np.arange(n_rows)[:, None] - np.arange(order)
    return np.where(lag >= 0, col[lag], 0.0)


def _require_match(wave: Waveform, n_rows: int, h_aa: BasebandChannel) -> None:
    if (len(wave.samples) + len(h_aa.taps) - 1 != n_rows
            or h_aa.sample_rate_hz != wave.sample_rate_hz):
        raise ValueError("training model does not match the channel")


def training_model(training: TrainingSignal, estimator_order: int,
                   n_channel_taps: int,
                   channel: BasebandChannel | None = None) -> TrainingModel:
    """The training model for an ``estimator_order``-tap estimate of an
    ``n_channel_taps``-tap channel from the burst ``training``.

    The rank cut-off is ``np.linalg.lstsq``'s default (``rcond=None``), so
    ``pinv @ r`` is the least-squares solution lstsq returns.  With
    ``channel`` (one of ``n_channel_taps`` taps at the burst's rate), the
    model also holds the burst's response through it, which
    ``run_training`` then reuses for that channel.
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
    response = None
    if channel is not None:
        _require_match(training.waveform, len(conv), channel)
        response = fir_convolve(x, channel.taps)
        response.setflags(write=False)
    for a in (training.symbols, x, conv, pinv):
        a.setflags(write=False)
    return TrainingModel(training=training, conv=conv, pinv=pinv, channel=channel,
                         response=response)


def run_training(h_aa: BasebandChannel, p_ta_dbm: float, noise_variance: float,
                 rng: np.random.Generator, model: TrainingModel) -> ChannelEstimate:
    """Estimate the self-interference channel from a silent-far-node burst.

    The model's training waveform passes through the true channel with
    additive noise (the channel response is the model's own when it was
    built for ``h_aa``); the least-squares estimate on the convolution
    model is one product with the model's pseudo-inverse.
    """
    wave, n_rows = model.training.waveform, len(model.conv)
    if model.channel is h_aa:
        response = model.response
    else:
        _require_match(wave, n_rows, h_aa)
        response = fir_convolve(wave.samples, h_aa.taps)
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    r = amp * response + awgn(n_rows, noise_variance, rng)
    # the model matrix is amp * conv, so its pseudo-inverse is pinv / amp
    taps_hat = (model.pinv @ r) / amp
    fit = amp * (model.conv @ taps_hat)
    denom = energy(r)
    residual = energy(r - fit) / denom if denom > 0 else 0.0
    return ChannelEstimate(taps_hat=taps_hat, residual_training_error=residual)
