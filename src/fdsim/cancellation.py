"""Training-based least-squares estimation of the self-interference channel.

The estimate feeds the +B canceller, whose replica a link trial subtracts
inside its SI spectrum (``link.run_trial``).  Everything but the noise is
fixed for a channel, so the training model holds the burst's noise-free
response through the channel, and a trial's training adds its noise to
that and solves with one product, which returns the estimated taps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import BasebandChannel, dbm_to_linear
from .errors import EstimationError
from .sigproc import SrrcFilter, awgn, constellation, pulse_shape

# Fixed QPSK probe pattern, as constellation indices.  A constant run
# with a single antipodal symbol keeps the short-burst convolution matrix
# well conditioned (an i.i.d. pattern this short leaves parts of the band
# nearly unexcited).  Both nodes know the pattern; it is independent of
# the per-trial data RNG and tiles to any burst length.
TRAINING_PATTERN = (0, 0, 0, 2, 0)


def make_training_signal(n_tr: int, filt: SrrcFilter) -> np.ndarray:
    """The deterministic QPSK training burst of n_tr symbols, shaped by ``filt``."""
    if n_tr < 1:
        raise ValueError("need at least one training symbol")
    symbols = constellation(4)[np.resize(TRAINING_PATTERN, n_tr)]
    return pulse_shape(symbols, filt)


@dataclass(frozen=True)
class TrainingModel:
    """The noise-free part of the LS training problem for one burst and
    channel: the pseudo-inverse of the burst's (n_rows x order)
    convolution matrix, and the burst's response through the channel
    (``burst ⊛ taps``, before the transmit amplitude, n_rows long).  Its
    arrays are read-only."""

    pinv: np.ndarray
    response: np.ndarray


def _convolution_matrix(x: np.ndarray, order: int, n_rows: int) -> np.ndarray:
    """The (n_rows x order) matrix whose column j is ``x`` delayed by j
    samples: entry (i, j) is ``x[i - j]``, zero where i < j or past ``x``."""
    col = np.zeros(n_rows, dtype=np.complex128)
    col[: len(x)] = x
    lag = np.arange(n_rows)[:, None] - np.arange(order)
    return np.where(lag >= 0, col[lag], 0.0)


def training_model(burst: np.ndarray, estimator_order: int,
                   channel: BasebandChannel) -> TrainingModel:
    """The training model for an ``estimator_order``-tap estimate of
    ``channel`` from the shaped training ``burst``.

    The rank cut-off is ``np.linalg.lstsq``'s default (``rcond=None``), so
    ``pinv @ r`` is the least-squares solution lstsq returns.
    """
    if estimator_order < 1:
        raise ValueError("estimator_order must be >= 1")
    if estimator_order > len(burst):
        raise EstimationError(
            f"training waveform has {len(burst)} samples; cannot identify "
            f"{estimator_order} taps (increase n_tr or lower the order)"
        )
    if not np.any(burst):
        raise EstimationError("training signal is degenerate; estimation failed")
    conv = _convolution_matrix(burst, estimator_order, len(burst) + len(channel.taps) - 1)
    pinv = np.linalg.pinv(conv, rtol=np.finfo(np.float64).eps * max(conv.shape))
    response = np.convolve(burst, channel.taps)
    for a in (pinv, response):
        a.setflags(write=False)
    return TrainingModel(pinv=pinv, response=response)


def run_training(model: TrainingModel, p_ta_dbm: float, noise_variance: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The estimated taps of the self-interference channel, from a
    silent-far-node burst.

    The burst's response through the channel (the model's) is received
    at the transmit power with additive noise; the least-squares estimate
    on the convolution model is one product with the model's
    pseudo-inverse.
    """
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    r = amp * model.response + awgn(len(model.response), noise_variance, rng)
    # the model matrix is amp * conv, so its pseudo-inverse is pinv / amp
    return (model.pinv @ r) / amp
