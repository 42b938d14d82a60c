"""Training-based least-squares estimation of the self-interference channel
and construction/subtraction of the baseband cancellation signal."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

from ._kernels import fir_convolve
from .channel import BasebandChannel, dbm_to_linear
from .errors import EstimationError
from .sigproc import (SrrcFilter, Waveform, awgn, constellation, pulse_shape,
                      srrc_taps)

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
    """Deterministic QPSK training burst of n_tr symbols.

    The burst depends only on n_tr, the filter's design parameters and the
    rate, so it is built once per combination and shared; its arrays are
    read-only.
    """
    if n_tr < 1:
        raise ValueError("need at least one training symbol")
    return _training_burst(int(n_tr), *_design(filt), float(sample_rate_hz))


def _design(filt: SrrcFilter) -> tuple:
    """The SRRC design parameters that determine ``filt``'s taps."""
    return filt.rolloff, filt.span_symbols, filt.samples_per_symbol


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


@lru_cache(maxsize=16)
def _training_burst(n_tr: int, rolloff: float, span_symbols: int, sps: int,
                    sample_rate_hz: float) -> TrainingSignal:
    reps = -(-n_tr // len(TRAINING_PATTERN))
    indices = np.asarray((TRAINING_PATTERN * reps)[:n_tr])
    symbols = constellation(4)[indices]
    waveform = pulse_shape(symbols, srrc_taps(rolloff, span_symbols, sps),
                           sample_rate_hz)
    _read_only(symbols, waveform.samples)
    return TrainingSignal(symbols=symbols, waveform=waveform)


def _convolution_matrix(x: np.ndarray, order: int, n_rows: int) -> np.ndarray:
    col = np.zeros(n_rows, dtype=np.complex128)
    col[: len(x)] = x
    row = np.zeros(order, dtype=np.complex128)
    row[0] = x[0]
    return toeplitz(col, row)


@lru_cache(maxsize=16)
def _training_solver(n_tr: int, rolloff: float, span_symbols: int, sps: int,
                     sample_rate_hz: float, order: int,
                     n_rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The training burst's (n_rows x order) convolution matrix, its
    pseudo-inverse and its rank.

    The rank cut-off is ``np.linalg.lstsq``'s default (``rcond=None``), so
    ``pinv @ r`` is the least-squares solution lstsq returns.
    """
    x = _training_burst(n_tr, rolloff, span_symbols, sps, sample_rate_hz).waveform.samples
    conv = _convolution_matrix(x, order, n_rows)
    u, sv, vh = np.linalg.svd(conv, full_matrices=False)
    rank = int(np.sum(sv > np.finfo(np.float64).eps * max(conv.shape) * sv[0]))
    pinv = (vh[:rank].conj().T / sv[:rank]) @ u[:, :rank].conj().T
    _read_only(conv, pinv)
    return conv, pinv, rank


def run_training(h_aa: BasebandChannel, p_ta_dbm: float, n_tr: int,
                 noise_variance: float, estimator_order: int,
                 rng: np.random.Generator, filt: SrrcFilter) -> ChannelEstimate:
    """Estimate the self-interference channel from a silent-far-node burst.

    The known training waveform passes through the true channel with
    additive noise; the estimate solves the linear least-squares problem on
    the convolution model for the requested number of taps.  The training
    matrix is deterministic, so its pseudo-inverse is computed once per
    (burst, order, row count) and each call costs one matrix-vector product.
    """
    if estimator_order < 1:
        raise ValueError("estimator_order must be >= 1")
    training = make_training_signal(n_tr, filt, h_aa.sample_rate_hz)
    x = training.waveform.samples
    if estimator_order > len(x):
        raise EstimationError(
            f"training waveform has {len(x)} samples; cannot identify "
            f"{estimator_order} taps (increase n_tr or lower the order)"
        )
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    r = amp * fir_convolve(x, h_aa.taps) + awgn(len(x) + len(h_aa.taps) - 1,
                                                noise_variance, rng)
    conv, pinv, rank = _training_solver(int(n_tr), *_design(filt),
                                        float(h_aa.sample_rate_hz),
                                        int(estimator_order), len(r))
    if rank < 1:
        raise EstimationError("training signal is degenerate; estimation failed")
    # the model matrix is amp * conv, so its pseudo-inverse is pinv / amp
    taps_hat = (pinv @ r) / amp
    fit = amp * (conv @ taps_hat)
    denom = float(np.sum(np.abs(r) ** 2))
    residual = float(np.sum(np.abs(r - fit) ** 2) / denom) if denom > 0 else 0.0
    return ChannelEstimate(taps_hat=taps_hat, training_symbols_used=n_tr,
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
    return float(np.mean(np.abs(window) ** 2))
