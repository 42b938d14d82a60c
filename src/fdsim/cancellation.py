"""Training-based least-squares estimation of the self-interference channel.

The estimate feeds the +B canceller, whose replica a link trial subtracts
inside its SI spectrum (``link.run_trial``).  Everything but the noise is
fixed for a channel, so the training model holds the burst's noise-free
response through the channel, and a trial's training adds its noise to
that and solves with one real product, which returns the estimated taps.

The pseudo-inverse is formed without threaded BLAS or LAPACK, so it
rounds the same at any BLAS thread count: from products within
``MAX_PRODUCT_MACS`` and the SVD of one order x order matrix, the Gram
matrix of the tall training matrix, or its Householder R factor when
the matrix is too ill-conditioned for the Gram route."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import matmul_rows
from .channel import BasebandChannel, dbm_to_linear
from .errors import EstimationError
from .sigproc import SrrcFilter, awgn, constellation, energy, pulse_shape

#: Largest entry of |QᴴQ - I| that the Gram-matrix route to the
#: pseudo-inverse accepts (``_pinv_h_by_gram``).  The loss grows as cond(A)²,
#: so this admits condition numbers up to ~1e5; the default training
#: matrices' are at most 2.0e3.  Beyond it a Householder QR factor is used.
MAX_GRAM_LOSS = 1e-6

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


@dataclass(frozen=True, eq=False)
class TrainingModel:
    """The noise-free part of the LS training problem for one burst and
    channel: the pseudo-inverse of the burst's (n_rows x order)
    convolution matrix in its interleaved real form (``real_pinv``, 2·order
    x 2·n_rows: it maps the (re, im) pairs of a received burst to those of
    the estimate), and the burst's response through the channel
    (``burst ⊛ taps``, before the transmit amplitude, n_rows long).  Its
    arrays are read-only."""

    real_pinv: np.ndarray
    response: np.ndarray

    @property
    def pinv(self) -> np.ndarray:
        """The complex (order x n_rows) pseudo-inverse, formed (read-only)
        from ``real_pinv``."""
        pinv = self.real_pinv[::2, ::2] + 1j * self.real_pinv[1::2, ::2]
        pinv.setflags(write=False)
        return pinv


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
    real_pinv = _real_pinv(conv)
    response = np.convolve(burst, channel.taps)
    for a in (real_pinv, response):
        a.setflags(write=False)
    return TrainingModel(real_pinv=real_pinv, response=response)


def _gram(a: np.ndarray) -> np.ndarray:
    """aᴴa."""
    return matmul_rows(np.ascontiguousarray(a.conj().T), a,
                       np.empty((a.shape[1],) * 2, dtype=a.dtype))


def _pinv_h_by_gram(a: np.ndarray) -> np.ndarray | None:
    """pinv(a)ᴴ for a tall a, from one SVD of its Gram matrix, or ``None``
    when a is too ill-conditioned for that.

    With aᴴa = V S² Vᴴ and X = V S⁻¹, Q = aX is orthonormal up to the
    Gram matrix's rounding, E = QᴴQ - I, of order cond(a)²·eps; and
    pinv(a) = pinv(QX⁻¹) = X (QᴴQ)⁻¹ Qᴴ exactly, with (I + E)⁻¹ = I - E + E²
    to within |E|³.  Past ``MAX_GRAM_LOSS`` the route is refused.  Below
    it cond(a) is at most ~1e5, so no singular value falls under the rank
    cut-off, eps·max(a.shape) of the largest."""
    _, s2, vh = np.linalg.svd(_gram(a))
    if not s2[-1] > 0.0:
        return None
    x = vh.conj().T / np.sqrt(s2)
    q = matmul_rows(a, x, np.empty_like(a))
    e = _gram(q) - np.eye(len(x))
    if not np.abs(e).max() <= MAX_GRAM_LOSS:  # NaN too, from an overflow
        return None
    m = x @ (np.eye(len(x)) - e + e @ e)  # pinv(a) = m Qᴴ
    return matmul_rows(q, np.ascontiguousarray(m.conj().T), np.empty_like(q))


def _householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q (orthonormal columns) and upper R of a = QR, by one Householder
    reflection I - 2vvᴴ per column, applied with ``einsum``."""
    n, p = a.shape
    r, vs = a.copy(), []
    for j in range(p):
        x = r[j:, j]
        v = x.copy()
        v[0] += math.sqrt(energy(x)) * (x[0] / abs(x[0]) if x[0] else 1.0)
        v /= math.sqrt(energy(v)) or 1.0
        r[j:, j:] -= 2.0 * np.multiply.outer(v, np.einsum("i,ij->j", v.conj(), r[j:, j:]))
        vs.append(v)
    q = np.eye(n, p, dtype=a.dtype)
    for j in reversed(range(p)):
        v = vs[j]
        q[j:, j:] -= 2.0 * np.multiply.outer(v, np.einsum("i,ij->j", v.conj(), q[j:, j:]))
    return q, np.triu(r[:p])


def _pinv_h_by_householder(a: np.ndarray) -> np.ndarray:
    """pinv(a)ᴴ for a tall a: from a = QR and the SVD R = U S Vᴴ, pinv(a) =
    V S⁺ Uᴴ Qᴴ, the singular values at most eps·max(a.shape) of the
    largest cut."""
    q, r = _householder_qr(a)
    u, s, vh = np.linalg.svd(r)
    keep = s > np.finfo(np.float64).eps * max(a.shape) * s[0]
    m = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T  # pinv(R)
    return matmul_rows(q, np.ascontiguousarray(m.conj().T), np.empty_like(q))


def _real_pinv(a: np.ndarray) -> np.ndarray:
    """The interleaved real form of ``np.linalg.pinv(a, rtol=eps·max(a.shape))``
    for a tall complex a."""
    t = _pinv_h_by_gram(a)
    if t is None:
        t = _pinv_h_by_householder(a)
    # the rows of pinv(a)ᴴ fill the real form's column pairs
    out = np.empty((a.shape[1], 2, len(a), 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = t.real.T  # Re pinv
    out[:, 0, :, 1] = t.imag.T  # -Im pinv
    np.negative(t.imag.T, out=out[:, 1, :, 0])
    return out.reshape(2 * a.shape[1], 2 * len(a))


def run_training(model: TrainingModel, p_ta_dbm: float, noise_variance: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The estimated taps of the self-interference channel, from a
    silent-far-node burst.

    The burst's response through the channel (the model's) is received
    at the transmit power with additive noise; the least-squares estimate
    on the convolution model is one real product of the model's
    ``real_pinv`` with the received (re, im) pairs.
    """
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    r = amp * model.response + awgn(len(model.response), noise_variance, rng)
    # the model matrix is amp * conv, so its pseudo-inverse is pinv / amp
    pairs = matmul_rows(model.real_pinv, r.view(np.float64), np.empty(len(model.real_pinv)))
    return pairs.view(np.complex128) / amp
