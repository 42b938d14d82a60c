"""Training-based least-squares estimation of the self-interference channel.

The estimate feeds the +B canceller, whose replica a link trial subtracts
inside its SI spectrum (``link.run_trial``).  Everything but the noise is
fixed for a channel, so the training model holds the burst's noise-free
response through the channel, and a trial's training adds its noise to
that and solves with one real product, which returns the estimated taps.

Every matrix product here runs through ``matmul_rows``.  The
pseudo-inverse is M Qᴴ from the SVD of one order x order matrix: the Gram
matrix of the tall training matrix or, when that is too ill-conditioned,
its Householder R factor.  It rounds the same at any BLAS thread count up
to an ``estimator_order`` of 64; LAPACK's SVD at 128 rounds with it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import matmul_rows
from .channel import BasebandChannel, dbm_to_linear
from .errors import EstimationError
from .sigproc import SrrcFilter, energy, psk_table, pulse_shape

#: Largest entry of |QᴴQ - I| that the Gram-matrix route to the
#: pseudo-inverse accepts (``_gram_factors``).  The loss grows as cond(A)²,
#: so this admits condition numbers up to ~1e5; the default training
#: matrices' are at most 2.0e3.  Beyond it a Householder QR factor is used.
MAX_GRAM_LOSS = 1e-6

# Fixed QPSK probe pattern, as indices of ``psk_table(4).points``.  A constant run
# with a single antipodal symbol keeps the short-burst convolution matrix
# well conditioned (an i.i.d. pattern this short leaves parts of the band
# nearly unexcited).  Both nodes know the pattern; it is independent of
# the per-trial data RNG and tiles to any burst length.
TRAINING_PATTERN = (0, 0, 0, 2, 0)


def make_training_signal(n_tr: int, filt: SrrcFilter) -> np.ndarray:
    """The deterministic QPSK training burst of n_tr symbols, shaped by ``filt``."""
    if n_tr < 1:
        raise ValueError("need at least one training symbol")
    symbols = psk_table(4).points[np.resize(TRAINING_PATTERN, n_tr)]
    return pulse_shape(symbols, filt)


@dataclass(frozen=True, eq=False)
class TrainingModel:
    """The noise-free part of the LS training problem for one burst and
    channel: the (order x n_rows) pseudo-inverse of the burst's
    convolution matrix (``pinv``) and the burst's response through the
    channel (``burst ⊛ taps``, before the transmit amplitude, n_rows
    long).  Its arrays are read-only."""

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
    pinv = _pinv(conv)
    response = np.convolve(burst, channel.taps)
    for a in (pinv, response):
        a.setflags(write=False)
    return TrainingModel(pinv=pinv, response=response)


def _gram_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(Q, M) with pinv(a) = M Qᴴ for a tall a, from one SVD of its Gram
    matrix, or ``None`` when a is too ill-conditioned for that.

    With aᴴa = V S² Vᴴ and X = V S⁻¹, Q = aX is orthonormal up to the
    Gram matrix's rounding, E = QᴴQ - I, of order cond(a)²·eps; and
    pinv(a) = pinv(QX⁻¹) = X (QᴴQ)⁻¹ Qᴴ exactly, with (I + E)⁻¹ = I - E + E²
    to within |E|³.  Past ``MAX_GRAM_LOSS`` the route is refused.  Below
    it cond(a) is at most ~1e5, so no singular value falls under the rank
    cut-off, eps·max(a.shape) of the largest."""
    _, s2, vh = np.linalg.svd(matmul_rows(a.conj().T, a))
    if not s2[-1] > 0.0:
        return None
    x = vh.conj().T / np.sqrt(s2)
    q = matmul_rows(a, x)
    e = matmul_rows(q.conj().T, q) - np.eye(len(x))
    if not np.abs(e).max() <= MAX_GRAM_LOSS:  # NaN too, from an overflow
        return None
    return q, matmul_rows(x, np.eye(len(x)) - e + matmul_rows(e, e))


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


def _householder_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, M) with pinv(a) = M Qᴴ for a tall a: from a = QR and the SVD
    R = U S Vᴴ, M = pinv(R) = V S⁺ Uᴴ, the singular values at most
    eps·max(a.shape) of the largest cut."""
    q, r = _householder_qr(a)
    u, s, vh = np.linalg.svd(r)
    keep = s > np.finfo(np.float64).eps * max(a.shape) * s[0]
    return q, matmul_rows(vh[keep].conj().T / s[keep], u[:, keep].conj().T)


def _pinv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv(a, rtol=eps·max(a.shape))`` for a tall complex a,
    as M Qᴴ from the Gram route, else from the Householder one, formed as
    (Q Mᴴ)ᴴ: its row blocks under the cap are far taller than M Qᴴ's (96
    rows against 3 at 0.5 MHz)."""
    q, m = _gram_factors(a) or _householder_factors(a)
    return np.conjugate(matmul_rows(q, m.conj().T).T, order="C")


def run_training(model: TrainingModel, p_ta_dbm: float, noise: np.ndarray) -> np.ndarray:
    """The estimated taps of the self-interference channel, from a
    silent-far-node burst.

    The burst's response through the channel (the model's) is received
    at the transmit power plus ``noise`` (the trial's ``awgn`` draw, one
    sample per response sample).  The least-squares estimate
    on the convolution model is ``pinv @ r``: one real product of
    ``pinv``'s (re, im) pairs with those of conj(r) and of i·conj(r), whose
    sums are the estimate's real and imaginary parts.
    """
    amp = math.sqrt(dbm_to_linear(p_ta_dbm))
    columns = np.empty((2, len(model.response)), dtype=np.complex128)
    r = np.multiply(model.response, amp, out=columns[0])
    r += noise
    np.conjugate(r, out=r)
    np.multiply(r, 1j, out=columns[1])
    pairs = matmul_rows(model.pinv.view(np.float64), columns.view(np.float64).T)
    # the model matrix is amp * conv, so its pseudo-inverse is pinv / amp
    return pairs.view(np.complex128)[:, 0] / amp
