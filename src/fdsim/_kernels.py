"""The FIR convolution kernels.

The simulator spends nearly all of its time in complex FIR convolutions.
``fir_convolve`` is the full linear convolution; the channel, the
canceller and the training burst's channel response use it.  Pulse
shaping and matched filtering are multirate, so they have their own
polyphase kernels, which compute only the samples the link uses:
``upsample_convolve`` skips the products with the zeros of a zero-stuffed
symbol stream, and ``convolve_decimate`` computes only the kept outputs.
Both take real taps (the SRRC filter) and run the real and imaginary
parts of the signal through one real matrix product, which is much
faster than a complex one on a strided view.

The module keeps its name because the stage benchmark (``perfbench/``)
times every full convolution by tracing ``fdsim._kernels.fir_convolve``.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided


def fir_convolve(x, h):
    """Full linear convolution of two 1-d sequences, complex128 output."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    h = np.ascontiguousarray(h, dtype=np.complex128)
    if x.size == 0 or h.size == 0:
        raise ValueError("fir_convolve requires non-empty inputs")
    return np.convolve(x, h)


def _real_taps(h) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("taps must be a non-empty 1-d sequence")
    if np.iscomplexobj(h):
        raise ValueError("the multirate kernels take real taps")
    return h.astype(np.float64, copy=False)


def _phases(h: np.ndarray, step: int, n_phases: int) -> np.ndarray:
    """Taps zero-padded to n_phases rows: row j holds h[j*step : (j+1)*step]."""
    padded = np.zeros(n_phases * step)
    padded[: len(h)] = h
    return padded.reshape(n_phases, step)


def _interleaved(m: np.ndarray) -> np.ndarray:
    """The real matrix that applies real ``m`` to interleaved (real, imag)
    pairs: element [2i + c, 2j + c] is m[i, j], for c = 0, 1.

    (``np.kron(m, np.eye(2))``, without its per-call overhead.)
    """
    out = np.zeros((m.shape[0], 2, m.shape[1], 2))
    out[:, 0, :, 0] = m
    out[:, 1, :, 1] = m
    return out.reshape(2 * m.shape[0], 2 * m.shape[1])


def upsample_convolve(symbols, h, sps: int) -> np.ndarray:
    """``fir_convolve`` of the zero-stuffed symbol stream with real taps ``h``.

    The stream has ``len(symbols) * sps`` samples with the symbols at
    multiples of ``sps``; the result has its full convolution length,
    ``len(symbols) * sps + len(h) - 1``.  Output block q (samples
    q*sps ... q*sps + sps - 1) is the window of symbols ending at q times
    the (phases x sps) tap matrix, so no product with a stuffed zero is
    formed.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    h = _real_taps(h)
    if symbols.ndim != 1 or symbols.size == 0:
        raise ValueError("upsample_convolve requires a non-empty 1-d symbol sequence")
    if sps < 1:
        raise ValueError("sps must be >= 1")
    n = len(symbols)
    # enough phases that the last block reaches the last output sample
    p = (len(h) + 2 * sps - 2) // sps
    phases = _phases(h, sps, p)
    padded = np.zeros(n + 2 * (p - 1), dtype=np.complex128)
    padded[p - 1 : p - 1 + n] = symbols
    # row q: symbols q-p+1 .. q as interleaved (real, imag) pairs
    windows = as_strided(padded.view(np.float64), shape=(n + p - 1, 2 * p),
                         strides=(padded.itemsize, padded.itemsize // 2),
                         writeable=False)
    blocks = windows @ _interleaved(phases[::-1])
    return blocks.view(np.complex128).ravel()[: n * sps + len(h) - 1]


def convolve_decimate(x, h, offset: int, step: int,
                      count: int | None = None) -> np.ndarray:
    """``fir_convolve(x, h)[offset::step][:count]`` for real taps ``h``.

    Only the kept outputs are computed.  Reading x in rows of ``step``
    samples, output k is the sum over phases j of the row k + j times the
    j-th phase of the reversed taps; one matrix product forms every
    (row, phase) term and a strided diagonal sum adds them up.  x is
    zero-padded only where an output window reaches past either end.
    """
    x = np.asarray(x, dtype=np.complex128)
    h = _real_taps(h)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("convolve_decimate requires a non-empty 1-d input")
    if offset < 0 or step < 1 or (count is not None and count < 0):
        raise ValueError("offset and count must be >= 0 and step >= 1")
    n_x, n_h = len(x), len(h)
    available = len(range(offset, n_x + n_h - 1, step))
    count = available if count is None else min(count, available)
    p = -(-n_h // step)
    phases = _phases(h[::-1], step, p)
    # output m is sum_i h_rev[i] * x[m - n_h + 1 + i]
    front = max(0, n_h - 1 - offset)
    start = offset - (n_h - 1) + front
    stop = start + (count + p - 1) * step
    back = max(0, stop - (front + n_x))
    if front or back:
        x = np.concatenate((np.zeros(front, dtype=np.complex128), x,
                            np.zeros(back, dtype=np.complex128)))
    rows = np.ascontiguousarray(x[start:stop]).view(np.float64)
    terms = (rows.reshape(-1, 2 * step) @ _interleaved(phases.T)).view(np.complex128)
    s_row, s_col = terms.strides
    return as_strided(terms, shape=(count, p), strides=(s_row, s_row + s_col),
                      writeable=False).sum(axis=1)
