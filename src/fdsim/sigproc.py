"""Bit/symbol/waveform conversions on plain sample arrays.

Gray-coded M-PSK mapping, square-root-raised-cosine pulse shaping with
matched filtering (sampled at the peak of the cascade of both filters),
circularly-symmetric complex Gaussian noise, and the |x|² sum behind the
link's mean powers.  The PSK mapping and detection read per-order tables
built once at import (``PSK_TABLES``); detection goes by angular sector,
so it does not depend on the symbol's scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import _n_phases, _phases, _signal, matmul_rows, product_rows

SUPPORTED_ORDERS = (2, 4, 8, 16)


@dataclass(frozen=True, eq=False)
class PskTable:
    """Gray-coded M-PSK as read-only lookup tables.

    ``points[k]`` is constellation point k, e^{j(2*pi*k/M + pi/M)};
    ``symbols[b]`` is the point that carries Gray label b; ``weights``
    are the bit weights of a label, most significant bit first; and
    ``bits[k]`` holds the log2(M) label bits of point k.
    """

    points: np.ndarray
    symbols: np.ndarray
    weights: np.ndarray
    bits: np.ndarray


def _psk_table(m_order: int) -> PskTable:
    k = np.arange(m_order)
    points = np.exp(1j * (2.0 * np.pi * k / m_order + np.pi / m_order))
    labels = k ^ (k >> 1)  # the Gray label of point k
    symbols = np.empty_like(points)
    symbols[labels] = points
    shifts = np.arange(m_order.bit_length() - 2, -1, -1)
    table = PskTable(points=points, symbols=symbols, weights=1 << shifts,
                     bits=(labels[:, None] >> shifts) & 1)
    for a in (table.points, table.symbols, table.weights, table.bits):
        a.setflags(write=False)
    return table


#: The PSK tables of every supported order.
PSK_TABLES = {m: _psk_table(m) for m in SUPPORTED_ORDERS}


def psk_table(m_order: int) -> PskTable:
    """The lookup tables of M-PSK; an unsupported order is a ``ValueError``."""
    try:
        return PSK_TABLES[m_order]
    except KeyError:
        raise ValueError(f"unsupported PSK order {m_order}; must be one of "
                         f"{SUPPORTED_ORDERS}") from None


def energy(x) -> float:
    """Sum of |x|² over a complex sequence, as a Python float.

    The squares of its float64 view are summed by ``einsum``, so no |x|²
    array is formed and, unlike a BLAS dot product, no thread pool runs.
    """
    v = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", v, v))


@dataclass(frozen=True, eq=False)
class SrrcFilter:
    """Square-root-raised-cosine filter taps (real, held as a read-only
    copy) at ``samples_per_symbol``, and the read-only polyphase matrices
    that ``pulse_shape`` and ``matched_filter_downsample`` apply, built
    once with the filter: the taps' phases in reverse order, and the
    transposed phases of the reversed taps, each in its Kronecker product
    with the 2 x 2 identity, which applies it to interleaved (real, imag)
    pairs.  One real product is much faster than a complex one on a
    strided view."""

    taps: np.ndarray
    samples_per_symbol: int
    shaping: np.ndarray = field(init=False, repr=False)
    matched: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        taps = np.asarray(self.taps)
        sps = self.samples_per_symbol
        if taps.ndim != 1 or not taps.size or np.iscomplexobj(taps) or sps < 1:
            raise ValueError("a filter takes a non-empty 1-d real tap sequence and sps >= 1")
        taps = taps.astype(np.float64)
        shaping = np.kron(_phases(taps, sps, _n_phases(len(taps), sps))[::-1], np.eye(2))
        matched = np.kron(_phases(taps[::-1], sps, -(-len(taps) // sps)).T, np.eye(2))
        for name, a in (("taps", taps), ("shaping", shaping), ("matched", matched)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def modulate_psk(bits, m_order: int) -> np.ndarray:
    """Map a {0,1} sequence onto Gray-coded unit-modulus PSK symbols."""
    table = psk_table(m_order)
    bits = np.asarray(bits)
    # before the cast, which would truncate 0.5 to 0
    if bits.dtype.kind not in "biu" and not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    bits = bits.astype(np.int64, copy=False)
    # one reduction checks both ends: a negative bit is a huge unsigned one
    if bits.size and bits.view(np.uint64).max() > 1:
        raise ValueError("bits must contain only 0 and 1")
    n_b = len(table.weights)
    if bits.size % n_b:
        raise ValueError(f"bit count {bits.size} not divisible by log2(M) = {n_b}")
    return table.symbols[bits.reshape(-1, n_b) @ table.weights]


def demodulate_psk(symbols, m_order: int) -> np.ndarray:
    """PSK detection by angle, with inverse Gray mapping.

    Symbol z goes to the point k whose sector [2*pi*k/M, 2*pi*(k+1)/M)
    holds ``np.angle(z)``, k = floor(angle(z)*M / (2*pi)) mod M: the
    minimum-distance decision for equal-energy PSK, read from the phase
    alone, so c*z detects as z for every c > 0.  A symbol on a boundary
    goes to the counter-clockwise point and +0 to point 0; a NaN or
    infinite symbol is a ``ValueError``.
    """
    table = psk_table(m_order)
    symbols = np.asarray(symbols, dtype=np.complex128)
    if not np.isfinite(symbols).all():
        raise ValueError("symbols must be finite")
    # times M (exact) before the division, so pi/2 and pi land on their boundary
    k = np.floor(np.angle(symbols) * m_order / (2.0 * np.pi)).astype(np.int64) % m_order
    return table.bits.take(k, axis=0).reshape(-1)


def srrc_taps(rolloff: float, span_symbols: int, samples_per_symbol: int) -> SrrcFilter:
    """Unit-energy SRRC taps on a symmetric grid of span*sps + 1 points."""
    beta = float(rolloff)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"rolloff must be in (0, 1], got {beta}")
    if span_symbols < 4:
        raise ValueError("span_symbols must be >= 4")
    if samples_per_symbol < 2:
        raise ValueError("samples_per_symbol must be >= 2")
    sps = samples_per_symbol
    n = span_symbols * sps
    t = (np.arange(n + 1) - n / 2) / sps  # in symbol periods
    # the general formula is 0/0 at t = 0 and |t| = 1/(4*beta); those
    # taps take their limits, the rest are evaluated in one expression.
    # The edge limit is evaluated only when a tap lies on the edge: at a
    # tiny rolloff pi/(4*beta) overflows and no tap does.
    edge = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) <= 1e-12
    general = (t != 0.0) & ~edge
    h = np.full_like(t, 1.0 - beta + 4.0 * beta / np.pi)  # the t = 0 limit
    if edge.any():
        h[edge] = (beta / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
        )
    tg = t[general]
    num = np.sin(np.pi * tg * (1.0 - beta)) + 4.0 * beta * tg * np.cos(
        np.pi * tg * (1.0 + beta)
    )
    h[general] = num / (np.pi * tg * (1.0 - (4.0 * beta * tg) ** 2))
    h /= np.sqrt(np.sum(h**2))
    return SrrcFilter(taps=h, samples_per_symbol=sps)


def _strided(a: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """A read-only view of contiguous ``a`` with the given shape and
    strides (``as_strided``, without its per-call overhead)."""
    view = np.ndarray(shape, a.dtype, buffer=a, strides=strides)
    view.flags.writeable = False
    return view


def pulse_shape(symbols, filt: SrrcFilter) -> np.ndarray:
    """Zero-stuff to the filter's sample rate and convolve with its taps.

    The output is ``np.convolve`` of the zero-stuffed symbol stream (the
    symbols at multiples of ``sps``) with the taps, at its full length;
    an empty symbol sequence is a ``ValueError``.  Output block q
    (samples q*sps ... q*sps + sps - 1) is the window of symbols ending
    at q times the shaping matrix (in ``matmul_rows`` blocks), so no
    product with a stuffed zero is formed.  With unit-energy taps the
    mean per-symbol energy is the mean symbol energy: no scaling is applied.
    """
    symbols = _signal(symbols)
    n, p, sps = len(symbols), filt.shaping.shape[0] // 2, filt.shaping.shape[1] // 2
    padded = np.zeros(n + 2 * (p - 1), dtype=np.complex128)
    padded[p - 1 : p - 1 + n] = symbols
    # row q: symbols q-p+1 .. q as interleaved (real, imag) pairs
    windows = _strided(padded.view(np.float64), (n + p - 1, 2 * p),
                       (padded.itemsize, padded.itemsize // 2))
    out = matmul_rows(windows, filt.shaping, np.empty((n + p - 1, 2 * sps)))
    return out.view(np.complex128).ravel()[: n * sps + len(filt.taps) - 1]


def matched_filter_downsample(samples, filt: SrrcFilter, n_symbols: int) -> np.ndarray:
    """The first ``n_symbols`` outputs of ``np.convolve(samples, h)[len(h) - 1::sps]``
    for the taps h of ``filt``: the matched filter sampled at the symbol
    instants, from the peak of the shaping filter and this one in cascade.

    Output k is the sum over the p phases j of the reversed taps of sample
    row k + j (rows of ``sps``) times phase j: one matrix product per
    block of outputs and a strided diagonal sum.  A block of b outputs
    reads b + p - 1 rows, as many as ``product_rows`` allows but at least
    2p - 1, so that at most half of a product is wasted.  A negative count,
    or fewer than the ``(n_symbols + p - 1)*sps`` samples read, is a
    ``ValueError``.
    """
    x = _signal(samples)
    step, p = filt.matched.shape[0] // 2, filt.matched.shape[1] // 2
    stop = (n_symbols + p - 1) * step
    if n_symbols < 0 or stop > len(x):
        raise ValueError(f"n_symbols = {n_symbols}: needs >= 0 and {stop} samples, got {len(x)}")
    rows = np.ascontiguousarray(x[:stop]).view(np.float64).reshape(-1, 2 * step)
    out = np.empty(n_symbols, dtype=np.complex128)
    size = max(product_rows(rows, filt.matched) - p + 1, p)
    for k in range(0, n_symbols, size):
        block = out[k : k + size]
        terms = (rows[k : k + len(block) + p - 1] @ filt.matched).view(np.complex128)
        s_row, s_col = terms.strides
        _strided(terms, (len(block), p), (s_row, s_row + s_col)).sum(axis=1, out=block)
    return out


def awgn(n: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. CN(0, variance) samples; real/imag each carry variance/2."""
    if not 0.0 <= variance < np.inf or n < 0:
        raise ValueError("awgn takes a finite variance >= 0 and a length >= 0")
    if variance == 0.0:
        return np.zeros(n, dtype=np.complex128)
    # the stream of scale * (standard_normal(n) + 1j * standard_normal(n)),
    # both halves drawn in one call and scaled in place
    draw = rng.standard_normal(2 * n)
    draw *= np.sqrt(variance / 2.0)
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = draw[:n], draw[n:]
    return out
