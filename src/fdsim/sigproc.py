"""Bit/symbol/waveform conversions on plain sample arrays.

Gray-coded M-PSK mapping, square-root-raised-cosine pulse shaping with
matched filtering (sampled at the peak of the cascade of both filters),
circularly-symmetric complex Gaussian noise, and the |x|² sum behind the
link's mean powers.  The PSK mapping and detection read per-order tables
built once at import (``PSK_TABLES``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

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


def constellation(m_order: int) -> np.ndarray:
    """PSK points e^{j(2*pi*k/M + pi/M)} for k = 0..M-1."""
    return psk_table(m_order).points.copy()


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
    copy) with their design parameters, and the read-only polyphase
    matrices that ``pulse_shape`` and ``matched_filter_downsample`` apply,
    built once with the filter."""

    taps: np.ndarray
    rolloff: float
    span_symbols: int
    samples_per_symbol: int
    shaping: np.ndarray = field(init=False, repr=False)
    matched: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        taps = np.asarray(self.taps)
        if taps.ndim != 1 or not taps.size or np.iscomplexobj(taps) or self.samples_per_symbol < 1:
            raise ValueError("a filter takes a non-empty 1-d real tap sequence and sps >= 1")
        taps = taps.astype(np.float64)
        matrices = _kernels.polyphase_matrices(taps, self.samples_per_symbol)
        for name, a in zip(("taps", "shaping", "matched"), (taps, *matrices)):
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
    """Minimum-distance PSK detection with inverse Gray mapping.

    Ties at a decision boundary resolve to the lower constellation index.
    """
    table = psk_table(m_order)
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size == 0:
        return np.zeros(0, dtype=np.int64)
    # squared distances (points x symbols) as (dre)² + (dim)², so that the
    # reductions run along the symbols; abs()**2 would go through hypot
    d = np.subtract(symbols.real, table.points.real[:, None])
    np.square(d, out=d)
    d_im = np.subtract(symbols.imag, table.points.imag[:, None])
    np.square(d_im, out=d_im)
    d += d_im
    dmin = d.min(axis=0)
    # tolerance makes the lower-index tie-break robust to float rounding
    k = np.argmax(d <= dmin * (1.0 + 1e-9) + 1e-30, axis=0)
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
    return SrrcFilter(taps=h, rolloff=beta, span_symbols=span_symbols,
                      samples_per_symbol=sps)


def pulse_shape(symbols, filt: SrrcFilter) -> np.ndarray:
    """Zero-stuff to the filter's sample rate and convolve with its taps.

    The output is the full convolution of the zero-stuffed stream,
    computed polyphase; an empty symbol sequence is a ``ValueError``.
    With unit-energy taps the mean per-symbol waveform energy equals the
    mean symbol energy, so no extra scaling is applied.
    """
    return _kernels.upsample(symbols, filt.shaping, len(filt.taps))


def matched_filter_downsample(samples, filt: SrrcFilter,
                              n_symbols: int | None = None) -> np.ndarray:
    """Matched-filter samples shaped by ``filt`` and sample the output at
    the symbol instants.

    The first instant is ``len(filt.taps) - 1``, the peak of the shaping
    filter and this one in cascade, for any tap count.
    """
    if len(samples) < len(filt.taps):
        raise ValueError("waveform shorter than the matched filter span")
    return _kernels.decimate(samples, filt.matched, n_symbols)


def awgn(n: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. CN(0, variance) samples; real/imag each carry variance/2."""
    if not 0.0 <= variance < np.inf or n < 0:
        raise ValueError("awgn takes a finite variance >= 0 and a length >= 0")
    if variance == 0.0:
        return np.zeros(n, dtype=np.complex128)
    scale = np.sqrt(variance / 2.0)
    # the stream of scale * (standard_normal(n) + 1j * standard_normal(n)),
    # with each half drawn into one scratch array and scaled in place
    out = np.empty(n, dtype=np.complex128)
    draw = np.empty(n)
    for part in (out.real, out.imag):
        rng.standard_normal(out=draw)
        np.multiply(draw, scale, out=part)
    return out
