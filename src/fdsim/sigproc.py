"""Bit/symbol/waveform conversions.

Gray-coded M-PSK mapping, square-root-raised-cosine pulse shaping with
matched filtering, circularly-symmetric complex Gaussian noise, and the
|x|² sum behind the link's mean powers.  The PSK mapping and detection
read per-order tables built once at import (``PSK_TABLES``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fir_convolve stays bound here: the stage benchmark patches and restores
# it under this name
from ._kernels import convolve_decimate, fir_convolve, upsample_convolve  # noqa: F401

SUPPORTED_ORDERS = (2, 4, 8, 16)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SrrcFilter:
    """Square-root-raised-cosine filter taps with their design parameters."""

    taps: np.ndarray
    rolloff: float
    span_symbols: int
    samples_per_symbol: int

    @property
    def group_delay(self) -> int:
        """One-sided delay of the symmetric filter, in samples."""
        return (len(self.taps) - 1) // 2


@dataclass(frozen=True)
class Waveform:
    """Complex baseband sample sequence with rate and delay metadata.

    ``delay_samples`` accumulates filter group delay so the receiver can
    sample at the correct symbol instants after matched filtering.
    """

    samples: np.ndarray
    sample_rate_hz: float
    samples_per_symbol: int
    delay_samples: int = 0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if int(self.samples_per_symbol) != self.samples_per_symbol or self.samples_per_symbol < 1:
            raise ValueError("samples_per_symbol must be an integer >= 1")


def modulate_psk(bits, m_order: int) -> np.ndarray:
    """Map a {0,1} sequence onto Gray-coded unit-modulus PSK symbols."""
    table = psk_table(m_order)
    bits = np.asarray(bits, dtype=np.int64)
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
    t = np.arange(-n // 2, n // 2 + 1) / sps  # in symbol periods
    # the general formula is 0/0 at t = 0 and |t| = 1/(4*beta); those
    # taps take their limits, the rest are evaluated in one expression
    edge = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) <= 1e-12
    general = (t != 0.0) & ~edge
    h = np.full_like(t, 1.0 - beta + 4.0 * beta / np.pi)  # the t = 0 limit
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


def pulse_shape(symbols, filt: SrrcFilter, sample_rate_hz: float) -> Waveform:
    """Zero-stuff to the filter's sample rate and convolve with its taps.

    The output is the full convolution of the zero-stuffed stream (an
    empty symbol sequence shapes as one zero symbol), computed polyphase.
    With unit-energy taps the mean per-symbol waveform energy equals the
    mean symbol energy, so no extra scaling is applied.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.size == 0:
        symbols = np.zeros(1, dtype=np.complex128)
    sps = filt.samples_per_symbol
    out = upsample_convolve(symbols, filt.taps, sps)
    return Waveform(samples=out, sample_rate_hz=sample_rate_hz,
                    samples_per_symbol=sps, delay_samples=filt.group_delay)


def matched_filter_downsample(wave: Waveform, filt: SrrcFilter,
                              n_symbols: int | None = None) -> np.ndarray:
    """Matched-filter a waveform and sample it at symbol instants.

    Compensates the accumulated group delay recorded on the waveform plus
    this filter's own delay.
    """
    if wave.samples_per_symbol != filt.samples_per_symbol:
        raise ValueError("waveform and filter samples_per_symbol differ")
    if len(wave.samples) < len(filt.taps):
        raise ValueError("waveform shorter than the matched filter span")
    offset = int(round(wave.delay_samples + filt.group_delay))
    sym = convolve_decimate(wave.samples, filt.taps, offset,
                            filt.samples_per_symbol, n_symbols)
    if n_symbols is not None and len(sym) < n_symbols:
        raise ValueError("waveform too short for the requested symbol count")
    return sym


def awgn(n: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. CN(0, variance) samples; real/imag each carry variance/2."""
    if variance < 0:
        raise ValueError("noise variance must be non-negative")
    if n < 0:
        raise ValueError("length must be non-negative")
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
