"""The symbol-rate filter of a link trial's self-interference.

A trial's SI is the zero-stuffed symbol stream through the SRRC filter
and then the long complex channel, applied at once at the symbol rate:
``phase_spectrum`` lays out the combined filter once per configuration
and ``upsample_convolve_fft`` filters symbols with it, less a +B
replica's short filter SRRC ⊛ estimate.  The helpers are shared with
``sigproc`` and ``cancellation``: every matrix product fdsim issues
stays under ``MAX_PRODUCT_MACS`` but ``sigproc.modulate_psk``'s integer
product of bits and weights, which numpy runs without BLAS, and one
whose single row needs more (the +B Gram products at a large
``estimator_order``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Most real multiply-adds (a complex one counts four) in one float64 or
#: complex128 matrix product that fdsim issues.  OpenBLAS runs a product
#: this small on the calling thread; a larger one wakes its thread pool,
#: whose workers then spin a core for ~80 ms, the core that
#: ``link.run_trial``'s noise draw runs on.
MAX_PRODUCT_MACS = 2**18

#: Most taps per phase that ``upsample_convolve_fft`` filters by direct
#: product rather than by FFT; twice that for a spectrum built for a
#: subtracted filter, whose FFT route also transforms the phases'
#: difference.  On 1000 QPSK symbols at one BLAS thread the direct
#: product took 132 µs against 351 at 16 taps per phase (sps 40) and 102
#: against 120 at 32 (sps 10), but 127 against 113 at 36; less a filter,
#: 121 against 221 at 35 (sps 10), 144 against 140 at 60 (sps 5) and 150
#: against 114 at 73 (sps 4).
MAX_DIRECT_PHASES = 32


def product_rows(a: np.ndarray, b: np.ndarray) -> int:
    """Rows of ``a`` per block that keep ``a[block] @ b`` within
    ``MAX_PRODUCT_MACS`` (at least one)."""
    # 8-byte real and 16-byte complex items: a complex by complex MAC is 4
    macs = a.shape[1] * (b.shape[1] if b.ndim == 2 else 1) * a.itemsize * b.itemsize // 64
    return max(1, MAX_PRODUCT_MACS // max(macs, 1))


def matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` for a 2-d ``a``, one ``product_rows``
    block of its rows at a time; without ``out``, into a new array of
    ``np.result_type(a, b)``."""
    if out is None:
        out = np.empty((len(a),) + b.shape[1:], dtype=np.result_type(a, b))
    step = product_rows(a, b)
    if step >= len(a):
        return np.matmul(a, b, out=out)
    for k in range(0, len(a), step):
        np.matmul(a[k : k + step], b, out=out[k : k + step])
    return out


def _phases(h: np.ndarray, step: int, n_phases: int) -> np.ndarray:
    """Taps zero-padded to n_phases rows: row j holds h[j*step : (j+1)*step]."""
    padded = np.zeros(n_phases * step, dtype=h.dtype)
    padded[: len(h)] = h
    return padded.reshape(n_phases, step)


def _n_phases(n_taps: int, sps: int) -> int:
    """Phases of ``n_taps`` taps at ``sps``: the last output block reaches the last sample."""
    return (n_taps + 2 * sps - 2) // sps


def _signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("the kernels take non-empty 1-d signals and taps")
    return x


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _strided(a: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """A read-only view of contiguous ``a`` (``as_strided`` without its per-call overhead)."""
    return _read_only(np.ndarray(shape, a.dtype, buffer=a, strides=strides))


def pair_matrix(phases: np.ndarray) -> np.ndarray:
    """The real ``(2r, 2c)`` matrix that applies complex ``(r, c)`` ``phases``
    to rows of interleaved (real, imag) pairs: z becomes [[Re z, Im z],
    [-Im z, Re z]].  One real product beats a complex one on a strided view."""
    out = np.empty((2 * phases.shape[0], 2 * phases.shape[1]))
    out[::2, ::2] = out[1::2, 1::2] = phases.real
    out[::2, 1::2] = phases.imag
    out[1::2, ::2] = -phases.imag
    return out


def polyphase_filter(symbols, matrix: np.ndarray, n_taps: int) -> np.ndarray:
    """``np.convolve`` of the zero-stuffed symbol stream with ``n_taps`` taps,
    ``matrix`` the ``pair_matrix`` of their phases reversed: output block q
    is the window of symbols ending at q times the matrix, in
    ``matmul_rows`` blocks.  The result views the product's buffer."""
    symbols = _signal(symbols)
    n, p, sps = len(symbols), matrix.shape[0] // 2, matrix.shape[1] // 2
    padded = np.zeros(n + 2 * (p - 1), dtype=np.complex128)
    padded[p - 1 : p - 1 + n] = symbols
    # row q: symbols q-p+1 .. q as interleaved (real, imag) pairs
    windows = _strided(padded.view(np.float64), (n + p - 1, 2 * p),
                       (padded.itemsize, padded.itemsize // 2))
    out = matmul_rows(windows, matrix, np.empty((n + p - 1, 2 * sps)))
    return out.view(np.complex128).ravel()[: n * sps + n_taps - 1]


def fft_size(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, a length numpy's FFT does fast."""
    if n < 1:
        raise ValueError("fft_size needs n >= 1")
    while True:
        rest = n
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


@dataclass(frozen=True, eq=False)
class PhaseSpectrum:
    """A filter's p ``phases`` of sps taps, for up to n_fft - p + 1 symbols.
    ``direct``, for p up to ``MAX_DIRECT_PHASES`` (twice that when built
    for a subtracted filter), is the ``pair_matrix`` of the reversed
    phases.  ``spectra``, column j the DFT of phase j, is built with the
    spectrum on the FFT route when it is built for no subtracted filter,
    else on first read.  All arrays are read-only."""

    phases: np.ndarray
    n_taps: int
    direct: np.ndarray | None
    n_fft: int

    @cached_property
    def spectra(self) -> np.ndarray:
        return _read_only(np.fft.fft(self.phases, self.n_fft, axis=0))


def phase_spectrum(h, sps: int, n_symbols: int, n_minus: int = 0) -> PhaseSpectrum:
    """The polyphase filter of taps ``h`` (complex allowed) at ``sps``, for
    up to ``n_symbols`` symbols and subtracted filters of up to ``n_minus``
    taps (at most ``len(h)``): with one, a trial on the FFT route
    transforms the phases' difference, so the direct route reaches twice
    as far."""
    h = _signal(h)
    if sps < 1 or n_symbols < 1:
        raise ValueError("sps and n_symbols must be >= 1")
    if not 0 <= n_minus <= len(h):
        raise ValueError("n_minus must be in [0, len(h)]")
    p = _n_phases(len(h), sps)
    phases = _read_only(_phases(h, sps, p))
    limit = MAX_DIRECT_PHASES * (2 if n_minus else 1)
    direct = _read_only(pair_matrix(phases[::-1])) if p <= limit else None
    out = PhaseSpectrum(phases, len(h), direct, fft_size(n_symbols + p - 1))
    if direct is None and not n_minus:  # design work, not a trial's
        out.spectra
    return out


def upsample_convolve_fft(symbols, spectrum: PhaseSpectrum, minus=None) -> np.ndarray:
    """``np.convolve`` of the zero-stuffed symbol stream with the taps of
    ``spectrum`` less ``minus`` (complex taps, at most that filter's
    length), at full length.  Both routes filter by the phases less
    ``minus``'s: with ``spectrum.direct``, ``polyphase_filter``'s product
    with their ``pair_matrix``; otherwise, as output sample q*sps + j is
    symbols ⊛ phase j at q, one FFT of the symbols, one product with the
    phases' spectra (``spectrum.spectra``, or one FFT of the difference)
    and one inverse FFT per phase, in an ``(n_fft, sps)`` buffer whose
    leading samples the result views."""
    symbols = _signal(symbols)
    (p, sps), n_fft, n_taps = spectrum.phases.shape, spectrum.n_fft, spectrum.n_taps
    if len(symbols) + p - 1 > n_fft:
        raise ValueError(f"the spectrum has {n_fft} bins; {len(symbols)} symbols "
                         f"need {len(symbols) + p - 1}")
    phases = spectrum.phases
    if minus is not None:
        minus = np.asarray(minus, dtype=np.complex128)
        if minus.ndim != 1 or minus.size > n_taps:
            raise ValueError(f"minus must be a 1-d sequence of at most {n_taps} taps")
        phases = phases - _phases(minus, sps, p)
    if spectrum.direct is not None:
        matrix = spectrum.direct if minus is None else pair_matrix(phases[::-1])
        return polyphase_filter(symbols, matrix, n_taps)
    symbols_fft = np.fft.fft(symbols, n_fft)[:, None]
    if minus is None:
        blocks = np.multiply(spectrum.spectra, symbols_fft)
    else:
        blocks = np.fft.fft(phases, n_fft, axis=0)
        blocks *= symbols_fft
    np.fft.ifft(blocks, axis=0, out=blocks)
    return blocks.reshape(-1)[: len(symbols) * sps + n_taps - 1]
