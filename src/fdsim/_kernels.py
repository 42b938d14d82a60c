"""The multirate FIR kernels of a link trial.

Pulse shaping and matched filtering are multirate, so they have their
own polyphase kernels, which compute only the samples the link uses:
``upsample`` skips the products with the zeros of a zero-stuffed symbol
stream, and ``decimate`` computes only the kept outputs.  Each runs the
real and imaginary parts of the signal through one real matrix, which
``polyphase_matrices`` builds once per SRRC filter: one real product is
much faster than a complex one on a strided view.

The self-interference of a trial is the zero-stuffed symbol stream
through the SRRC filter and then the long complex channel, so the link
applies both at once at the symbol rate: ``phase_spectrum`` transforms
the polyphase components of the combined filter once per configuration
and ``upsample_convolve_fft`` filters a symbol sequence with them
through numpy's FFT.  A +B trial subtracts its replica inside that
spectrum: the replica is the same symbols through the short filter
SRRC ⊛ estimate, so the trial filters its symbols once, through the
difference of the two filters' polyphase spectra.  The short filter has
only a few taps per phase, so its spectrum is one product with a DFT
matrix of that many columns, which ``phase_spectrum`` builds once with
the long filter's spectrum, rather than one FFT per phase.  The kernel
forms, inverts and returns its output in one ``(n_fft, sps)`` buffer,
so a trial allocates one spectrum-sized array.
"""

from dataclasses import dataclass

import numpy as np


def _strided(a: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """A read-only view of contiguous ``a`` with the given shape and
    strides (``as_strided``, without its per-call overhead)."""
    view = np.ndarray(shape, a.dtype, buffer=a, strides=strides)
    view.flags.writeable = False
    return view


def _phases(h: np.ndarray, step: int, n_phases: int) -> np.ndarray:
    """Taps zero-padded to n_phases rows: row j holds h[j*step : (j+1)*step]."""
    padded = np.zeros(n_phases * step, dtype=h.dtype)
    padded[: len(h)] = h
    return padded.reshape(n_phases, step)


def _n_phases(n_taps: int, sps: int) -> int:
    """Phases of an ``n_taps`` filter at ``sps`` for upsampling: enough that
    the last output block reaches the last output sample."""
    return (n_taps + 2 * sps - 2) // sps


def polyphase_matrices(h, sps: int) -> tuple[np.ndarray, np.ndarray]:
    """The matrices with which ``upsample`` and ``decimate`` apply real
    taps ``h`` at ``sps``: the taps' phases in reverse order, and the
    transposed phases of the reversed taps, each in its Kronecker product
    with the 2 x 2 identity, which applies it to interleaved (real, imag)
    pairs."""
    shaping = np.kron(_phases(h, sps, _n_phases(len(h), sps))[::-1], np.eye(2))
    return shaping, np.kron(_phases(h[::-1], sps, -(-len(h) // sps)).T, np.eye(2))


def _signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("the kernels take non-empty 1-d signals and taps")
    return x


def upsample(symbols, shaping: np.ndarray, n_taps: int) -> np.ndarray:
    """``np.convolve`` of the zero-stuffed symbol stream (the symbols at
    multiples of ``sps``) with the ``n_taps`` taps of ``shaping``, at its
    full length.  Output block q (samples q*sps ... q*sps + sps - 1) is
    the window of symbols ending at q times the shaping matrix, so no
    product with a stuffed zero is formed."""
    symbols = _signal(symbols)
    n, p, sps = len(symbols), shaping.shape[0] // 2, shaping.shape[1] // 2
    padded = np.zeros(n + 2 * (p - 1), dtype=np.complex128)
    padded[p - 1 : p - 1 + n] = symbols
    # row q: symbols q-p+1 .. q as interleaved (real, imag) pairs
    windows = _strided(padded.view(np.float64), (n + p - 1, 2 * p),
                       (padded.itemsize, padded.itemsize // 2))
    return (windows @ shaping).view(np.complex128).ravel()[: n * sps + n_taps - 1]


def decimate(x, matched: np.ndarray, count: int | None = None) -> np.ndarray:
    """``np.convolve(x, h)[len(h) - 1::step][:count]`` for the taps h and
    ``step`` of ``matched``, where ``count`` is at most ceil(len(x) / step),
    the outputs whose window starts inside x (all of them by default).

    Reading x in rows of ``step`` samples, output k is the sum over phases
    j of the row k + j times the j-th phase of the reversed taps, so one
    matrix product forms every (row, phase) term and a strided diagonal
    sum adds them up.  x is zero-padded only where an output window
    reaches past its end.
    """
    x = _signal(x)
    step, p = matched.shape[0] // 2, matched.shape[1] // 2
    available = -(-len(x) // step)
    count = available if count is None else count
    if not 0 <= count <= available:
        raise ValueError(f"the signal has {available} outputs, not {count}")
    stop = (count + p - 1) * step
    if stop > len(x):
        x = np.concatenate((x, np.zeros(stop - len(x), dtype=np.complex128)))
    rows = np.ascontiguousarray(x[:stop]).view(np.float64)
    terms = (rows.reshape(-1, 2 * step) @ matched).view(np.complex128)
    s_row, s_col = terms.strides
    return _strided(terms, (count, p), (s_row, s_row + s_col)).sum(axis=1)


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
    """The DFTs of a filter's polyphase components, for
    ``upsample_convolve_fft``.

    Column j of ``spectra`` (``n_fft`` rows of ``sps`` bins) is the DFT
    of taps j, j + sps, j + 2*sps, ...; ``n_taps`` is the filter's
    length.  ``replica_dft`` is the ``(n_fft, m)`` DFT matrix that
    transforms the phases of a subtracted filter of up to ``m`` taps per
    phase, m = ⌈n_minus / sps⌉ (0 when nothing is subtracted).  Both
    arrays are read-only.
    """

    spectra: np.ndarray
    n_taps: int
    replica_dft: np.ndarray


def spectrum_shape(n_taps: int, sps: int, n_symbols: int, n_minus: int) -> tuple[int, int]:
    """The ``(n_fft, m)`` shape of ``phase_spectrum``'s replica DFT matrix."""
    return fft_size(n_symbols + _n_phases(n_taps, sps) - 1), -(-n_minus // sps)


def phase_spectrum(h, sps: int, n_symbols: int, n_minus: int = 0) -> PhaseSpectrum:
    """The polyphase spectrum of taps ``h`` (complex allowed) at ``sps``,
    long enough to filter up to ``n_symbols`` symbols without wrap-around,
    and able to subtract filters of up to ``n_minus`` taps (at most
    ``len(h)``) from it."""
    h = _signal(h)
    if sps < 1 or n_symbols < 1:
        raise ValueError("sps and n_symbols must be >= 1")
    if not 0 <= n_minus <= len(h):
        raise ValueError("n_minus must be in [0, len(h)]")
    n_fft, m = spectrum_shape(len(h), sps, n_symbols, n_minus)
    spectra = np.fft.fft(_phases(h, sps, _n_phases(len(h), sps)), n_fft, axis=0)
    # W[q, k] = exp(-2πi·qk/n_fft), its exponent reduced mod n_fft exactly
    twiddles = np.exp(-2j * np.pi / n_fft * np.arange(n_fft))
    replica_dft = twiddles[np.outer(np.arange(n_fft), np.arange(m)) % n_fft]
    for a in (spectra, replica_dft):
        a.setflags(write=False)
    return PhaseSpectrum(spectra=spectra, n_taps=len(h), replica_dft=replica_dft)


def upsample_convolve_fft(symbols, spectrum: PhaseSpectrum, minus=None) -> np.ndarray:
    """The zero-stuffed symbol stream through complex taps, by FFT at the
    symbol rate.

    Equals ``np.convolve`` of the zero-stuffed stream with the taps that
    ``spectrum`` was built from, at its full length; with ``minus``
    (complex taps, at most m * sps of them and at most that filter's
    length), with those taps less ``minus``.  Output sample q*sps + j is
    symbol sequence ⊛ phase j at q, so one FFT of the symbols, one product
    with every phase's spectrum and one inverse FFT per phase give all of
    them; the spectrum of ``minus``'s phases is one product with
    ``spectrum.replica_dft``.  The result is a view of the leading samples
    of the ``(n_fft, sps)`` buffer those transforms run in, whose rows
    (the layout of the stored spectra) are the output blocks in order.
    """
    symbols = _signal(symbols)
    n_fft, sps = spectrum.spectra.shape
    p = _n_phases(spectrum.n_taps, sps)
    n_out = len(symbols) * sps + spectrum.n_taps - 1
    n_blocks = len(symbols) + p - 1
    if n_blocks > n_fft:
        raise ValueError(f"the spectrum has {n_fft} bins; {len(symbols)} symbols "
                         f"need {n_blocks}")
    blocks = np.empty((n_fft, sps), dtype=np.complex128)
    symbols_fft = np.fft.fft(symbols, n_fft)[:, None]
    if minus is None:
        np.multiply(spectrum.spectra, symbols_fft, out=blocks)
    else:
        minus = np.asarray(minus, dtype=np.complex128)
        m = spectrum.replica_dft.shape[1]
        limit = min(m * sps, spectrum.n_taps)
        if minus.ndim != 1 or minus.size > limit:
            raise ValueError(f"minus must be a 1-d sequence of at most {limit} taps")
        np.matmul(spectrum.replica_dft, _phases(minus, sps, m), out=blocks)
        np.subtract(spectrum.spectra, blocks, out=blocks)
        blocks *= symbols_fft
    np.fft.ifft(blocks, axis=0, out=blocks)
    return blocks.reshape(-1)[:n_out]
