"""The FIR convolution kernels.

The simulator spends nearly all of its time in complex FIR convolutions.
``fir_convolve`` is the full linear convolution.  A trial uses it only
for the training burst's channel response; otherwise the sample-rate
``channel.apply_channel`` (once per trial design, for one pulse) and the
library canceller (``cancellation.build_cancellation`` and
``residual_power``) use it.  Pulse shaping and matched filtering are
multirate, so they have their own polyphase kernels, which compute only
the samples the link uses:
``upsample_convolve`` skips the products with the zeros of a zero-stuffed
symbol stream, and ``convolve_decimate`` computes only the kept outputs.
Both take real taps (the SRRC filter) and run the real and imaginary
parts of the signal through one real matrix product, which is much
faster than a complex one on a strided view.

The self-interference of a trial is the zero-stuffed symbol stream
through the SRRC filter and then the long complex channel, so the link
applies both at once at the symbol rate: ``phase_spectrum`` transforms
the polyphase components of the combined filter once per configuration
and ``upsample_convolve_fft`` filters a symbol sequence with them
through numpy's FFT.  A +B trial subtracts its replica inside that
spectrum: the replica is the same symbols through the short filter
SRRC ⊛ estimate, so the trial filters its symbols once, through the
difference of the two filters' polyphase spectra.  The kernel works in
one ``(n_fft, sps)`` buffer, where row q holds output block q (samples
q*sps ... q*sps + sps - 1): it forms the product spectrum there (and,
for +B, the replica's spectrum and the difference before it), inverts
it in place and returns the buffer's leading samples, so the interleaved
output needs no copy and a trial allocates one spectrum-sized array.

The module keeps its name because the stage benchmark (``perfbench/``)
times every full convolution by tracing ``fdsim._kernels.fir_convolve``.
"""

from dataclasses import dataclass

import numpy as np


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


def _interleaved(m: np.ndarray) -> np.ndarray:
    """The real matrix that applies real ``m`` to interleaved (real, imag)
    pairs: element [2i + c, 2j + c] is m[i, j], for c = 0, 1.

    (``np.kron(m, np.eye(2))``, without its per-call overhead.)
    """
    out = np.zeros((m.shape[0], 2, m.shape[1], 2))
    out[:, 0, :, 0] = m
    out[:, 1, :, 1] = m
    return out.reshape(2 * m.shape[0], 2 * m.shape[1])


def _n_phases(n_taps: int, sps: int) -> int:
    """Phases of an ``n_taps`` filter at ``sps`` for upsampling: enough that
    the last output block reaches the last output sample."""
    return (n_taps + 2 * sps - 2) // sps


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
    p = _n_phases(len(h), sps)
    phases = _phases(h, sps, p)
    padded = np.zeros(n + 2 * (p - 1), dtype=np.complex128)
    padded[p - 1 : p - 1 + n] = symbols
    # row q: symbols q-p+1 .. q as interleaved (real, imag) pairs
    windows = _strided(padded.view(np.float64), (n + p - 1, 2 * p),
                       (padded.itemsize, padded.itemsize // 2))
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


@dataclass(frozen=True)
class PhaseSpectrum:
    """The DFTs of a filter's polyphase components, for
    ``upsample_convolve_fft``.

    Row j of ``spectra`` (read-only, ``sps`` rows of ``n_fft`` bins) is
    the DFT of taps j, j + sps, j + 2*sps, ...; ``n_taps`` is the
    filter's length.
    """

    spectra: np.ndarray
    n_taps: int


def phase_spectrum(h, sps: int, n_symbols: int) -> PhaseSpectrum:
    """The polyphase spectrum of taps ``h`` (complex allowed) at ``sps``,
    long enough to filter up to ``n_symbols`` symbols without wrap-around."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("taps must be a non-empty 1-d sequence")
    if sps < 1 or n_symbols < 1:
        raise ValueError("sps and n_symbols must be >= 1")
    p = _n_phases(len(h), sps)
    n_fft = fft_size(n_symbols + p - 1)
    spectra = np.fft.fft(_phases(h, sps, p).T, n_fft, axis=1)
    spectra.setflags(write=False)
    return PhaseSpectrum(spectra=spectra, n_taps=len(h))


def upsample_convolve_fft(symbols, spectrum: PhaseSpectrum, minus=None) -> np.ndarray:
    """``upsample_convolve`` by FFT at the symbol rate, for complex taps.

    Equals ``fir_convolve`` of the zero-stuffed stream with the taps that
    ``spectrum`` was built from, at its full length; with ``minus``
    (complex taps no longer than that filter), with those taps less
    ``minus``.  Output sample q*sps + j is symbol sequence ⊛ phase j at
    q, so one FFT of the symbols, one product with every phase's spectrum
    and one inverse FFT per phase give all of them.  The result is a view
    of the leading samples of the ``(n_fft, sps)`` buffer those FFTs run
    in, whose rows are the output blocks in order.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 1 or symbols.size == 0:
        raise ValueError("upsample_convolve_fft requires a non-empty 1-d symbol sequence")
    sps, n_fft = spectrum.spectra.shape
    p = _n_phases(spectrum.n_taps, sps)
    n_out = len(symbols) * sps + spectrum.n_taps - 1
    n_blocks = len(symbols) + p - 1
    if n_blocks > n_fft:
        raise ValueError(f"the spectrum has {n_fft} bins; {len(symbols)} symbols "
                         f"need {n_blocks}")
    blocks = np.empty((n_fft, sps), dtype=np.complex128)
    symbols_fft = np.fft.fft(symbols, n_fft)[:, None]
    if minus is None:
        np.multiply(spectrum.spectra.T, symbols_fft, out=blocks)
    else:
        minus = np.asarray(minus, dtype=np.complex128)
        if minus.ndim != 1 or minus.size > spectrum.n_taps:
            raise ValueError("minus must be a 1-d sequence no longer than the "
                             "spectrum's filter")
        np.fft.fft(_phases(minus, sps, p), n_fft, axis=0, out=blocks)
        np.subtract(spectrum.spectra.T, blocks, out=blocks)
        blocks *= symbols_fft
    np.fft.ifft(blocks, axis=0, out=blocks)
    return blocks.reshape(-1)[:n_out]
