"""The symbol-rate FFT filter of a link trial's self-interference.

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

``_phases``, ``_n_phases`` and ``_signal`` are shared with ``sigproc``,
whose polyphase SRRC shaping and matched filter lay out their taps in
the same phases, and ``matmul_rows`` with ``sigproc`` and
``cancellation``: every matrix product fdsim issues stays under
``MAX_PRODUCT_MACS`` but ``sigproc.modulate_psk``'s integer product of
bits and weights, which numpy runs without BLAS, and one whose single
row needs more (the +B Gram products at a large ``estimator_order``).
"""

from dataclasses import dataclass

import numpy as np

#: Most real multiply-adds (a complex one counts four) in one float64 or
#: complex128 matrix product that fdsim issues.  OpenBLAS runs a product
#: this small on the calling thread; a larger one wakes its thread pool,
#: whose workers then spin a core for ~80 ms, the core that
#: ``link.run_trial``'s noise draw runs on.
MAX_PRODUCT_MACS = 2**18


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
    """Phases of an ``n_taps`` filter at ``sps`` for upsampling: enough that
    the last output block reaches the last output sample."""
    return (n_taps + 2 * sps - 2) // sps


def _signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("the kernels take non-empty 1-d signals and taps")
    return x


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
    them; the spectrum of ``minus``'s phases is the product of
    ``spectrum.replica_dft`` with them, in ``matmul_rows`` blocks.  The
    result is a view of the leading samples of the ``(n_fft, sps)`` buffer
    those transforms run in, whose rows (the layout of the stored spectra)
    are the output blocks in order.
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
        matmul_rows(spectrum.replica_dft, _phases(minus, sps, m), blocks)
        np.subtract(spectrum.spectra, blocks, out=blocks)
        blocks *= symbols_fft
    np.fft.ifft(blocks, axis=0, out=blocks)
    return blocks.reshape(-1)[:n_out]
