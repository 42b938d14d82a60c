"""The FIR convolution kernel.

The simulator spends nearly all of its time in complex FIR convolutions
(pulse shaping, channel application, cancellation, matched filtering).
``fir_convolve`` is the one convolution path they all share.  The module
keeps its name because the stage benchmark (``perfbench/``) times every
convolution by tracing ``fdsim._kernels.fir_convolve``.
"""

import numpy as np


def fir_convolve(x, h):
    """Full linear convolution of two 1-d sequences, complex128 output."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    h = np.ascontiguousarray(h, dtype=np.complex128)
    if x.size == 0 or h.size == 0:
        raise ValueError("fir_convolve requires non-empty inputs")
    return np.convolve(x, h)
