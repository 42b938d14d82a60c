"""Sample-rate reference for the +B canceller.

A trial subtracts its replica inside the SI spectrum at the symbol rate.
The functions here form the same signals directly at the sample rate,
from the transmitted waveform ``x``, the SI channel taps ``h`` and the
estimate ``h_hat``, with amp = sqrt(P_Ta).
"""

import math

import numpy as np


def _amp(p_ta_dbm: float) -> float:
    return math.sqrt(10.0 ** (p_ta_dbm / 10.0))


def si_less_replica(x, h, h_hat, p_ta_dbm: float) -> np.ndarray:
    """amp·(x ⊛ h) − amp·(x ⊛ ĥ): the SI less its replica, the shorter of
    the two zero-padded to the longer."""
    si = _amp(p_ta_dbm) * np.convolve(x, h)
    replica = _amp(p_ta_dbm) * np.convolve(x, h_hat)
    out = np.zeros(max(len(si), len(replica)), dtype=np.complex128)
    out[: len(si)] = si
    out[: len(replica)] -= replica
    return out


def eq8_residual(x, h, h_hat, p_ta_dbm: float) -> np.ndarray:
    """amp·(x ⊛ (h − ĥ)), the residual of the paper's Eq. 8, with the
    shorter of h and ĥ zero-padded to the longer."""
    err = np.zeros(max(len(h), len(h_hat)), dtype=np.complex128)
    err[: len(h)] = h
    err[: len(h_hat)] -= h_hat
    return _amp(p_ta_dbm) * np.convolve(x, err)
