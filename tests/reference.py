"""Sample-rate references for the +B canceller and the whole trial.

A trial subtracts its replica inside the SI spectrum at the symbol rate.
``si_less_replica`` and ``eq8_residual`` form the same signals directly
at the sample rate, from the transmitted waveform ``x``, the SI channel
taps ``h`` and the estimate ``h_hat``, with amp = sqrt(P_Ta);
``run_trial`` runs a whole trial that way, detecting with
``demodulate_psk``, a correlation slicer that shares no code with fdsim's
detector, from the random inputs ``trial_draws`` returns; ``compare_trials``
tells whether two sets of trials agree within Monte-Carlo error.
"""

import math
from typing import NamedTuple

import numpy as np

from fdsim import cancellation, link, sigproc


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


def _shape(symbols, taps: np.ndarray, sps: int) -> np.ndarray:
    """The symbols zero-stuffed to ``sps`` samples each, through ``taps``."""
    stuffed = np.zeros(len(symbols) * sps, dtype=np.complex128)
    stuffed[::sps] = symbols
    return np.convolve(stuffed, taps)


def _noise(n: int, variance: float, rng) -> np.ndarray:
    """CN(0, variance) samples: n real parts, then n imaginary parts, and
    no draw at all for zero variance."""
    if variance == 0.0:
        return np.zeros(n, dtype=np.complex128)
    scale = math.sqrt(variance / 2.0)
    re = scale * rng.standard_normal(n)
    return re + 1j * (scale * rng.standard_normal(n))


def _power(x) -> float:
    return float(np.sum(np.abs(x) ** 2))


def _db(ratio: float) -> float:
    return 10.0 * math.log10(max(ratio, 1e-300))


def psk_points(m_order: int) -> np.ndarray:
    """The M-PSK points e^{j(2*pi*k/M + pi/M)}, k = 0..M-1."""
    k = np.arange(m_order)
    return np.exp(1j * (2.0 * np.pi * k / m_order + np.pi / m_order))


def psk_bits(k, m_order: int) -> np.ndarray:
    """The bits of points k: each point's Gray label k ^ (k >> 1), most
    significant bit first."""
    labels = np.asarray(k, dtype=np.int64).reshape(-1)
    labels = labels ^ (labels >> 1)
    shifts = np.arange(m_order.bit_length() - 2, -1, -1)
    return ((labels[:, None] >> shifts) & 1).reshape(-1)


def demodulate_psk(symbols, m_order: int) -> np.ndarray:
    """The correlation slicer: each symbol z goes to the point p with the
    largest Re(z·conj(p)), the lower index on an exact tie, and then to
    that point's bits.

    It has no tolerance: Re(z·conj(p)) scales with |z|, so the decision
    does not depend on the scale, and z is never squared, so nothing
    over- or underflows before z itself would.
    """
    z = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    p = psk_points(m_order)
    corr = np.multiply.outer(z.real, p.real) + np.multiply.outer(z.imag, p.imag)
    return psk_bits(np.argmax(corr, axis=1), m_order)


class Draws(NamedTuple):
    """A trial's random inputs: the +B estimate (``None`` without +B), both
    nodes' bits, the far node's gain sqrt(p_rb)·e^{jφ} and the receiver
    noise."""

    h_hat: np.ndarray | None
    bits_a: np.ndarray
    bits_b: np.ndarray
    gain: complex
    noise: np.ndarray


def trial_draws(config, rng) -> Draws:
    """What ``link.run_trial`` draws from ``rng``, in its order: the
    training noise (+B), both nodes' bits, the far node's phase and the
    receiver noise.  The +B estimate is ``np.linalg.lstsq``'s solution of
    the noisy training burst's convolution model, built with
    ``np.convolve``."""
    sps = config.samples_per_symbol
    srrc = sigproc.srrc_taps(config.rolloff, config.span_symbols, sps).taps
    amp = _amp(config.p_ta_dbm)
    p_rb = 10.0 ** (config.p_rb_dbm / 10.0)
    # the desired signal's symbol energy is p_rb, so N0 = p_rb / n_b / (Eb/N0)
    noise_var = p_rb / config.n_b / 10.0 ** (config.ebn0_db / 10.0)
    h_hat = None
    if config.uses_baseband_cancellation:
        pattern = np.resize(cancellation.TRAINING_PATTERN, config.n_training)
        burst = _shape(sigproc.constellation(4)[pattern], srrc, sps)
        r = amp * np.convolve(burst, link.self_interference_channel(config).taps)
        r = r + _noise(len(r), noise_var, rng)
        order = config.estimator_order
        model = np.zeros((len(r), order), dtype=np.complex128)
        for j in range(order):
            model[j : j + len(burst), j] = amp * burst
        h_hat = np.linalg.lstsq(model, r, rcond=None)[0]
    bits_a = rng.integers(0, 2, size=config.n_bits)
    bits_b = rng.integers(0, 2, size=config.n_bits)
    gain = math.sqrt(p_rb) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return Draws(h_hat, bits_a, bits_b, gain, _noise(config.frame_samples, noise_var, rng))


def run_trial(config, rng):
    """``link.run_trial`` at the sample rate, on the random inputs that
    ``trial_draws`` takes from ``rng``.

    Every waveform is a zero-stuffed symbol stream through ``np.convolve``,
    the +B estimate is ``trial_draws``'s, and ``demodulate_psk`` above
    detects the symbols.  Only the SRRC taps, the SI taps, the SINR window
    and the PSK mapping are fdsim's.
    """
    sps = config.samples_per_symbol
    filt = sigproc.srrc_taps(config.rolloff, config.span_symbols, sps)
    h_aa = link.self_interference_channel(config)
    srrc, h = filt.taps, h_aa.taps
    head, tail = link._sinr_window(config, filt, h_aa)
    amp = _amp(config.p_ta_dbm)
    h_hat, bits_a, bits_b, gain, frame = trial_draws(config, rng)

    est_err_db = None
    if h_hat is not None:
        # the in-band error: the SI of one pulse less its replica, over it
        si_pulse = amp * np.convolve(srrc, h)
        replica = amp * np.convolve(srrc, h_hat)
        replica = np.pad(replica, (0, len(si_pulse) - len(replica)))
        est_err_db = _db(_power(si_pulse - replica) / _power(si_pulse))

    x_a = _shape(sigproc.modulate_psk(bits_a, config.mod_order), srrc, sps)
    s_b = sigproc.modulate_psk(bits_b, config.mod_order)
    if h_hat is None:
        frame += amp * np.convolve(x_a, h)
    else:
        frame += si_less_replica(x_a, h, h_hat, config.p_ta_dbm)
    p_residual = _power(frame[head:tail]) / (tail - head)
    desired = gain * _shape(s_b, srrc, sps)
    p_desired = _power(desired[head:tail]) / (tail - head)
    sinr_db = math.inf if p_residual == 0.0 else 10.0 * math.log10(p_desired / p_residual)
    frame[: len(desired)] += desired

    # the matched filter's output at the symbol instants, from the peak of
    # the SRRC cascade
    start = len(srrc) - 1
    symbols = np.convolve(frame, srrc)[start : start + config.n_symbols * sps : sps]
    bits_hat = demodulate_psk(symbols * np.exp(-1j * np.angle(gain)), config.mod_order)
    return link.LinkReport(sinr_db=sinr_db, ber=float(np.mean(bits_hat != bits_b)),
                           residual_power_dbm=_db(p_residual), estimate_error_db=est_err_db)


#: How many combined standard errors two sets of trials may differ by.
#: At k = 4 one metric of two equal chains is flagged with probability
#: ~6e-5 (normal approximation).
K_SE = 4.0


def compare_trials(got, want, n_bits: int, k: float = K_SE) -> dict:
    """The metrics on which two sets of per-trial reports differ by more
    than ``k`` combined standard errors, as ``{metric: message}``; empty
    when the two sets agree within Monte-Carlo error.

    ``sinr_db``: the two mean SINRs, against the root-sum-square of their
    standard errors (sample standard deviation / sqrt(trials)).

    ``ber``: the two bit error rates over ``n_bits`` bits per trial,
    against the root-sum-square of their standard errors.  Each set's is
    the binomial standard error at the rate of both sets pooled, floored
    at one error over all their bits, so that a point with no errors
    still has a nonzero tolerance; or the standard error of its per-trial
    BERs where that is larger, since a trial's bit errors are not
    independent (a +B trial's share one channel estimate: 2.4-3.4 times
    the binomial error at Eb/N0 4 dB and sps 2-40).  Each set needs at
    least two trials.
    """
    if min(len(got), len(want)) < 2:
        raise ValueError("each set needs at least two trials")
    flagged = {}
    sinrs = [np.array([r.sinr_db for r in reports]) for reports in (got, want)]
    se = math.sqrt(sum(np.var(s, ddof=1) / len(s) for s in sinrs))
    diff = float(np.mean(sinrs[0]) - np.mean(sinrs[1]))
    if abs(diff) > k * se:
        flagged["sinr_db"] = f"mean SINR differs by {diff:.4g} dB; {k} SE = {k * se:.4g} dB"
    bers = [np.array([r.ber for r in reports]) for reports in (got, want)]
    n_total = n_bits * (len(got) + len(want))
    pooled = max(float(np.sum(np.concatenate(bers))) * n_bits / n_total, 1.0 / n_total)
    se = math.sqrt(sum(max(pooled * (1.0 - pooled) / (n_bits * len(b)),
                           np.var(b, ddof=1) / len(b)) for b in bers))
    diff = float(np.mean(bers[0]) - np.mean(bers[1]))
    if abs(diff) > k * se:
        flagged["ber"] = f"BER differs by {diff:.4g}; {k} SE = {k * se:.4g}"
    return flagged
