"""Tests for the single-trial orchestration and link metrics."""

import math

import numpy as np
import pytest

from fdsim import link
from fdsim.errors import ConfigError
from fdsim.link import LinkConfig, LinkReport, run_trial


def test_config_rejects_inconsistent_modulation():
    with pytest.raises(ConfigError):
        LinkConfig(n_b=2, mod_order=8)


def test_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        LinkConfig(scheme="XY")


def test_config_rejects_non_integer_oversampling():
    with pytest.raises(ConfigError):
        LinkConfig(signal_bandwidth_hz=7e6)


def test_config_rejects_bandwidth_above_rate():
    with pytest.raises(ConfigError):
        LinkConfig(signal_bandwidth_hz=40e6)


def test_config_rejects_indivisible_bits():
    with pytest.raises(ConfigError):
        LinkConfig(n_bits=2001)


def test_config_rejects_order_beyond_training():
    # (1 + 8) * 2 = 18 training samples cannot identify the default 26 taps
    with pytest.raises(ConfigError, match="estimator_order"):
        LinkConfig(scheme="PS+B", n_training=1)
    LinkConfig(scheme="PS", n_training=1)  # no canceller, nothing to identify
    LinkConfig(scheme="PS+B", n_training=1, estimator_order=18)


def test_scheme_default_carriers():
    assert LinkConfig(scheme="PS").carrier_hz == pytest.approx(2.438e9)
    assert LinkConfig(scheme="AC+B").carrier_hz == pytest.approx(2.457e9)
    assert LinkConfig(scheme="PS", f_c_hz=2.44e9).carrier_hz == 2.44e9


def test_report_enforces_rate_consistency():
    with pytest.raises(ValueError):
        LinkReport(sinr_db=10.0, ber=0.0, rate_bps_hz=1.0,
                   residual_power_dbm=-100.0, estimate_error_db=None,
                   config=LinkConfig())


def test_ber_counts_flips():
    a = np.zeros(2000, dtype=int)
    b = a.copy()
    b[[5, 100, 1999]] = 1
    assert link.ber(a, b) == pytest.approx(0.0015)
    assert link.ber(a, a) == 0.0
    assert link.ber(a, 1 - a) == 1.0


def test_ber_rejects_length_mismatch():
    with pytest.raises(ValueError):
        link.ber([0, 1], [0])


def test_sinr_definition():
    a = np.full(100, 1e-3 + 0j)
    assert link.sinr(a, a) == pytest.approx(0.0, abs=1e-12)
    d = np.full(100, 1e-3 + 0j)   # -60 dBm
    r = np.full(100, 1e-4 + 0j)   # -80 dBm
    assert link.sinr(d, r) == pytest.approx(20.0, abs=1e-9)


def test_sinr_zero_residual_is_infinite():
    d = np.ones(10, dtype=complex)
    assert link.sinr(d, np.zeros(10, dtype=complex)) == math.inf


def test_sinr_rejects_window_mismatch():
    with pytest.raises(ValueError):
        link.sinr(np.ones(4, dtype=complex), np.ones(5, dtype=complex))


def test_ebn0_to_noise_variance():
    assert link.ebn0_to_noise_variance(0.0, 1.0, 1, 1) == pytest.approx(1.0)
    one = link.ebn0_to_noise_variance(12.0, 1.0, 1, 2)
    two = link.ebn0_to_noise_variance(12.0, 1.0, 2, 2)
    assert two == pytest.approx(one / 2.0)
    assert link.ebn0_to_noise_variance(math.inf, 1.0, 2, 2) == 0.0


def test_noiseless_trial_is_error_free():
    # long training and full-order estimator make the LS estimate exact
    cfg = LinkConfig(scheme="PS+B", ebn0_db=math.inf, n_training=128,
                     estimator_order=256)
    rep = run_trial(cfg, np.random.default_rng(5))
    assert rep.ber == 0.0
    # residual is numerical dust relative to the SI power
    assert rep.sinr_db > 200.0
    assert rep.estimate_error_db < -200.0


def test_trial_deterministic_for_seed():
    cfg = LinkConfig(scheme="AC+B", ebn0_db=30.0, seed=9)
    a = run_trial(cfg)
    b = run_trial(cfg)
    assert a == b


def test_noise_only_residual_hits_noise_floor():
    # without self-interference the residual is pure noise, so the SINR
    # lands on P_Rb / sigma_z^2 (equal to Eb/N0 at the QPSK defaults)
    cfg = LinkConfig(scheme="PS", p_ta_dbm=-400.0, ebn0_db=20.0, n_bits=20000)
    vals = [run_trial(cfg, np.random.default_rng(40 + t)).sinr_db
            for t in range(5)]
    assert np.mean(vals) == pytest.approx(20.0, abs=0.3)


def test_rf_only_schemes_skip_training():
    rep = run_trial(LinkConfig(scheme="PS", ebn0_db=30.0))
    assert rep.estimate_error_db is None
    rep_b = run_trial(LinkConfig(scheme="PS+B", ebn0_db=30.0))
    assert rep_b.estimate_error_db is not None


def test_baseband_cancellation_beats_rf_only():
    g_ps = run_trial(LinkConfig(scheme="PS", ebn0_db=30.0),
                     np.random.default_rng(1)).sinr_db
    g_psb = run_trial(LinkConfig(scheme="PS+B", ebn0_db=30.0),
                      np.random.default_rng(1)).sinr_db
    assert g_psb > g_ps + 20.0


def test_gain_ratios_zero_for_identical_sinr():
    reports = {}
    for scheme in link.SCHEMES:
        cfg = LinkConfig(scheme=scheme)
        reports[scheme] = LinkReport(sinr_db=7.0, ber=0.01,
                                     rate_bps_hz=link.rate_from_sinr_db(7.0),
                                     residual_power_dbm=-70.0,
                                     estimate_error_db=None, config=cfg)
    ratios = link.sinr_gain_ratios(reports)
    assert all(v == pytest.approx(0.0) for v in ratios.values())


def test_gain_ratios_require_comparable_configs():
    reports = {}
    for scheme in link.SCHEMES:
        ebn0 = 10.0 if scheme == "PS" else 20.0
        cfg = LinkConfig(scheme=scheme, ebn0_db=ebn0)
        reports[scheme] = LinkReport(sinr_db=7.0, ber=0.01,
                                     rate_bps_hz=link.rate_from_sinr_db(7.0),
                                     residual_power_dbm=-70.0,
                                     estimate_error_db=None, config=cfg)
    with pytest.raises(ValueError):
        link.sinr_gain_ratios(reports)


def test_gain_ratios_require_all_schemes():
    with pytest.raises(ValueError):
        link.sinr_gain_ratios({})


def test_rate_difference_formula():
    def report(scheme, sinr_db):
        return LinkReport(sinr_db=sinr_db, ber=0.0,
                          rate_bps_hz=link.rate_from_sinr_db(sinr_db),
                          residual_power_dbm=-100.0, estimate_error_db=None,
                          config=LinkConfig(scheme=scheme))
    dr = link.rate_difference(report("PS+B", 15.0), report("AC+B", 7.0))
    expected = math.log2(1 + 10**1.5) - math.log2(1 + 10**0.7)
    assert dr == pytest.approx(expected, abs=1e-12)
    assert link.rate_difference(report("PS+B", 9.0), report("AC+B", 9.0)) == 0.0
