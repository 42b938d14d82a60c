"""Tests for config parsing, sweeps, and result CSV round trips."""

import numpy as np
import pytest

from fdsim import cancellation, harness
from fdsim.errors import ConfigError, EstimationError, FdsimError
from fdsim.harness import SweepSpec, parse_config, run_sweep
from fdsim.link import LinkConfig


def small_spec(**over):
    kw = dict(base=LinkConfig(n_bits=400), axis="ebn0_db", values=(20.0,),
              schemes=("PS",), trials_per_point=2, root_seed=7)
    kw.update(over)
    return SweepSpec(**kw)


def test_empty_config_gives_table_defaults():
    spec = parse_config({})
    cfg = spec.base
    assert cfg.n_b == 2
    assert cfg.mod_order == 4
    assert cfg.n_bits == 2000
    assert cfg.n_training == 5
    assert cfg.sample_rate_hz == 20e6
    assert cfg.signal_bandwidth_hz == 10e6
    assert cfg.p_ta_dbm == 0.0
    assert cfg.p_rb_dbm == -60.0


def test_parse_rejects_bad_modulation():
    with pytest.raises(ConfigError):
        parse_config({"mod_order": "3"})


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config({"bogus_key": "1"})


def test_parse_file_round_trip(tmp_path):
    spec = small_spec(values=(10.0, 20.0), schemes=("PS", "AC+B"))
    path = tmp_path / "sweep.cfg"
    path.write_text(harness.emit_config(spec))
    back = parse_config(path)
    assert back == spec


def test_parse_file_rejects_duplicate_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_file_ignores_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\nebn0_db = 12.5  # inline\n\n")
    assert parse_config(path).base.ebn0_db == 12.5


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(values=())
    with pytest.raises(ConfigError):
        small_spec(axis="nope")
    with pytest.raises(ConfigError):
        small_spec(schemes=("QQ",))
    with pytest.raises(ConfigError):
        small_spec(trials_per_point=0)


def test_single_point_sweep_has_one_row():
    result = run_sweep(small_spec())
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.scheme == "PS"
    assert row.trials == 2
    assert np.isfinite(row.sinr_db)


def test_sweep_deterministic():
    a = run_sweep(small_spec())
    b = run_sweep(small_spec())
    assert a == b


def test_trial_seeds_distinct():
    seeds = {harness.trial_seed(0, s, v, t)
             for s in ("PS", "AC") for v in (1.0, 2.0) for t in range(5)}
    assert len(seeds) == 20


def test_config_for_point_bandwidth_axis():
    cfg = harness.config_for_point(LinkConfig(), "AC+B", "bandwidth_hz", 2e6)
    assert cfg.signal_bandwidth_hz == 2e6
    assert cfg.sample_rate_hz == 20e6  # F_s stays fixed
    assert cfg.scheme == "AC+B"


def test_config_for_point_p_rb_dbm_axis():
    cfg = harness.config_for_point(LinkConfig(), "PS", "p_rb_dbm", -50)
    assert cfg.p_rb_dbm == -50.0
    assert "p_rb_dbm" in harness.AXES


def test_config_for_point_mod_order_axis():
    cfg = harness.config_for_point(LinkConfig(n_bits=2000), "PS", "mod_order", 8)
    assert cfg.mod_order == 8
    assert cfg.n_b == 3
    assert cfg.n_bits % 3 == 0


def test_sweep_errors_annotated_with_coordinates(monkeypatch):
    # an order the training cannot identify is rejected when the config is
    # built, so the failure is injected deep inside the trial
    def failing_training(*args):
        raise EstimationError("training signal is degenerate")

    monkeypatch.setattr(cancellation, "run_training", failing_training)
    spec = small_spec(schemes=("PS+B",))
    with pytest.raises(FdsimError, match=r"degenerate \[scheme=PS\+B.*trial=0\]"):
        run_sweep(spec)


def test_sweep_error_rewrap_chains_original(monkeypatch):
    # UnicodeDecodeError cannot be rebuilt from a message alone
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def failing_trial(cfg, rng):
        raise original

    monkeypatch.setattr(harness, "run_trial", failing_trial)
    with pytest.raises(FdsimError, match=r"\[scheme=PS, ebn0_db=20.0, trial=0\]") as info:
        run_sweep(small_spec())
    assert info.value.__cause__ is original


def test_write_read_round_trip(tmp_path):
    result = run_sweep(small_spec(values=(10.0, 30.0)))
    path = tmp_path / "out.csv"
    harness.write_results(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,axis,axis_value,sinr_db,ber,rate_bps_hz,trials,sinr_se_db,ber_se"
    assert len(lines) == 3
    back = harness.read_results(path)
    assert back == result


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ConfigError):
        harness.read_results(path)
