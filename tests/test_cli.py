"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from fdsim import channel, harness
from fdsim.cli import main


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--frobnicate"]) == 1


def test_run_defaults(capsys):
    assert main(["run", "--scheme", "PS", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "sinr_db" in out and "ber" in out


def test_run_writes_result_csv(tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert main(["run", "--scheme", "AC", "--out", str(out)]) == 0
    rows = harness.read_results(out).rows
    assert len(rows) == 1
    assert rows[0].scheme == "AC"


def test_run_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("ebn0_db = 25\nn_bits = 400\nscheme = PS+B\n")
    assert main(["run", "--config", str(cfg), "--verbose"]) == 0
    assert "estimate_err_db" in capsys.readouterr().out


def test_bad_config_returns_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mod_order = 3\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_profile_returns_two(tmp_path, capsys):
    out = tmp_path / "taps.csv"
    assert main(["derive-channel", str(tmp_path / "nope.csv"),
                 "--out", str(out)]) == 2


def test_synthesize_profile_csv(tmp_path, capsys):
    out = tmp_path / "ps.csv"
    assert main(["synthesize-profile", "--scheme", "PS", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "freq_hz,isolation_db,phase_deg"
    prof = channel.load_profile(out)
    assert np.max(prof.isolation_db) > 50.0


def test_derive_channel_from_profile(tmp_path, capsys):
    prof_path = tmp_path / "ac.csv"
    taps_path = tmp_path / "taps.csv"
    assert main(["synthesize-profile", "--scheme", "AC",
                 "--out", str(prof_path)]) == 0
    assert main(["derive-channel", str(prof_path),
                 "--out", str(taps_path)]) == 0
    lines = taps_path.read_text().splitlines()
    assert lines[0] == "index,real,imag"
    assert len(lines) == 257


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\naxis = ebn0_db\nvalues = 10,20\n"
                   "schemes = PS,PS+B\ntrials_per_point = 2\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--verbose"]) == 0
    rows = harness.read_results(out).rows
    assert len(rows) == 4
    assert {r.scheme for r in rows} == {"PS", "PS+B"}


def test_sweep_overrides(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\nvalues = 15\nschemes = PS,AC\n"
                   "trials_per_point = 3\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--scheme", "PS", "--trials", "1", "--seed", "5"]) == 0
    rows = harness.read_results(out).rows
    assert len(rows) == 1
    assert rows[0].trials == 1


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\nvalues = 10,20\nschemes = PS+B\n"
                   "trials_per_point = 2\nroot_seed = 11\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("key, value", [
    ("ebn0_db", "nan"), ("ebn0_db", "-inf"), ("p_ta_dbm", "inf"),
    ("f_c_hz", "nan"), ("n_taps", "100"), ("n_training", "0"),
    ("estimator_order", "0"), ("estimator_order", "27"), ("rolloff", "0"),
    ("span_symbols", "2"), ("signal_bandwidth_hz", "20e6"),
    ("signal_bandwidth_hz", "0"),
])
def test_sweep_rejects_invalid_config(tmp_path, capsys, key, value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"n_bits = 400\ntrials_per_point = 1\n{key} = {value}\n")
    assert main(["sweep", "--config", str(cfg), "--scheme", "PS+B",
                 "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_run_rejects_order_beyond_training(tmp_path, capsys):
    # one training symbol gives (1 + 8) * 2 samples, fewer than 26 taps
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_training = 1\n")
    assert main(["run", "--config", str(cfg), "--scheme", "PS+B"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "estimator_order" in err
