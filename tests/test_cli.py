"""End-to-end tests of the command-line interface."""

import re
from pathlib import Path

import numpy as np
import pytest

from fdsim import channel, harness, link
from fdsim.cli import _build_parser, main
from fdsim.errors import ProfileError


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--frobnicate"]) == 1


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()
                if line.startswith("fdsim ")]
    assert len(commands) == 5
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).command == argv[1], argv


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


@pytest.mark.parametrize("scheme, sps", [
    pytest.param(scheme, sps, id=scheme if sps == 2 else f"{scheme}-sps{sps}")
    for sps in (2, 20, 40) for scheme in ("PS", "AC+B")])
def test_run_one_symbol_frame(tmp_path, capsys, scheme, sps):
    # a frame of one QPSK symbol is valid (n_bits >= n_b) and must run; at
    # high sps its SINR window would start past the desired waveform, so
    # the whole frame is measured and the SINR is finite
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"n_bits = 2\nsignal_bandwidth_hz = {20e6 / sps}\n")
    out = tmp_path / "row.csv"
    assert main(["run", "--config", str(cfg), "--scheme", scheme, "--out", str(out)]) == 0
    assert "sinr_db" in capsys.readouterr().out
    assert np.isfinite(harness.read_results(out).rows[0].sinr_db)


def test_bad_config_returns_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mod_order = 3\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_config_that_is_not_utf8_is_a_config_error_naming_the_file(tmp_path, capsys,
                                                                     command):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"n_bits = 400\nscheme = \xff\n")
    argv = [command, "--config", str(cfg)]
    assert main(argv + (["--out", str(tmp_path / "r.csv")] if command == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdsim: config error: ") and f"{cfg}: not UTF-8" in err


def test_a_profile_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    prof_path = tmp_path / "p.csv"
    prof_path.write_bytes(b"freq_hz,isolation_db,phase_deg\n2.4e9,40.0,\xff\n")
    with pytest.raises(ProfileError, match=f"{re.escape(str(prof_path))}: not UTF-8"):
        channel.load_profile(prof_path)
    taps_path = tmp_path / "taps.csv"
    assert main(["derive-channel", str(prof_path), "--out", str(taps_path)]) == 2
    assert f"fdsim: error: {prof_path}: not UTF-8" in capsys.readouterr().err
    assert not taps_path.exists()


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
    # with f_c_hz unset the band is centred on the profile grid's midpoint
    prof_path = tmp_path / "ac.csv"
    taps_path = tmp_path / "taps.csv"
    assert main(["synthesize-profile", "--scheme", "AC",
                 "--out", str(prof_path)]) == 0
    assert main(["derive-channel", str(prof_path),
                 "--out", str(taps_path)]) == 0
    lines = taps_path.read_text().splitlines()
    assert lines[0] == "index,real,imag"
    assert len(lines) == 257
    profile = channel.load_profile(prof_path)
    mid = 0.5 * (profile.freqs_hz[0] + profile.freqs_hz[-1])
    cfg = link.LinkConfig()
    expected = channel.derive_baseband_channel(profile, mid, cfg.channel_bandwidth_hz,
                                               cfg.sample_rate_hz, cfg.n_taps).taps
    rows = np.loadtxt(taps_path, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], expected)


def test_derive_channel_rejects_isolation_out_of_range(tmp_path, capsys):
    prof_path = tmp_path / "p.csv"
    prof_path.write_text("freq_hz,isolation_db,phase_deg\n"
                         "2.42e9,-4000,0.0\n2.46e9,-4000,0.0\n")
    taps_path = tmp_path / "taps.csv"
    assert main(["derive-channel", str(prof_path), "--out", str(taps_path)]) == 2
    assert "isolation_db" in capsys.readouterr().err
    assert not taps_path.exists()


HEADER = "freq_hz,isolation_db,phase_deg\n"


@pytest.mark.parametrize("text", [
    "", "f,iso,ph\n2.4e9,40.0,0.0\n", HEADER + "2.4e9,40.0,0.0\n",
    HEADER + "2.4e9,40.0,0.0\n2.5e9,41.0\n", HEADER + "2.4e9,40.0,0.0\n2.5e9,x,0.0\n",
    HEADER + "2.4e9,nan,0.0\n2.5e9,1.0,0.0\n", HEADER + "2.4e9,40.0,0.0\n2.5e9,inf,0.0\n",
    HEADER + "2.4e9,40.0,0.0\n2.4e9,41.0,0.0\n", HEADER + "2.42e9,40.0,0.0\n2.41e9,41.0,0.0\n",
    HEADER + "2.4e9,40.0,0.0\n2.5e9,-4000,0.0\n",
], ids=["empty", "header", "one-row", "two-columns", "non-numeric", "nan", "inf",
        "duplicate", "descending", "isolation"])
def test_derive_channel_exits_two_on_a_rejected_profile(tmp_path, capsys, text):
    prof_path = tmp_path / "p.csv"
    prof_path.write_text(text)
    with pytest.raises(ProfileError):
        channel.load_profile(prof_path)
    taps_path = tmp_path / "taps.csv"
    assert main(["derive-channel", str(prof_path), "--out", str(taps_path)]) == 2
    assert "fdsim: error: " in capsys.readouterr().err
    assert not taps_path.exists()


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


def _count_trials(monkeypatch) -> list:
    """Count the trials a sweep runs (``harness.run_trial`` calls)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return link.run_trial(*args)

    monkeypatch.setattr(harness, "run_trial", counted)
    return calls


def test_sweep_rejects_a_nan_value_before_any_trial(tmp_path, capsys, monkeypatch):
    calls = _count_trials(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\nvalues = 10, nan\ntrials_per_point = 1\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config error: values" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_sweep_rejects_an_out_of_range_value_before_any_trial(tmp_path, capsys,
                                                              monkeypatch):
    calls = _count_trials(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\naxis = p_rb_dbm\nvalues = -60, 2000\n"
                   "trials_per_point = 3\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: p_rb_dbm" in err and "[scheme=PS, p_rb_dbm=2000.0, trial=0]" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("where", ["missing/r.csv", "."])
def test_sweep_rejects_an_unwritable_out_before_any_trial(tmp_path, capsys, monkeypatch,
                                                          where):
    calls = _count_trials(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\nvalues = 10\ntrials_per_point = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / where)]) == 2
    assert "fdsim: error:" in capsys.readouterr().err
    assert calls == []


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
    ("estimator_order", "0"), ("estimator_order", "27"), ("estimator_order", "none"),
    ("n_taps", "256.0"), ("rolloff", "0"),
    ("span_symbols", "2"), ("signal_bandwidth_hz", "20e6"),
    ("signal_bandwidth_hz", "0"), ("root_seed", "-1"), ("n_bits", "0"),
    ("n_bits", "-2"), ("channel_bandwidth_hz", "30e6"),
    # n_b is log2(mod_order) and trials draw from root_seed: neither is a key
    ("n_b", "2"), ("seed", "0"),
])
def test_sweep_rejects_invalid_config(tmp_path, capsys, key, value):
    cfg = tmp_path / "s.cfg"
    n_bits = "" if key == "n_bits" else "n_bits = 400\n"
    cfg.write_text(f"{n_bits}trials_per_point = 1\n{key} = {value}\n")
    assert main(["sweep", "--config", str(cfg), "--scheme", "PS+B",
                 "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("axis, value", [("ebn0_db", 90.0), ("p_rb_dbm", -60.0),
                                         ("bandwidth_hz", 10e6), ("mod_order", 4.0)])
def test_sweep_values_default_to_the_base_value_on_the_axis(tmp_path, capsys, axis, value):
    assert harness.parse_config({"axis": axis}).values == (value,)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"n_bits = 400\ntrials_per_point = 1\naxis = {axis}\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = harness.read_results(out).rows
    assert (row.axis, row.axis_value) == (axis, value)


def test_run_seeds_its_trial_from_the_root_seed(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_bits = 400\nroot_seed = 3\n")
    assert main(["run", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--seed", "4"]) == 0
    assert capsys.readouterr().out != from_file
    cfg.write_text("n_bits = 400\n")
    assert main(["run", "--config", str(cfg), "--seed", "3"]) == 0
    assert capsys.readouterr().out == from_file
    report = link.run_trial(link.LinkConfig(n_bits=400), np.random.default_rng(3))
    assert f"sinr_db         : {report.sinr_db:.4f}\n" in from_file


def test_run_rejects_negative_seed(capsys):
    assert main(["run", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err


@pytest.mark.parametrize("value", ["0", "-4", "4.5", "1e400", "nan"])
def test_sweep_rejects_non_modulation_orders(tmp_path, capsys, value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"n_bits = 400\naxis = mod_order\nvalues = 4,{value}\n"
                   "trials_per_point = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "values" in err
    assert not (tmp_path / "r.csv").exists()


def test_run_rejects_order_beyond_training(tmp_path, capsys):
    # one training symbol gives (1 + 8) * 2 samples, fewer than 26 taps
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_training = 1\n")
    assert main(["run", "--config", str(cfg), "--scheme", "PS+B"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "estimator_order" in err


def test_run_rejects_a_training_matrix_above_the_bound(tmp_path, capsys):
    # a 20000271 x 26 LS matrix, rejected before the design is built
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_training = 10000000\n")
    assert main(["run", "--config", str(cfg), "--scheme", "PS+B"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "n_training" in err and "estimator_order" in err


def test_run_rejects_a_span_whose_kernel_products_are_above_the_bound(tmp_path, capsys):
    # a valid 202 255-sample frame, but block products of 101 024 x 100 001
    # entries, rejected before any of them is formed
    cfg = tmp_path / "c.cfg"
    cfg.write_text("span_symbols = 100000\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fdsim: config error: span_symbols = 100000")
    assert "Traceback" not in err


def test_run_out_of_memory_is_a_runtime_failure(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(link, "run_trial", exhausted)
    assert main(["run"]) == 2
    assert capsys.readouterr().err == "fdsim: error: MemoryError\n"


@pytest.mark.parametrize("lines", ["n_taps = 8\nn_bits = 400\n",
                                   "n_taps = 16\nestimator_order = 20\n"])
def test_run_rejects_order_beyond_channel(tmp_path, capsys, lines):
    # the replica would be longer than the frame it is subtracted from
    cfg = tmp_path / "c.cfg"
    cfg.write_text(lines)
    assert main(["run", "--config", str(cfg), "--scheme", "PS+B"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "estimator_order" in err and "n_taps" in err


@pytest.mark.parametrize("lines, key", [
    ("f_c_hz = 2.3e9\n", "f_c_hz"),
    ("sample_rate_hz = 40e6\nchannel_bandwidth_hz = 30e6\n", "channel_bandwidth_hz"),
])
def test_run_rejects_band_outside_profile(tmp_path, capsys, lines, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(lines)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_run_scheme_flag_keeps_a_configured_carrier(tmp_path, capsys):
    flagged = tmp_path / "flag.cfg"
    flagged.write_text("f_c_hz = 2.456e9\nn_bits = 400\n")
    inline = tmp_path / "inline.cfg"
    inline.write_text("f_c_hz = 2.456e9\nn_bits = 400\nscheme = AC\n")
    assert main(["run", "--config", str(flagged), "--scheme", "AC", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "f_c_hz=2456000000.0" in out
    assert main(["run", "--config", str(inline), "--verbose"]) == 0
    assert capsys.readouterr().out == out


def test_run_scheme_flag_rejects_a_carrier_outside_its_profile(tmp_path, capsys):
    # 2.44 GHz is inside PS's profile but not AC's
    cfg = tmp_path / "c.cfg"
    cfg.write_text("f_c_hz = 2.44e9\nn_bits = 400\n")
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--scheme", "AC"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "f_c_hz" in err


def test_sweep_rejects_band_outside_profile(tmp_path, capsys):
    # a sweep tunes each scheme to its peak, so only the band width can miss
    cfg = tmp_path / "s.cfg"
    cfg.write_text("sample_rate_hz = 40e6\nchannel_bandwidth_hz = 30e6\n"
                   "n_bits = 400\ntrials_per_point = 1\nschemes = PS,AC+B\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "channel_bandwidth_hz" in err
    assert "[scheme=PS, ebn0_db=90.0, trial=0]" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["2.3e9", "2.438e9"])
def test_sweep_rejects_a_set_carrier(tmp_path, capsys, value):
    # PS and AC peak at different carriers, so a sweep tunes each to its own
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"f_c_hz = {value}\nn_bits = 400\ntrials_per_point = 1\n"
                   "schemes = PS,AC\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "f_c_hz" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("p_rb_dbm", "-4000"), ("p_ta_dbm", "-4000"),
                                        ("p_ta_dbm", "4000"), ("p_rb_dbm", "4000")])
def test_run_rejects_an_unrepresentable_power(tmp_path, capsys, key, value):
    # finite powers whose linear value underflows or overflows used to fail
    # inside the trial (math domain error, ZeroDivisionError, OverflowError)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_sweep_rejects_an_unrepresentable_p_rb_dbm_value(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\naxis = p_rb_dbm\nvalues = -60,-4000\n"
                   "trials_per_point = 1\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "p_rb_dbm" in err
    assert not out.exists()


@pytest.mark.parametrize("lines", ["ebn0_db = -4000\n", "ebn0_db = 4000\n",
                                   "ebn0_db = -3000\np_rb_dbm = 1000\n"])
def test_run_rejects_an_unrepresentable_ebn0(tmp_path, capsys, lines):
    # a finite Eb/N0 whose noise variance underflows or overflows used to
    # fail inside the trial (ZeroDivisionError, OverflowError, math domain
    # error)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(lines)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "ebn0_db" in err


def test_sweep_rejects_an_unrepresentable_ebn0_value(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\naxis = ebn0_db\nvalues = 20,-4000\n"
                   "trials_per_point = 1\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "ebn0_db" in err
    assert not out.exists()


def test_run_rejects_an_overflowing_signal_bandwidth(tmp_path, capsys):
    # sample_rate_hz / signal_bandwidth_hz overflows to inf
    cfg = tmp_path / "c.cfg"
    cfg.write_text("signal_bandwidth_hz = 5e-324\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "signal_bandwidth_hz" in err
    assert "Traceback" not in err


def test_sweep_rejects_an_overflowing_bandwidth_value(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\naxis = bandwidth_hz\nvalues = 10e6,5e-324\n"
                   "trials_per_point = 1\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "signal_bandwidth_hz" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_rejects_a_bandwidth_value_whose_frame_is_too_long(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_bits = 400\naxis = bandwidth_hz\nvalues = 10e6,20.0\n"
                   "trials_per_point = 1\n")
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "signal_bandwidth_hz" in err and "n_bits" in err
    assert "Traceback" not in err
    assert not out.exists()
