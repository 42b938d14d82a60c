"""Tests for config parsing, sweeps, and result CSV round trips."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fdsim
from fdsim import cancellation, harness, link, sigproc
from fdsim.errors import ConfigError, EstimationError, FdsimError
from fdsim.harness import SweepSpec, parse_config, run_sweep
from fdsim.link import LinkConfig


def small_spec(**over):
    kw = dict(base=LinkConfig(n_bits=400), axis="ebn0_db", values=(20.0,),
              schemes=("PS",), trials_per_point=2, root_seed=7)
    kw.update(over)
    return SweepSpec(**kw)


def test_spec_stores_numpy_integers_as_int():
    spec = small_spec(trials_per_point=np.int64(2), root_seed=np.uint32(7))
    assert spec == small_spec()
    assert type(spec.trials_per_point) is int and type(spec.root_seed) is int


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


def _readme_listing(start: str, end: str) -> str:
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    return text.split(start, 1)[1].split(end, 1)[0]


def test_readme_link_defaults_are_the_config_defaults():
    listing = _readme_listing("Link keys and defaults:", "A sweep runs")
    documented = dict(re.findall(r"`(\w+)=([^`]+)`", listing))
    assert set(documented) == {f.name for f in fields(LinkConfig)}
    base = parse_config(documented).base
    for f in fields(LinkConfig):
        assert getattr(base, f.name) == getattr(LinkConfig(), f.name), f.name


def test_readme_sweep_keys_are_the_spec_fields():
    # each key in backticks, its values and rules in parentheses
    listing = re.sub(r"\([^)]*\)", "", _readme_listing("Sweep keys:", "Profile CSVs"))
    documented = re.findall(r"`(\w+)`", listing)
    assert documented == [f.name for f in fields(SweepSpec) if f.name != "base"]


def test_readme_axes_are_the_harness_axes():
    listing = _readme_listing("Sweep keys:", "Profile CSVs")
    axes = re.search(r"`axis` \(([^)]*)\)", listing).group(1)
    assert tuple(re.findall(r"`(\w+)`", axes)) == harness.AXES


@pytest.mark.parametrize("key, value", [("n_bits", 2000.0), ("root_seed", 1.5),
                                        ("trials_per_point", True),
                                        ("estimator_order", "none")])
def test_parse_rejects_a_non_integer_integer_key(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config({key: value})


#: Sweep keys of a wrong type or value: each is a ConfigError naming the key,
#: whether the spec is built in Python or parsed from a mapping.
BAD_SWEEP_KEYS = [
    ("trials_per_point", True), ("trials_per_point", 2.5),
    ("root_seed", "x"), ("root_seed", 1.5), ("root_seed", -1), ("root_seed", False),
    ("values", ("a",)), ("values", (True,)), ("values", (1.0, 2j)),
    ("schemes", ("PS", 1)),
    # a point a sweep cannot run, or runs twice
    ("values", (10.0, math.nan)), ("values", (-math.inf,)), ("values", (10.0, 10.0)),
    ("values", (10, 10.0)), ("schemes", ("PS", "AC", "PS")),
]


@pytest.mark.parametrize("key, value", BAD_SWEEP_KEYS,
                         ids=[f"{key}={value!r}" for key, value in BAD_SWEEP_KEYS])
def test_sweep_spec_rejects_a_bad_key(key, value):
    with pytest.raises(ConfigError, match=key):
        small_spec(**{key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config({"n_bits": 400, key: value})


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
    path.write_text("root_seed = 1\nroot_seed = 2\n")
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


@pytest.mark.parametrize("axis, values", [
    ("p_rb_dbm", (-60.0, math.inf)), ("bandwidth_hz", (-math.inf,)), ("mod_order", (4, 4.0)),
])
def test_sweep_spec_rejects_a_point_off_its_axis(axis, values):
    # each used to be accepted, then failed at its point or wrote a repeated row
    with pytest.raises(ConfigError, match="^values must"):
        small_spec(axis=axis, values=values)


def test_sweep_spec_takes_the_noise_free_point():
    assert small_spec(values=(10.0, math.inf)).values == (10.0, math.inf)


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


@pytest.mark.parametrize("axis, variants", [
    ("ebn0_db", ((10,), (10.0,), (np.float64(10.0),))),
    ("mod_order", ((4,), (4.0,))),
    ("ebn0_db", ((0.0,), (-0.0,))),
])
def test_trial_seeds_hash_the_axis_value_as_a_float(axis, variants):
    # by repr, which tells -0.0 from 0.0 in the written axis value
    rows = {repr(run_sweep(small_spec(axis=axis, values=v, trials_per_point=3)).rows)
            for v in variants}
    assert len(rows) == 1


def test_emitted_and_parsed_spec_gives_the_same_rows(tmp_path):
    spec = small_spec(values=(10, 20), trials_per_point=3)
    path = tmp_path / "spec.cfg"
    path.write_text(harness.emit_config(spec))
    assert run_sweep(parse_config(path)).rows == run_sweep(spec).rows


def test_one_trial_row_holds_the_trial_metrics():
    report = link.run_trial(LinkConfig(n_bits=400, ebn0_db=12.0), np.random.default_rng(2))
    row = harness.point_row("PS", "ebn0_db", 12, [report])
    assert (row.axis_value, row.trials, row.sinr_se_db, row.ber_se) == (12.0, 1, 0.0, 0.0)
    assert (row.sinr_db, row.ber, row.rate_bps_hz) == (
        report.sinr_db, report.ber, report.rate_bps_hz)


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
    # n_bits is rounded down to a multiple of n_b, but is at least n_b
    cfg = harness.config_for_point(LinkConfig(n_bits=2000), "PS", "mod_order", 8)
    assert (cfg.mod_order, cfg.n_b, cfg.n_bits) == (8, 3, 1998)
    cfg = harness.config_for_point(LinkConfig(n_bits=2), "PS", "mod_order", 16)
    assert (cfg.mod_order, cfg.n_b, cfg.n_bits) == (16, 4, 4)


def test_config_for_point_rejects_a_set_carrier():
    with pytest.raises(ConfigError, match="f_c_hz"):
        harness.config_for_point(LinkConfig(f_c_hz=2.438e9), "PS", "ebn0_db", 10)


def test_config_for_point_rejects_an_unknown_axis():
    with pytest.raises(ConfigError, match="unknown axis 'rolloff'"):
        harness.config_for_point(LinkConfig(), "PS", "rolloff", 0.5)


def test_sweep_errors_annotated_with_coordinates(monkeypatch):
    # an order the training cannot identify is rejected when the config is
    # built, so the failure is injected deep inside the trial
    def failing_training(*args):
        raise EstimationError("training signal is degenerate")

    monkeypatch.setattr(cancellation, "run_training", failing_training)
    spec = small_spec(schemes=("PS+B",))
    with pytest.raises(FdsimError, match=r"degenerate \[scheme=PS\+B.*trial=0\]"):
        run_sweep(spec)


@pytest.mark.parametrize("axis, good, bad, key", [
    ("ebn0_db", 20.0, 2000.0, "ebn0_db"),
    ("bandwidth_hz", 2e6, 3e6, "signal_bandwidth_hz"),
    ("p_rb_dbm", -60.0, 2000.0, "p_rb_dbm"),
])
def test_sweep_value_errors_name_their_point(axis, good, bad, key):
    spec = small_spec(axis=axis, values=(good, bad), schemes=("AC",))
    point = re.escape(f"[scheme=AC, {axis}={bad}, trial=0]")
    with pytest.raises(ConfigError, match=f"{key}.*{point}"):
        run_sweep(spec)


def test_sweep_error_rewrap_chains_original(monkeypatch):
    # UnicodeDecodeError cannot be rebuilt from a message alone
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def failing_trial(*args):
        raise original

    monkeypatch.setattr(harness, "run_trial", failing_trial)
    with pytest.raises(FdsimError, match=r"\[scheme=PS, ebn0_db=20.0, trial=0\]") as info:
        run_sweep(small_spec())
    assert info.value.__cause__ is original


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweep_builds_one_design_per_point(monkeypatch):
    calls = []
    _counting(monkeypatch, harness, "trial_design", calls)
    spec = small_spec(values=(10.0, 30.0, 50.0), schemes=("PS", "AC+B"))
    run_sweep(spec)
    assert len(calls) == len(spec.schemes) * len(spec.values)


def test_sweep_runs_each_trial_through_the_harness_hook(monkeypatch):
    # a benchmark times trials by wrapping harness.run_trial and keys each
    # time by the point's config, the first positional argument
    assert harness.run_trial is link.run_trial
    calls = []
    _counting(monkeypatch, harness, "run_trial", calls)
    spec = small_spec(values=(10.0, 30.0), schemes=("PS", "PS+B"))
    run_sweep(spec)
    expected = [harness.config_for_point(spec.base, s, spec.axis, v)
                for s in spec.schemes for v in spec.values
                for _ in range(spec.trials_per_point)]
    assert [args[0] for args in calls] == expected


def test_no_design_outlives_its_sweep(monkeypatch):
    # a traced sweep after an untraced one must still see every design layer
    spec = small_spec(schemes=("AC+B",), trials_per_point=1)
    hooks = [(sigproc, "srrc_taps"), (cancellation, "make_training_signal"),
             (link, "self_interference_channel"), (link, "phase_spectrum")]
    counts = []
    for _ in range(2):
        calls = {name: [] for _, name in hooks}
        with monkeypatch.context() as m:
            for module, name in hooks:
                _counting(m, module, name, calls[name])
            run_sweep(spec)
        counts.append({name: len(c) for name, c in calls.items()})
    assert counts[0] == counts[1]
    assert all(counts[1].values())


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


def test_read_rejects_a_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(harness.RESULT_HEADER) + "\nPS,ebn0_db,10.0\n")
    with pytest.raises(ConfigError, match="malformed row"):
        harness.read_results(path)


def _narrowband_rows(blas_threads: int) -> str:
    code = ("import json\n"
            "from dataclasses import astuple\n"
            "from fdsim import harness, link\n"
            "spec = harness.SweepSpec(base=link.LinkConfig(signal_bandwidth_hz=0.5e6),\n"
            "    axis='ebn0_db', values=(20.0, 90.0), schemes=link.SCHEMES,\n"
            "    trials_per_point=4, root_seed=1)\n"
            "print(json.dumps([astuple(r) for r in harness.run_sweep(spec).rows]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fdsim.__file__).parents[1]),
               OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout


def test_rows_are_byte_identical_at_one_and_two_blas_threads():
    # every product a design or a trial issues runs on the calling thread
    # (the +B pseudo-inverse too, which LAPACK's threaded SVD once formed)
    one, two = _narrowband_rows(1), _narrowband_rows(2)
    assert len(json.loads(one)) == 2 * len(link.SCHEMES)
    assert one == two
