"""Command-line interface.

Subcommands: ``run`` (single trial), ``sweep`` (run a sweep spec file),
``synthesize-profile`` (emit a synthesized PS/AC profile CSV), and
``derive-channel`` (profile CSV to baseband tap CSV).
Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import channel, harness, link
from .errors import ConfigError, FdsimError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fdsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single full-duplex trial")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--scheme", choices=link.SCHEMES)
    run.add_argument("--seed", type=int, help="override root seed")
    run.add_argument("--out", help="write a one-row result CSV here")
    run.add_argument("--verbose", action="store_true")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--config", required=True, help="sweep spec file")
    sweep.add_argument("--seed", type=int, help="override root seed")
    sweep.add_argument("--trials", type=int, help="override trials per point")
    sweep.add_argument("--scheme", choices=link.SCHEMES,
                       help="restrict the sweep to one scheme")
    sweep.add_argument("--out", required=True, help="result CSV path")
    sweep.add_argument("--verbose", action="store_true")

    synth = sub.add_parser("synthesize-profile",
                           help="emit a synthesized isolation/phase profile CSV")
    synth.add_argument("--scheme", required=True, choices=tuple(channel.SCHEME_SHAPES))
    synth.add_argument("--out", required=True)

    derive = sub.add_parser("derive-channel",
                            help="convert a profile CSV to baseband tap CSV")
    derive.add_argument("profile", help="input profile CSV")
    derive.add_argument("--config", help="optional config file for f_c/Fs/B_H/n_taps")
    derive.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    spec = harness.parse_config(args.config) if args.config else harness.parse_config({})
    if args.seed is not None:
        spec = replace(spec, root_seed=args.seed)
    cfg = spec.base
    if args.scheme:
        cfg = replace(cfg, scheme=args.scheme)
    report = link.run_trial(cfg, np.random.default_rng(spec.root_seed))
    print(f"scheme          : {cfg.scheme}")
    print(f"sinr_db         : {report.sinr_db:.4f}")
    print(f"ber             : {report.ber:.6g}")
    print(f"rate_bps_hz     : {report.rate_bps_hz:.4f}")
    print(f"residual_dbm    : {report.residual_power_dbm:.4f}")
    if report.estimate_error_db is not None:
        print(f"estimate_err_db : {report.estimate_error_db:.4f}")
    if args.verbose:
        print(f"config          : {cfg}")
    if args.out:
        row = harness.point_row(cfg.scheme, "ebn0_db", cfg.ebn0_db, [report])
        harness.write_results(harness.SweepResult(rows=(row,)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = harness.parse_config(args.config)
    if args.seed is not None:
        spec = replace(spec, root_seed=args.seed)
    if args.trials is not None:
        spec = replace(spec, trials_per_point=args.trials)
    if args.scheme is not None:
        spec = replace(spec, schemes=(args.scheme,))
    # the CSV is written after the last trial: check its path before the first
    if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise OSError(f"cannot write {args.out}: it is a directory or its directory is missing")
    result = harness.run_sweep(spec)
    harness.write_results(result, args.out)
    if args.verbose:
        for row in result.rows:
            print(f"{row.scheme:5s} {row.axis}={row.axis_value:g} "
                  f"sinr={row.sinr_db:.2f} dB  ber={row.ber:.3g}  "
                  f"rate={row.rate_bps_hz:.3f}")
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_synthesize(args) -> int:
    profile = channel.synthesize_profile(args.scheme)
    channel.save_profile(profile, args.out)
    print(f"wrote {len(profile.freqs_hz)}-point {args.scheme} profile to {args.out}")
    return 0


def _cmd_derive(args) -> int:
    profile = channel.load_profile(args.profile)
    spec = harness.parse_config(args.config) if args.config else harness.parse_config({})
    cfg = spec.base
    f_c = cfg.f_c_hz
    if f_c is None:  # the profile grid's midpoint
        f_c = 0.5 * (profile.freqs_hz[0] + profile.freqs_hz[-1])
    chan = channel.derive_baseband_channel(profile, f_c, cfg.channel_bandwidth_hz,
                                           cfg.sample_rate_hz, cfg.n_taps)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "real", "imag"])
        for i, tap in enumerate(chan.taps):
            writer.writerow([i, repr(float(np.real(tap))), repr(float(np.imag(tap)))])
    print(f"wrote {len(chan.taps)} taps to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "synthesize-profile": _cmd_synthesize,
    "derive-channel": _cmd_derive,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"fdsim: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"fdsim: config error: {exc}", file=sys.stderr)
        return 1
    except (FdsimError, MemoryError, OSError, ValueError) as exc:
        print(f"fdsim: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
