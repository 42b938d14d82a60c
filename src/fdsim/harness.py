"""Sweep driving: config parsing, Monte-Carlo aggregation, CSV emission.

Every trial derives its RNG stream from a hash of (root seed, scheme, axis
value, trial index), so sweeps are deterministic and re-runs produce
byte-identical output files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, FdsimError
from .link import (BACKGROUND_NOISE_SAMPLES, SCHEMES, LinkConfig, TrialDraws, check_field_types,
                   draw_trial, run_trial, trial_design)
from .sigproc import SUPPORTED_ORDERS

#: Sweep axis name -> the LinkConfig field it sets.  ``mod_order`` is the
#: one axis that also moves another field (see ``config_for_point``).
_AXIS_FIELDS = {"ebn0_db": "ebn0_db", "bandwidth_hz": "signal_bandwidth_hz",
                "p_rb_dbm": "p_rb_dbm", "mod_order": "mod_order"}
AXES = tuple(_AXIS_FIELDS)


@dataclass(frozen=True)
class SweepSpec:
    base: LinkConfig
    axis: str = "ebn0_db"
    values: tuple[float, ...] = ()
    schemes: tuple[str, ...] = ("PS",)
    trials_per_point: int = 50
    root_seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        # +inf is the noise-free link; no other axis takes an infinity
        if not self.values or len(set(self.values)) < len(self.values) or any(
                v != v or abs(v) == math.inf and (self.axis != "ebn0_db" or v < 0)
                for v in self.values):
            raise ConfigError(f"values must be one or more distinct finite points (+inf "
                              f"too on the ebn0_db axis), got {self.values}")
        if self.axis == "mod_order":
            bad = [v for v in self.values if v not in SUPPORTED_ORDERS]
            if bad:
                raise ConfigError(
                    f"values {bad} are not modulation orders; the mod_order "
                    f"axis takes {SUPPORTED_ORDERS}"
                )
        if not self.schemes or len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must be one or more distinct schemes, got "
                              f"{self.schemes}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point must be >= 1")
        if self.root_seed < 0:
            raise ConfigError(f"root_seed must be >= 0, got {self.root_seed}")


#: The config-file keys: the ``LinkConfig``, then the ``SweepSpec`` fields.
_CONFIG_FIELDS = {f.name: f for f in fields(LinkConfig) + fields(SweepSpec)
                  if f.name != "base"}


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    axis: str
    axis_value: float
    sinr_db: float
    ber: float
    rate_bps_hz: float
    trials: int
    sinr_se_db: float
    ber_se: float


RESULT_HEADER = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


def trial_seed(root_seed: int, scheme: str, value, trial: int) -> int:
    """Collision-free per-trial seed from the sweep coordinates; the axis
    value is hashed as a float plus 0.0, so ``10`` and ``10.0`` seed alike,
    and so do ``-0.0`` and ``0.0``."""
    tag = f"{root_seed}|{scheme}|{float(value) + 0.0!r}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "little")


def config_for_point(base: LinkConfig, scheme: str, axis: str, value) -> LinkConfig:
    """Specialize the base config for one sweep point.

    A sweep runs each scheme at its own peak-isolation carrier, so a base
    config that sets ``f_c_hz`` is rejected rather than overridden.  On the
    ``mod_order`` axis the point runs ``max(n_bits - n_bits % n_b, n_b)``
    bits, the base's ``n_bits`` rounded down to a multiple of the order's
    ``n_b`` bits per symbol but at least one symbol: a 2000-bit base runs
    1998 bits at 8-PSK, and a 2-bit base 4 bits at 16-PSK.
    """
    if base.f_c_hz is not None:
        raise ConfigError(f"f_c_hz = {base.f_c_hz:g} cannot be set in a sweep: "
                          "each scheme runs at its own peak-isolation carrier "
                          "(use f_c_hz = none)")
    cfg = replace(base, scheme=scheme)
    if axis == "mod_order":
        m = int(value)
        n_b = m.bit_length() - 1
        return replace(cfg, mod_order=m, n_bits=max(base.n_bits - base.n_bits % n_b, n_b))
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown axis {axis!r}")
    return replace(cfg, **{_AXIS_FIELDS[axis]: float(value)})


def point_row(scheme: str, axis: str, value, reports) -> SweepRow:
    """The result row of one sweep point: the mean of its trials' metrics,
    with the standard errors of the mean SINR and BER (0 for one trial)."""
    n = len(reports)
    sinrs, bers, rates = (np.array([getattr(r, key) for r in reports])
                          for key in ("sinr_db", "ber", "rate_bps_hz"))
    return SweepRow(
        scheme=scheme, axis=axis, axis_value=float(value) + 0.0,
        sinr_db=float(np.mean(sinrs)), ber=float(np.mean(bers)),
        rate_bps_hz=float(np.mean(rates)), trials=n,
        sinr_se_db=float(np.std(sinrs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        ber_se=float(np.std(bers, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
    )


def _at_point(exc, spec: SweepSpec, scheme: str, value, trial: int) -> FdsimError:
    """``exc`` re-raised as an fdsim error naming it and its sweep point."""
    return (ConfigError if isinstance(exc, ConfigError) else FdsimError)(
        f"{str(exc) or type(exc).__name__} [scheme={scheme}, {spec.axis}={value}, trial={trial}]")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run all (scheme, value, trial) points, one trial design per point,
    and aggregate per point.  Every point's config is built before the
    first trial runs, so an invalid point fails the sweep up front.

    The trials run in order, each from its own generator (``trial_seed``).
    A frame of ``BACKGROUND_NOISE_SAMPLES`` or more is started before the
    trial ahead runs, across points too: its draws are taken, its noise
    on the worker, into the one of two buffers the trial ahead does not
    use.  An error names its trial, and no draw outlives the sweep."""
    points = [(scheme, value) for scheme in spec.schemes for value in spec.values]
    configs, rows, reports, n = [], [], [], spec.trials_per_point
    for scheme, value in points:
        try:
            configs.append(config_for_point(spec.base, scheme, spec.axis, value))
        except Exception as exc:
            raise _at_point(exc, spec, scheme, value, 0) from exc
    jobs = [(point, trial) for point in range(len(points)) for trial in range(n)]
    buffers = [np.empty(0)] * 2  # fresh ones each trial made glibc re-fault the heap

    def start(job: int):
        # the job's generator, a long frame's draws, or what raised, raised in turn
        point, trial = jobs[job]
        cfg = configs[point]
        try:
            rng = np.random.default_rng(trial_seed(spec.root_seed, *points[point], trial))
            if cfg.frame_samples < BACKGROUND_NOISE_SAMPLES:
                return rng
            if len(buffers[job % 2]) != 2 * cfg.frame_samples:
                buffers[job % 2] = np.empty(2 * cfg.frame_samples)
            return draw_trial(cfg, rng, buffers[job % 2])
        except Exception as exc:
            return exc

    source, ahead = start(0), None
    try:
        for job, (point, trial) in enumerate(jobs):
            (scheme, value), cfg = points[point], configs[point]
            try:
                if trial == 0:
                    design = None  # the last one goes first: both at once raised peak RSS
                    design = trial_design(cfg)
                if isinstance(source, Exception):
                    raise source
                ahead = start(job + 1) if job + 1 < len(jobs) else None
                reports.append(run_trial(cfg, source, design))
            except Exception as exc:
                raise _at_point(exc, spec, scheme, value, trial) from exc
            source, ahead = ahead, None
            if trial == n - 1:
                rows.append(point_row(scheme, spec.axis, value, reports))
                reports = []
    finally:  # no draw outlives the sweep, even one that raised
        for started in (source, ahead):
            if isinstance(started, TrialDraws) and started.pending is not None:
                started.pending.wait()
    return SweepResult(rows=tuple(rows))


#: Declared field type -> parser of one value written in a config file.
_PARSERS = {"str": str, "int": int, "float": float,
            "float | None": lambda raw: None if raw.lower() == "none" else float(raw)}


def _parse_value(field, raw: str):
    """``raw`` as ``field``'s declared type; a ``tuple[T, ...]`` is a comma list."""
    try:
        if field.type.startswith("tuple["):
            parse = _PARSERS[field.type.removeprefix("tuple[").removesuffix(", ...]")]
            return tuple(parse(v.strip()) for v in raw.split(","))
        return _PARSERS[field.type](raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {field.name!r}") from None


def _format_value(value) -> str:
    """Inverse of ``_parse_value``: ``none``, floats by ``repr``, tuples joined."""
    if isinstance(value, tuple):
        return ",".join(map(_format_value, value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "none" if value is None else str(value)


def parse_config(source) -> SweepSpec:
    """Parse a flat ``key = value`` config into a SweepSpec.

    ``source`` is a path or an already-split mapping.  Absent keys fall
    back to the defaults, ``values`` to the base config's value on the
    sweep's axis; unknown keys are rejected.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        raw = {}
        try:
            with open(source, encoding="utf-8-sig") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
                    key, _, value = line.partition("=")
                    key, value = key.strip(), value.strip()
                    if key in raw:
                        raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
                    raw[key] = value
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{source}: not UTF-8 text ({exc.reason})") from None
    kwargs = {}
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        kwargs[key] = _parse_value(_CONFIG_FIELDS[key], value) if isinstance(value, str) else value
    base = LinkConfig(**{f.name: kwargs.pop(f.name) for f in fields(LinkConfig)
                         if f.name in kwargs})
    axis = kwargs.get("axis", SweepSpec.axis)
    if "values" not in kwargs and isinstance(axis, str) and axis in _AXIS_FIELDS:
        kwargs["values"] = (getattr(base, _AXIS_FIELDS[axis]),)
    kwargs.setdefault("schemes", (base.scheme,))
    return SweepSpec(base=base, **kwargs)


def emit_config(spec: SweepSpec) -> str:
    """Serialize a SweepSpec back to the flat config format."""
    values = {**asdict(spec.base), **asdict(spec)}
    return "".join(f"{key} = {_format_value(values[key])}\n" for key in _CONFIG_FIELDS)


def write_results(result: SweepResult, path) -> None:
    """Emit the sweep CSV with full float precision and LF line endings."""
    lines = [",".join(RESULT_HEADER)]
    lines += [",".join(_format_value(getattr(row, key)) for key in RESULT_HEADER)
              for row in result.rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_results(path) -> SweepResult:
    """Inverse of write_results."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != list(RESULT_HEADER):
                raise ConfigError(f"{path}: unexpected result header")
            for line in fh:
                parts = line.rstrip("\n").split(",")
                if len(parts) != len(RESULT_HEADER):
                    raise ConfigError(f"{path}: malformed row {line!r}")
                rows.append(SweepRow(*map(_parse_value, fields(SweepRow), parts)))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return SweepResult(rows=tuple(rows))
