"""Sweep driving: config parsing, Monte-Carlo aggregation, CSV emission.

Every trial derives its RNG stream from a hash of (root seed, scheme, axis
value, trial index), so sweeps are deterministic and re-runs produce
byte-identical output files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, FdsimError
from .link import INT_FIELDS, SCHEMES, LinkConfig, run_trial, trial_design
from .sigproc import SUPPORTED_ORDERS

#: Sweep axis name -> the LinkConfig field it sets.  ``mod_order`` is the
#: one axis that also moves other fields (see ``config_for_point``).
_AXIS_FIELDS = {"ebn0_db": "ebn0_db", "bandwidth_hz": "signal_bandwidth_hz",
                "p_rb_dbm": "p_rb_dbm"}
AXES = (*_AXIS_FIELDS, "mod_order")

RESULT_HEADER = ("scheme", "axis", "axis_value", "sinr_db", "ber",
                 "rate_bps_hz", "trials", "sinr_se_db", "ber_se")

_LINK_FIELDS = {f.name for f in fields(LinkConfig)}
_SWEEP_KEYS = ("axis", "values", "schemes", "trials_per_point", "root_seed")
_INT_KEYS = INT_FIELDS | {"trials_per_point", "root_seed"}


@dataclass(frozen=True)
class SweepSpec:
    base: LinkConfig
    axis: str = "ebn0_db"
    values: tuple = ()
    schemes: tuple = ("PS",)
    trials_per_point: int = 50
    root_seed: int = 0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep needs at least one axis value")
        if self.axis == "mod_order":
            bad = [v for v in self.values if v not in SUPPORTED_ORDERS]
            if bad:
                raise ConfigError(
                    f"values {bad} are not modulation orders; the mod_order "
                    f"axis takes {SUPPORTED_ORDERS}"
                )
        if not self.schemes:
            raise ConfigError("sweep needs at least one scheme")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point must be >= 1")


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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


def trial_seed(root_seed: int, scheme: str, value, trial: int) -> int:
    """Collision-free per-trial seed from the sweep coordinates."""
    tag = f"{root_seed}|{scheme}|{value!r}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "little")


def config_for_point(base: LinkConfig, scheme: str, axis: str, value) -> LinkConfig:
    """Specialize the base config for one sweep point.

    A sweep runs each scheme at its own peak-isolation carrier, so a base
    config that sets ``f_c_hz`` is rejected rather than overridden.
    """
    if base.f_c_hz is not None:
        raise ConfigError(f"f_c_hz = {base.f_c_hz:g} cannot be set in a sweep: "
                          "each scheme runs at its own peak-isolation carrier "
                          "(use f_c_hz = none)")
    cfg = replace(base, scheme=scheme)
    if axis == "mod_order":
        m = int(value)
        n_b = int(round(math.log2(m)))
        n_bits = base.n_bits - base.n_bits % n_b
        return replace(cfg, mod_order=m, n_b=n_b, n_bits=max(n_bits, n_b))
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown axis {axis!r}")
    return replace(cfg, **{_AXIS_FIELDS[axis]: float(value)})


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run all (scheme, value, trial) points, one trial design per point,
    and aggregate per point."""
    rows = []
    for scheme in spec.schemes:
        for value in spec.values:
            cfg = config_for_point(spec.base, scheme, spec.axis, value)
            sinrs, bers, rates = [], [], []
            trial = 0
            try:
                design = trial_design(cfg)
                for trial in range(spec.trials_per_point):
                    rng = np.random.default_rng(trial_seed(spec.root_seed, scheme, value, trial))
                    report = run_trial(cfg, rng, design)
                    sinrs.append(report.sinr_db)
                    bers.append(report.ber)
                    rates.append(report.rate_bps_hz)
            except Exception as exc:
                raise (ConfigError if isinstance(exc, ConfigError) else FdsimError)(
                    f"{exc} [scheme={scheme}, {spec.axis}={value}, trial={trial}]"
                ) from exc
            n = spec.trials_per_point
            sinrs, bers, rates = np.array(sinrs), np.array(bers), np.array(rates)
            rows.append(SweepRow(
                scheme=scheme, axis=spec.axis, axis_value=float(value),
                sinr_db=float(np.mean(sinrs)), ber=float(np.mean(bers)),
                rate_bps_hz=float(np.mean(rates)), trials=n,
                sinr_se_db=float(np.std(sinrs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                ber_se=float(np.std(bers, ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            ))
    return SweepResult(rows=tuple(rows))


def _parse_value(key: str, raw: str):
    try:
        if key == "scheme":
            return raw
        if key == "schemes":
            return tuple(s.strip() for s in raw.split(","))
        if key == "axis":
            return raw
        if key == "values":
            return tuple(float(v) for v in raw.split(","))
        if key == "f_c_hz" and raw.lower() == "none":
            return None
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None


def parse_config(source) -> SweepSpec:
    """Parse a flat ``key = value`` config into a SweepSpec.

    ``source`` is a path or an already-split mapping.  Absent keys fall
    back to the defaults; unknown keys are rejected.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        raw = {}
        with open(source) as fh:
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
    link_kwargs, sweep_kwargs = {}, {}
    for key, value in raw.items():
        parsed = _parse_value(key, value) if isinstance(value, str) else value
        if key in _LINK_FIELDS:
            link_kwargs[key] = parsed
        elif key in _SWEEP_KEYS:
            sweep_kwargs[key] = parsed
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    base = LinkConfig(**link_kwargs)
    sweep_kwargs.setdefault("axis", "ebn0_db")
    sweep_kwargs.setdefault("values", (base.ebn0_db,))
    sweep_kwargs.setdefault("schemes", (base.scheme,))
    return SweepSpec(base=base, **sweep_kwargs)


def emit_config(spec: SweepSpec) -> str:
    """Serialize a SweepSpec back to the flat config format."""
    lines = []
    for f in fields(LinkConfig):
        value = getattr(spec.base, f.name)
        if value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    lines.append(f"axis = {spec.axis}")
    lines.append("values = " + ",".join(repr(float(v)) for v in spec.values))
    lines.append("schemes = " + ",".join(spec.schemes))
    lines.append(f"trials_per_point = {spec.trials_per_point}")
    lines.append(f"root_seed = {spec.root_seed}")
    return "\n".join(lines) + "\n"


def write_results(result: SweepResult, path) -> None:
    """Emit the sweep CSV with full float precision and LF line endings."""
    lines = [",".join(RESULT_HEADER)]
    for row in result.rows:
        lines.append(",".join([
            row.scheme, row.axis, repr(row.axis_value), repr(row.sinr_db),
            repr(row.ber), repr(row.rate_bps_hz), str(row.trials),
            repr(row.sinr_se_db), repr(row.ber_se),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_results(path) -> SweepResult:
    """Inverse of write_results for the numeric fields."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(RESULT_HEADER):
            raise ConfigError(f"{path}: unexpected result header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(RESULT_HEADER):
                raise ConfigError(f"{path}: malformed row {line!r}")
            rows.append(SweepRow(
                scheme=parts[0], axis=parts[1], axis_value=float(parts[2]),
                sinr_db=float(parts[3]), ber=float(parts[4]),
                rate_bps_hz=float(parts[5]), trials=int(parts[6]),
                sinr_se_db=float(parts[7]), ber_se=float(parts[8]),
            ))
    return SweepResult(rows=tuple(rows))
