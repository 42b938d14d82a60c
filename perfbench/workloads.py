"""The benchmark's workloads.

Each workload is one ``harness.run_sweep`` call at a stated size.  The
benchmark's ``--seed`` becomes the sweep's ``root_seed``; fdsim receives
only the generated ``SweepSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed whose rows are compared with the committed golden rows.
DEFAULT_SEED = 1

SCHEMES = ("PS", "AC", "PS+B", "AC+B")


@dataclass(frozen=True)
class Workload:
    why: str
    axis: str
    values: tuple
    trials_per_point: int
    base: tuple = ()  # LinkConfig overrides as (field, value) pairs


WORKLOADS = {
    # The ROADMAP reference sweep at the default 10 MHz config (sps = 2):
    # many short trials, so fixed per-trial costs (LS solve, SRRC redesign,
    # RNG set-up) dominate, and caching or batching shows here.
    "sweep-ebn0": Workload(
        why="reference sweep at 10 MHz: 1400 short trials dominated by fixed "
            "per-trial costs (LS solve, SRRC redesign), where caching and "
            "batching show",
        axis="ebn0_db", values=(0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 90.0),
        trials_per_point=50),
    # 0.5 MHz at 20 MHz sampling (sps = 40): 40k-sample waveforms, so FIR
    # convolution dominates and the LS solve is a small share.
    "narrowband": Workload(
        why="0.5 MHz (sps 40): 104 long trials dominated by FIR convolution, "
            "where kernel work shows and batched LS should change nothing",
        axis="ebn0_db", values=(20.0, 90.0), trials_per_point=13,
        base=(("signal_bandwidth_hz", 0.5e6),)),
    # Every point designs new SRRC taps and a new training waveform with
    # few trials to amortise them, and kernels run at intermediate lengths.
    "sweep-bandwidth": Workload(
        why="bandwidth axis 10 to 1 MHz (sps 2 to 20): new taps and training "
            "per point with few trials, so per-point design cost and kernel "
            "crossovers show",
        axis="bandwidth_hz", values=(10e6, 5e6, 4e6, 2e6, 1e6),
        trials_per_point=10),
}


def build_spec(name: str, seed: int, trials_per_point: int | None = None):
    """The ``SweepSpec`` of workload ``name`` with ``root_seed = seed``.

    ``trials_per_point`` overrides the stated size for smoke runs.
    """
    from fdsim import harness, link

    w = WORKLOADS[name]
    return harness.SweepSpec(
        base=link.LinkConfig(**dict(w.base)), axis=w.axis, values=w.values,
        schemes=SCHEMES,
        trials_per_point=trials_per_point or w.trials_per_point,
        root_seed=seed)
