"""Shared infrastructure for the paper-reproduction experiments.

Every module in :mod:`repro.experiments` regenerates one table or figure of
the paper.  Experiments run at a configurable *scale*:

* ``paper`` — the full 128 ToRs x 8 ports, 30 ms runs of section 4.1.  Exact
  but slow in pure Python (hours for the load sweeps).
* ``small`` — 32 ToRs x 4 ports, ~1.2 ms runs.  The default: every effect the
  paper reports is visible at this size, and the whole benchmark suite runs
  in minutes.
* ``tiny`` — 16 ToRs x 4 ports, sub-millisecond runs, for smoke testing.
* ``micro`` — 8 ToRs x 2 ports, 80 us runs: the golden-baseline scale the
  regression digests under tests/golden/ are recorded at.

Select with the ``REPRO_SCALE`` environment variable.  All scales keep the
paper's 2x uplink speedup by deriving the host-aggregate bandwidth from the
port count (``S * 100 / 2`` Gbps).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import numpy as np

from ..core.variants import make_scheduler
from ..sim.config import EpochConfig, SimConfig
from ..sim.metrics import BandwidthRecorder, MatchRatioRecorder, RunSummary
from ..sim.factory import make_negotiator
from ..sim.network import NegotiaToRSimulator
from ..sim.oblivious import ObliviousSimulator
from ..topology.base import FlatTopology
from ..topology.parallel import ParallelNetwork
from ..topology.thinclos import ThinClos
from ..workloads.traces import by_name

SCALE_ENV_VAR = "REPRO_SCALE"

DEFAULT_LOADS = (0.1, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ExperimentScale:
    """One evaluation scale: fabric shape plus default run lengths."""

    name: str
    num_tors: int
    ports_per_tor: int
    awgr_ports: int
    duration_ns: float
    loads: tuple[float, ...] = DEFAULT_LOADS
    incast_degrees: tuple[int, ...] = (1, 5, 10, 20, 30)
    alltoall_flow_kb: tuple[int, ...] = (1, 5, 30, 100, 500)
    max_flow_bytes: int | None = None
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.num_tors != self.ports_per_tor * self.awgr_ports:
            raise ValueError(
                "scale must satisfy num_tors == ports_per_tor * awgr_ports "
                "for the balanced thin-clos"
            )

    @property
    def host_aggregate_gbps(self) -> float:
        """Host-side bandwidth keeping the paper's 2x speedup."""
        return self.ports_per_tor * 100.0 / 2.0


MICRO = ExperimentScale(
    name="micro",
    num_tors=8,
    ports_per_tor=2,
    awgr_ports=4,
    duration_ns=80_000.0,
    loads=(0.5, 1.0),
    incast_degrees=(1, 3),
    alltoall_flow_kb=(1, 5),
    max_flow_bytes=100_000,
    seed=99,
)

TINY = ExperimentScale(
    name="tiny",
    num_tors=16,
    ports_per_tor=4,
    awgr_ports=4,
    duration_ns=800_000.0,
    incast_degrees=(1, 2, 5, 10, 15),
    max_flow_bytes=500_000,
)

SMALL = ExperimentScale(
    name="small",
    num_tors=32,
    ports_per_tor=4,
    awgr_ports=8,
    duration_ns=1_200_000.0,
    incast_degrees=(1, 5, 10, 20, 30),
    max_flow_bytes=1_000_000,
)

PAPER = ExperimentScale(
    name="paper",
    num_tors=128,
    ports_per_tor=8,
    awgr_ports=16,
    duration_ns=30_000_000.0,
    incast_degrees=(1, 10, 20, 30, 40, 50),
)

SCALES = {scale.name: scale for scale in (MICRO, TINY, SMALL, PAPER)}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default: small)."""
    name = os.environ.get(SCALE_ENV_VAR, "small").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown {SCALE_ENV_VAR}={name!r}; choose from {sorted(SCALES)}"
        ) from None


def sim_config(scale: ExperimentScale, **overrides) -> SimConfig:
    """A SimConfig for one scale (2x speedup, paper timing defaults)."""
    base = dict(
        num_tors=scale.num_tors,
        ports_per_tor=scale.ports_per_tor,
        uplink_gbps=100.0,
        host_aggregate_gbps=scale.host_aggregate_gbps,
        seed=scale.seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def make_topology(scale: ExperimentScale, kind: str) -> FlatTopology:
    """Build the ``parallel`` or ``thinclos`` fabric at one scale."""
    if kind == "parallel":
        return ParallelNetwork(scale.num_tors, scale.ports_per_tor)
    if kind == "thinclos":
        return ThinClos(scale.num_tors, scale.ports_per_tor, scale.awgr_ports)
    raise ValueError(f"unknown topology kind {kind!r}")


@dataclass
class RunArtifacts:
    """Everything an experiment may need from one simulation run."""

    summary: RunSummary
    simulator: object
    match_recorder: MatchRatioRecorder | None = None
    bandwidth: BandwidthRecorder | None = None


def _run_registered(sim, duration, until_complete, max_ns):
    """Drive one simulator to completion, visible to worker heartbeats.

    The active-simulator registration is what lets the sweep heartbeat
    thread (DESIGN.md §14) report sim-time/flow progress while the run
    loop below is busy; it costs one lock acquisition per *run*, not per
    epoch.
    """
    from ..telemetry.heartbeat import (
        clear_active_simulator,
        set_active_simulator,
    )

    set_active_simulator(sim)
    try:
        if until_complete:
            if max_ns is None:
                max_ns = 100 * duration
            sim.run_until_complete(max_ns=max_ns)
            return sim.summary(sim.now_ns)
        sim.run(duration)
        return sim.summary(duration)
    finally:
        clear_active_simulator()


def run_negotiator(
    scale: ExperimentScale,
    topology_kind: str,
    flows,
    *,
    duration_ns: float | None = None,
    config: SimConfig | None = None,
    epoch: EpochConfig | None = None,
    priority_queue: bool = True,
    scheduler_name: str = "base",
    scheduler_kwargs: dict | None = None,
    record_match_ratio: bool = False,
    bandwidth_bin_ns: float | None = None,
    record_pair_bandwidth: bool = False,
    failure_model=None,
    failure_plan=None,
    until_complete: bool = False,
    max_ns: float | None = None,
    stream: bool = False,
    tracer=None,
) -> RunArtifacts:
    """Run NegotiaToR on a workload and collect artifacts.

    ``stream=True`` consumes ``flows`` as a lazy arrival-ordered iterator
    with a bounded-memory tracker (DESIGN.md §11).  ``tracer`` is an
    optional :class:`~repro.telemetry.EngineTracer` (DESIGN.md §14).
    """
    if config is None:
        overrides: dict = {"priority_queue_enabled": priority_queue}
        if epoch is not None:
            overrides["epoch"] = epoch
        config = sim_config(scale, **overrides)
    topology = make_topology(scale, topology_kind)
    scheduler = None
    if scheduler_name != "base" or scheduler_kwargs:
        scheduler = make_scheduler(
            scheduler_name,
            topology,
            random.Random(config.seed),
            **(scheduler_kwargs or {}),
        )
    match_recorder = MatchRatioRecorder() if record_match_ratio else None
    bandwidth = (
        BandwidthRecorder(bandwidth_bin_ns) if bandwidth_bin_ns else None
    )
    sim = make_negotiator(
        config,
        topology,
        flows,
        scheduler=scheduler,
        failure_model=failure_model,
        failure_plan=failure_plan,
        match_recorder=match_recorder,
        bandwidth_recorder=bandwidth,
        record_pair_bandwidth=record_pair_bandwidth,
        stream=stream,
        tracer=tracer,
    )
    duration = duration_ns if duration_ns is not None else scale.duration_ns
    summary = _run_registered(sim, duration, until_complete, max_ns)
    return RunArtifacts(
        summary=summary,
        simulator=sim,
        match_recorder=match_recorder,
        bandwidth=bandwidth,
    )


def run_relay(
    scale: ExperimentScale,
    flows,
    *,
    duration_ns: float | None = None,
    config: SimConfig | None = None,
    relay_policy=None,
    until_complete: bool = False,
    max_ns: float | None = None,
    tracer=None,
) -> RunArtifacts:
    """Run the selective-relay variant (thin-clos only, appendix A.2.2)."""
    from ..core.relay import SelectiveRelaySimulator

    if config is None:
        config = sim_config(scale)
    topology = make_topology(scale, "thinclos")
    sim = SelectiveRelaySimulator(
        config, topology, flows, relay_policy=relay_policy, tracer=tracer
    )
    duration = duration_ns if duration_ns is not None else scale.duration_ns
    summary = _run_registered(sim, duration, until_complete, max_ns)
    return RunArtifacts(summary=summary, simulator=sim)


def run_oblivious(
    scale: ExperimentScale,
    topology_kind: str,
    flows,
    *,
    duration_ns: float | None = None,
    config: SimConfig | None = None,
    priority_queue: bool = True,
    bandwidth_bin_ns: float | None = None,
    until_complete: bool = False,
    max_ns: float | None = None,
    stream: bool = False,
    tracer=None,
) -> RunArtifacts:
    """Run the traffic-oblivious baseline on a workload.

    ``stream=True`` consumes ``flows`` as a lazy arrival-ordered iterator
    with a bounded-memory tracker (DESIGN.md §11).
    """
    if config is None:
        config = sim_config(scale, priority_queue_enabled=priority_queue)
    topology = make_topology(scale, topology_kind)
    bandwidth = (
        BandwidthRecorder(bandwidth_bin_ns) if bandwidth_bin_ns else None
    )
    sim = ObliviousSimulator(
        config,
        topology,
        flows,
        bandwidth_recorder=bandwidth,
        stream=stream,
        tracer=tracer,
    )
    duration = duration_ns if duration_ns is not None else scale.duration_ns
    summary = _run_registered(sim, duration, until_complete, max_ns)
    return RunArtifacts(summary=summary, simulator=sim, bandwidth=bandwidth)


def run_rotor(
    scale: ExperimentScale,
    topology_kind: str,
    flows,
    *,
    duration_ns: float | None = None,
    config: SimConfig | None = None,
    priority_queue: bool = True,
    rotor=None,
    bandwidth_bin_ns: float | None = None,
    failure_model=None,
    failure_plan=None,
    until_complete: bool = False,
    max_ns: float | None = None,
    stream: bool = False,
    tracer=None,
) -> RunArtifacts:
    """Run the RotorNet-style rotor baseline on a workload.

    ``rotor`` is a :class:`~repro.sim.config.RotorConfig` (default
    timing/relay knobs when None).  ``stream=True`` consumes ``flows`` as a
    lazy arrival-ordered iterator with a bounded-memory tracker (DESIGN.md
    §11).
    """
    from ..sim.rotor import RotorSimulator

    if config is None:
        config = sim_config(scale, priority_queue_enabled=priority_queue)
    topology = make_topology(scale, topology_kind)
    bandwidth = (
        BandwidthRecorder(bandwidth_bin_ns) if bandwidth_bin_ns else None
    )
    sim = RotorSimulator(
        config,
        topology,
        flows,
        rotor=rotor,
        failure_model=failure_model,
        failure_plan=failure_plan,
        bandwidth_recorder=bandwidth,
        stream=stream,
        tracer=tracer,
    )
    duration = duration_ns if duration_ns is not None else scale.duration_ns
    summary = _run_registered(sim, duration, until_complete, max_ns)
    return RunArtifacts(summary=summary, simulator=sim, bandwidth=bandwidth)


def run_adaptive(
    scale: ExperimentScale,
    topology_kind: str,
    flows,
    *,
    duration_ns: float | None = None,
    config: SimConfig | None = None,
    priority_queue: bool = True,
    adaptive=None,
    bandwidth_bin_ns: float | None = None,
    failure_model=None,
    failure_plan=None,
    until_complete: bool = False,
    max_ns: float | None = None,
    stream: bool = False,
    tracer=None,
) -> RunArtifacts:
    """Run the demand-aware adaptive baseline on a workload.

    ``adaptive`` is a :class:`~repro.sim.config.AdaptiveConfig` (default
    estimation/matching knobs when None).  ``stream=True`` consumes
    ``flows`` as a lazy arrival-ordered iterator with a bounded-memory
    tracker (DESIGN.md §11).
    """
    from ..sim.adaptive import AdaptiveSimulator

    if config is None:
        config = sim_config(scale, priority_queue_enabled=priority_queue)
    topology = make_topology(scale, topology_kind)
    bandwidth = (
        BandwidthRecorder(bandwidth_bin_ns) if bandwidth_bin_ns else None
    )
    sim = AdaptiveSimulator(
        config,
        topology,
        flows,
        adaptive=adaptive,
        failure_model=failure_model,
        failure_plan=failure_plan,
        bandwidth_recorder=bandwidth,
        stream=stream,
        tracer=tracer,
    )
    duration = duration_ns if duration_ns is not None else scale.duration_ns
    summary = _run_registered(sim, duration, until_complete, max_ns)
    return RunArtifacts(summary=summary, simulator=sim, bandwidth=bandwidth)


def sized_distribution(scale: ExperimentScale, trace: str = "hadoop"):
    """A flow-size distribution truncated to the scale's cap.

    The cap keeps the largest flow's single-port service time small
    relative to the run, matching the paper's 30 ms-to-10 MB ratio
    (DESIGN.md).  The single source of truth for both the experiments'
    direct workloads and the sweep scenarios.
    """
    distribution = by_name(trace)
    if scale.max_flow_bytes is not None:
        distribution = distribution.truncated(scale.max_flow_bytes)
    return distribution


def workload_for(
    scale: ExperimentScale,
    load: float,
    *,
    trace: str = "hadoop",
    duration_ns: float | None = None,
    seed_offset: int = 0,
    rng: random.Random | None = None,
):
    """The standard Poisson workload of section 4.1 at one load point.

    ``rng`` overrides the default ``Random(scale.seed + seed_offset)`` —
    the sweep layer passes a spec-seeded one so both paths share this
    single implementation.
    """
    from ..workloads.generators import poisson_workload

    duration = duration_ns if duration_ns is not None else scale.duration_ns
    if rng is None:
        rng = random.Random(scale.seed + seed_offset)
    return poisson_workload(
        sized_distribution(scale, trace),
        load,
        scale.num_tors,
        scale.host_aggregate_gbps,
        duration,
        rng,
    )


# ---------------------------------------------------------------------------
# result rendering
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """A rendered experiment: headers, rows, and paper-comparison notes."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def add_row(self, *values) -> None:
        """Append one table row."""
        self.rows.append(list(values))

    def to_dict(self) -> dict:
        """JSON-serializable form (series data is omitted: it may hold
        arbitrarily large arrays; the sweep store is the home for raw
        per-run data)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_jsonable(v) for v in row] for row in self.rows],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """Human-readable fixed-width table plus notes."""
        cells = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append(
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append(
                "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _jsonable(value):
    """Coerce a table cell to a JSON-serializable scalar."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def fct_ms(summary: RunSummary) -> float | None:
    """99th-percentile mice FCT in milliseconds (the paper's FCT axis)."""
    if summary.mice_fct_p99_ns is None:
        return None
    return summary.mice_fct_p99_ns / 1e6


def fct_us(summary: RunSummary) -> float | None:
    """99th-percentile mice FCT in microseconds."""
    if summary.mice_fct_p99_ns is None:
        return None
    return summary.mice_fct_p99_ns / 1e3
