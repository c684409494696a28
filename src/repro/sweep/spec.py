"""Frozen, content-addressed description of one simulation run.

A :class:`RunSpec` captures everything needed to reproduce a run — fabric
scale, system, topology, scheduler variant, traffic scenario, load, seed,
duration — as a frozen dataclass.  Its :meth:`~RunSpec.content_hash` is a
SHA-256 over the canonical JSON form, so the same spec hashes identically in
every process and on every platform (CPython's shortest-round-trip float
repr is what JSON emits, and key order is pinned by ``sort_keys``).  That
hash keys the result store: a sweep resumes by skipping every spec whose
hash already has a stored summary.

Determinism contract: a spec fully determines its run.  The workload is
generated from ``random.Random(seed)`` and the simulator from the scale's
config seed, with no shared mutable state between specs — which is why a
process-pool fan-out is bit-identical to a serial loop (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

SPEC_VERSION = 5
"""The newest spec schema this code understands.

The ``spec_version`` a spec *emits* (and therefore hashes) is the oldest
schema able to express it — see :meth:`RunSpec.spec_version` — so schema
growth never invalidates stored hashes of specs that don't use the new
features.

Version history: 1 — the original PR 2 schema; 2 — adds ``epoch_params``,
``failure_params``, ``instrument`` and the ``relay`` system (the full
experiment migration); 3 — adds the ``rotor`` system and ``rotor_params``
(the RotorNet-style baseline); 4 — reserved (streaming execution was
planned as a schema bump but landed hash-neutrally within version 2, so
the number was never emitted); 5 — adds the ``adaptive`` system and
``adaptive_params`` (the demand-aware D3-class baseline).  The ``stream``
field only enters the canonical JSON when non-default — like
``rotor_params`` and ``adaptive_params`` — so every pre-existing spec
keeps its hash."""

Params = tuple[tuple[str, object], ...]

PARAM_FIELDS = (
    "scale_params",
    "scheduler_params",
    "scenario_params",
    "epoch_params",
    "failure_params",
    "instrument",
    "rotor_params",
    "adaptive_params",
)
"""RunSpec fields holding frozen key/value parameter tuples."""

TOPOLOGIES = {"parallel": "parallel", "thinclos": "thin-clos"}
"""Fabric names a spec accepts, mapped to their prose names."""

INSTRUMENT_KEYS = frozenset(
    {"bandwidth_bin_ns", "pair_bandwidth", "match_ratio", "margin_ns"}
)
"""Valid ``instrument`` keys: recorder attachments plus measurement knobs
(``margin_ns``) that collectors read back from the spec."""

INSTRUMENT_FLAGS = frozenset({"pair_bandwidth", "match_ratio"})
"""Instrument keys that are on/off switches (set when truthy); the others
hold a value (set when not None)."""


@dataclass(frozen=True)
class System:
    """What one system supports: the single home of those capabilities.

    ``topologies`` are the fabrics a spec may pair it with; ``home`` is the
    one experiments and sweeps run it on (None: the fabric is a free axis,
    as NegotiaToR's curves are labelled by it).  ``instrument`` holds the
    instrument keys it may set, ``params_field`` its own parameter field
    and ``spec_version`` the schema that introduced it.
    """

    topologies: tuple[str, ...] = tuple(TOPOLOGIES)
    home: str | None = "thinclos"
    failures: bool = False
    stream: bool = True
    instrument: frozenset[str] = frozenset({"bandwidth_bin_ns", "margin_ns"})
    scheduler_variants: bool = False
    scheduler_params: bool = False
    params_field: str | None = None
    spec_version: int = 2


SYSTEMS: dict[str, System] = {
    "negotiator": System(
        home=None,
        failures=True,
        instrument=INSTRUMENT_KEYS,
        scheduler_variants=True,
        scheduler_params=True,
    ),
    "oblivious": System(),
    "rotor": System(
        failures=True, params_field="rotor_params", spec_version=3
    ),
    "adaptive": System(
        failures=True, params_field="adaptive_params", spec_version=5
    ),
    # The selective-relay variant of appendix A.2.2 reads
    # ``scheduler_params`` as RelayPolicy overrides.
    "relay": System(
        ("thinclos",),
        stream=False,
        instrument=frozenset({"margin_ns"}),
        scheduler_params=True,
    ),
}
"""The system table: every system a spec may name, and what it supports.

:class:`RunSpec` validates against it at construction, the runner
dispatches on its keys (``run_<system>``) and the CLI lists them."""

PARAM_OWNERS = {
    system.params_field: name
    for name, system in SYSTEMS.items()
    if system.params_field
}
"""System parameter field -> the one system that accepts it."""


def _supporting(capability: str) -> str:
    """The systems with one table capability, for error messages."""
    return ", ".join(
        name for name, system in SYSTEMS.items() if getattr(system, capability)
    )


def unknown_name_message(kind: str, names, registry) -> str:
    """The one diagnostic shape for names missing from a registry.

    Every ``system=``/``topology=``/``engine=`` validation site — spec
    construction, topology building, the CLI's argument rejection, the
    scale bench — goes through this helper, so the message can never
    drift between entry points (the regression in
    tests/test_cli_and_analysis.py pins it).
    """
    return (
        f"unknown {kind}(s): {', '.join(names)} "
        f"(choose from {', '.join(sorted(registry))})"
    )


def freeze_params(params: Mapping[str, object] | None) -> Params:
    """Canonicalize a parameter mapping into a sorted, hashable tuple."""
    if not params:
        return ()
    for key, value in params.items():
        if value is not None and not isinstance(value, (int, float, str, bool)):
            raise TypeError(
                f"spec parameter {key!r} must be a scalar, got "
                f"{type(value).__name__}"
            )
    return tuple(sorted(params.items()))


def system_spec_fields(kind: str) -> dict:
    """Map an experiment "system" label to RunSpec system/topology fields.

    Experiments label their curves ``parallel``/``thinclos`` (NegotiaToR on
    that fabric) or by a baseline's system name, which runs on its
    :attr:`System.home` fabric.
    """
    if kind in TOPOLOGIES:
        return {"system": "negotiator", "topology": kind}
    system = SYSTEMS.get(kind)
    if system is None or system.home is None:
        labels = [*TOPOLOGIES, *(n for n, s in SYSTEMS.items() if s.home)]
        raise ValueError(unknown_name_message("system label", [kind], labels))
    return {"system": kind, "topology": system.home}


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep: a fully reproducible simulation run.

    ``seed`` is the *workload* seed (fed to the scenario generator as
    ``random.Random(seed)``); the simulator's own seed comes from the scale.
    ``load`` is ignored by synchronous scenarios (incast, all-to-all, the
    collectives) but still participates in the hash, so leave it at 1.0
    there.  ``collect`` names extra metrics the runner computes into
    ``RunSummary.extra`` (see :mod:`repro.sweep.runner`).

    ``scale`` normally names a registered scale (micro/tiny/small/paper);
    an ad-hoc :class:`~repro.experiments.common.ExperimentScale` is pinned
    by also setting ``scale_params`` to its fabric shape (use
    :func:`repro.sweep.runner.scale_spec_fields`), so the content hash
    covers the actual fabric rather than an unregistered name.

    ``epoch_params`` overrides the epoch configuration: any
    :class:`~repro.sim.config.EpochConfig` field by name, plus the derived
    knobs ``piggyback`` (False applies the Table 2 no-piggyback protocol)
    and ``reconfiguration_delay_ns`` (the Fig 8 guardband stretch).

    ``failure_params`` declares a link-failure plan (``plan`` is ``random``
    or ``egress-ports`` plus that plan's arguments; negotiator, rotor and
    adaptive systems).

    ``stream=True`` runs the spec through the streaming path (DESIGN.md
    §11): the workload is generated lazily and the tracker evicts completed
    flows into online accumulators, so memory stays bounded however long
    the trace.  Exact summary fields (counts, goodput) match the
    materialized run; FCT percentiles are reservoir-exact up to the
    reservoir capacity.  Streaming specs cannot request ``collect`` or
    ``instrument`` (those read retained per-flow state).

    ``rotor_params`` configures the ``rotor`` system's
    :class:`~repro.sim.config.RotorConfig` by field name
    (``packets_per_slice``, ``reconfiguration_delay_ns``, ``vlb_relay``);
    like ``stream``, the field enters the canonical JSON only when set, so
    it is hash-neutral for every pre-existing spec.

    ``adaptive_params`` configures the ``adaptive`` system's
    :class:`~repro.sim.config.AdaptiveConfig` by field name
    (``packets_per_slice``, ``reconfiguration_delay_ns``, ``ewma_alpha``,
    ``recompute_slices``, ``residual_ports``); hash-neutral the same way.

    ``instrument`` attaches recorders the ``collect`` metrics read:
    ``bandwidth_bin_ns`` (a :class:`~repro.sim.metrics.BandwidthRecorder`),
    ``pair_bandwidth`` (per-pair keys; negotiator only), ``match_ratio``
    (a :class:`~repro.sim.metrics.MatchRatioRecorder`; negotiator only).

    The ``relay`` system is the selective-relay variant of appendix A.2.2;
    it runs on thin-clos and interprets ``scheduler_params`` as
    :class:`~repro.core.relay.RelayPolicy` overrides.

    Construction checks every field against :data:`SYSTEMS`, so a spec
    asking a system for something it does not support (failures on
    oblivious, streaming on relay, scheduler variants off negotiator, ...)
    raises ValueError here, before it reaches a dry run or a worker.
    """

    scale: str
    scale_params: Params = ()
    system: str = "negotiator"
    topology: str = "parallel"
    scheduler: str = "base"
    scheduler_params: Params = ()
    scenario: str = "poisson"
    scenario_params: Params = ()
    load: float = 1.0
    seed: int = 0
    duration_ns: float | None = None
    priority_queue: bool = True
    without_speedup: bool = False
    until_complete: bool = False
    max_ns: float | None = None
    epoch_params: Params = ()
    failure_params: Params = ()
    instrument: Params = ()
    collect: tuple[str, ...] = ()
    stream: bool = False
    rotor_params: Params = ()
    adaptive_params: Params = ()

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                unknown_name_message("system", [self.system], SYSTEMS)
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                unknown_name_message("topology", [self.topology], TOPOLOGIES)
            )
        # NaN fails every comparison and inf never finishes a run, so both
        # are rejected here rather than deep inside an engine or a worker.
        if not 0 < self.load < math.inf:
            raise ValueError("load must be positive and finite")
        for name in ("duration_ns", "max_ns"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # Normalize params passed as dicts so hashing never sees a dict.
        for name in PARAM_FIELDS:
            if isinstance(getattr(self, name), Mapping):
                object.__setattr__(
                    self, name, freeze_params(getattr(self, name))
                )
        object.__setattr__(self, "collect", tuple(self.collect))
        self._check_capabilities(SYSTEMS[self.system])

    def _check_capabilities(self, system: System) -> None:
        """Reject fields the system table says ``system`` cannot run.

        Table lookups and field reads only: this runs on every spec built.
        """
        instrument = self.instrument
        if instrument:
            unknown = {key for key, _ in instrument} - INSTRUMENT_KEYS
            if unknown:
                raise ValueError(
                    f"unknown instrument key(s): {sorted(unknown)}; "
                    f"choose from {sorted(INSTRUMENT_KEYS)}"
                )
        if self.stream:
            # Collectors and instrumentation read retained per-flow state,
            # which the bounded-memory tracker evicts by design.
            if self.collect:
                raise ValueError(
                    "streaming specs compute headline summaries only; "
                    f"drop collect={sorted(self.collect)} or run materialized"
                )
            if instrument:
                keys = sorted(key for key, _ in instrument)
                raise ValueError(
                    "instrumentation is not supported with stream=True; "
                    f"drop instrument key(s) {keys}"
                )
            if not system.stream:
                raise ValueError(
                    f"the {self.system} system does not support stream=True"
                )
        if self.topology not in system.topologies:
            fabrics = " or ".join(TOPOLOGIES[t] for t in system.topologies)
            raise ValueError(
                f"the {self.system} system runs on {fabrics} only"
            )
        if self.scheduler != "base" and not system.scheduler_variants:
            raise ValueError(
                "scheduler variants apply to the "
                f"{_supporting('scheduler_variants')} system only"
            )
        if self.scheduler_params and not system.scheduler_params:
            raise ValueError(
                "scheduler_params apply to the "
                f"{_supporting('scheduler_params')} systems only"
            )
        if self.failure_params and not system.failures:
            raise ValueError(
                f"failure plans apply to the {_supporting('failures')} "
                "systems only"
            )
        if instrument:
            unsupported = sorted(
                key
                for key, value in instrument
                if key not in system.instrument
                and (value if key in INSTRUMENT_FLAGS else value is not None)
            )
            if unsupported:
                raise ValueError(
                    f"the {self.system} system does not support instrument "
                    f"key(s) {unsupported}"
                )
        for field, owner in PARAM_OWNERS.items():
            if getattr(self, field) and field != system.params_field:
                raise ValueError(f"{field} apply to the {owner} system only")

    # ------------------------------------------------------------------
    # serialization and hashing
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (tuples become lists).

        ``stream``, ``rotor_params``, and ``adaptive_params`` are emitted
        only when non-default: all three fields joined the schema after
        stores and baselines existed, and omitting the default keeps the
        canonical JSON — and therefore every stored content hash — of all
        pre-existing specs unchanged.
        """
        payload = {
            "scale": self.scale,
            "scale_params": [list(kv) for kv in self.scale_params],
            "system": self.system,
            "topology": self.topology,
            "scheduler": self.scheduler,
            "scheduler_params": [list(kv) for kv in self.scheduler_params],
            "scenario": self.scenario,
            "scenario_params": [list(kv) for kv in self.scenario_params],
            "load": self.load,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "priority_queue": self.priority_queue,
            "without_speedup": self.without_speedup,
            "until_complete": self.until_complete,
            "max_ns": self.max_ns,
            "epoch_params": [list(kv) for kv in self.epoch_params],
            "failure_params": [list(kv) for kv in self.failure_params],
            "instrument": [list(kv) for kv in self.instrument],
            "collect": list(self.collect),
        }
        if self.stream:
            payload["stream"] = True
        for name in PARAM_OWNERS:
            if getattr(self, name):
                payload[name] = [list(kv) for kv in getattr(self, name)]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name in PARAM_FIELDS:
            kwargs[name] = tuple(
                (str(k), v) for k, v in kwargs.get(name, ())
            )
        kwargs["collect"] = tuple(kwargs.get("collect", ()))
        return cls(**kwargs)

    @property
    def spec_version(self) -> int:
        """The oldest schema version able to express this spec.

        This — not :data:`SPEC_VERSION` — is what enters the canonical
        JSON: a spec hashes under the schema that introduced its system
        (the table's ``spec_version``; a system's own params field can
        only appear on that system), so adding schema versions never moves
        the hashes of specs that predate them.
        """
        return SYSTEMS[self.system].spec_version

    def canonical_json(self) -> str:
        """The byte-stable JSON form the content hash is taken over."""
        payload = {"spec_version": self.spec_version, **self.to_dict()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the canonical JSON form."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def short_hash(self) -> str:
        """First 12 hex chars — enough for display and log lines."""
        return self.content_hash[:12]

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def scenario_param(self, key: str, default=None):
        """One scenario parameter by name."""
        return dict(self.scenario_params).get(key, default)

    def with_params(self, **changes) -> "RunSpec":
        """A copy with dataclass fields replaced (params auto-frozen)."""
        return replace(self, **changes)

    def label(self) -> str:
        """A compact human-readable identity for tables and logs."""
        parts = [self.system, self.topology, self.scenario]
        if self.scheduler != "base":
            parts.append(self.scheduler)
        parts.append(f"load={self.load:g}")
        parts.append(f"seed={self.seed}")
        if not self.priority_queue:
            parts.append("no-pq")
        if self.without_speedup:
            parts.append("1x")
        if self.stream:
            parts.append("stream")
        return " ".join(parts)
