"""The shared driver of every fixed-step fabric engine (DESIGN.md section 7).

NegotiaToR runs in fixed epochs; the oblivious, rotor and adaptive
baselines run in fixed slots or slices.  Each is a per-step schedule and
service rule laid over the same switching model, so everything around the
step lives here once:

* the integer step counter, ``step_ns`` and ``now_ns``;
* :meth:`~SlottedEngine._step_ceil`, the one exact time-to-step conversion;
* ``run`` / ``run_until_complete`` with integer step budgets;
* the idle fast-forward skeleton — gate, jump target and skipped-step
  tally;
* flow-source and :class:`~repro.sim.flows.FlowTracker` setup for the
  materialized and streaming modes, and the arrival-injection loop;
* the failure-event cursor; and
* :meth:`~SlottedEngine.summary`.

An engine subclasses :class:`SlottedEngine`, binds its step method as
``_step_once``, queues each arrived flow in ``_enqueue_flow`` and fills in
three hooks: :meth:`~SlottedEngine._is_idle`
(may the fast-forward skip steps now?),
:meth:`~SlottedEngine._arrival_step` (the first step that may not be
skipped because it injects the next arrival) and
:meth:`~SlottedEngine._account_skipped` (keep step-derived counters equal
to a stepped run's).

:class:`SliceEngine` adds what the rotor and adaptive baselines share on
top: slice timing, per-(source, destination) PIAS direct queues and the
one-hop direct service that drains them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ..topology.base import FlatTopology
from .config import SimConfig, transmit_ns
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow, FlowTracker
from .metrics import BandwidthRecorder, RunSummary
from .queues import PiasDestQueue
from .source import MaterializedFlowSource, StreamingFlowSource


class SlottedEngine:
    """Integer-stepped run loops, fast-forward, arrivals and failures.

    ``stream=True`` consumes ``flows`` lazily from an arrival-ordered
    iterator and pairs it with a bounded-memory tracker (DESIGN.md
    section 11), so residency stays O(flows in flight).
    """

    #: Tracer counter a step ticks once.  Skipped steps tick it too, so the
    #: totals match a stepped run; None leaves skipped steps uncounted.
    _skipped_step_counter: str | None = None
    #: Whether :meth:`summary` reports ``step_ns`` as ``epoch_ns``.
    _reports_epoch_ns = False

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        step_ns: float,
        *,
        core: str,
        fast_forward: bool,
        stream: bool = False,
        tracer=None,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
    ) -> None:
        if topology.num_tors != config.num_tors:
            raise ValueError("topology and config disagree on num_tors")
        if topology.ports_per_tor != config.ports_per_tor:
            raise ValueError("topology and config disagree on ports_per_tor")
        self.config = config
        self.topology = topology
        self.step_ns = step_ns
        #: Which engine core this instance runs.
        self.core_used = core
        self._vectorized = core == "vectorized"
        self._ff_enabled = fast_forward
        # Telemetry (DESIGN.md section 14) is purely observational: every
        # hook sits behind one ``is not None`` check, so traced and untraced
        # runs step through identical simulation state.
        self._tracer = tracer
        self.failures = failure_model or LinkFailureModel(
            config.num_tors, config.ports_per_tor
        )
        self._failure_events = (
            failure_plan.sorted_events() if failure_plan is not None else []
        )
        self._next_failure_event = 0
        self._stream = stream
        if stream:
            self.tracker = FlowTracker(
                config.num_tors,
                retain_flows=False,
                mice_threshold_bytes=config.mice_threshold_bytes,
                reservoir_seed=config.seed,
            )
            self._source = StreamingFlowSource(flows)
        else:
            self.tracker = FlowTracker(config.num_tors)
            self._source = MaterializedFlowSource(flows)
            self.tracker.register_all(self._source.flows)
        self._step = 0
        self._steps_fast_forwarded = 0

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    @property
    def step(self) -> int:
        """Index of the next step to simulate."""
        return self._step

    @property
    def now_ns(self) -> float:
        """Start time of the next step."""
        return self._step * self.step_ns

    @property
    def fast_forwarded_steps(self) -> int:
        """Idle steps the run loops skipped without stepping them."""
        return self._steps_fast_forwarded

    # ------------------------------------------------------------------
    # run loops
    # ------------------------------------------------------------------

    def run(self, duration_ns: float) -> None:
        """Simulate whole steps until ``duration_ns`` is covered.

        Loop control is an exact *integer* step budget: the float duration
        is converted once (via :meth:`_step_ceil`) and the loop compares
        integer step counters, so hour-long horizons cannot accumulate
        float drift in the stepping decision.
        """
        if not 0 < duration_ns < math.inf:
            raise ValueError("duration must be positive and finite")
        target = self._step_ceil(duration_ns)
        step = self._step_once
        while self._step < target:
            self._maybe_fast_forward(target)
            if self._step >= target:
                break
            step()

    def run_until_complete(self, max_ns: float) -> bool:
        """Simulate until every flow completes (or ``max_ns``).

        Returns True when all flows completed.  In streaming mode the
        source must also be exhausted — flows the engine has not pulled yet
        are still outstanding work.  Like :meth:`run`, the cutoff is held
        as an integer step budget.
        """
        if not 0 < max_ns < math.inf:
            raise ValueError("max_ns must be positive and finite")
        limit = self._step_ceil(max_ns)
        step = self._step_once
        source = self._source
        tracker = self.tracker
        while source.next_arrival_ns is not None or not tracker.all_complete:
            if self._step >= limit:
                return False
            self._maybe_fast_forward(limit)
            if self._step >= limit:
                return False
            step()
        return True

    def _step_once(self):
        """Simulate one step (each engine binds its ``step_*`` method)."""
        raise NotImplementedError

    def _step_ceil(self, time_ns: float) -> int:
        """Smallest step index whose start time is at or after ``time_ns``.

        The while-loops absorb float rounding in the division so the result
        is exact against the engine's own ``step * step_ns`` arithmetic.
        """
        step_ns = self.step_ns
        step = math.ceil(time_ns / step_ns)
        while step > 0 and (step - 1) * step_ns >= time_ns:
            step -= 1
        while step * step_ns < time_ns:
            step += 1
        return step

    # ------------------------------------------------------------------
    # idle fast-forward (DESIGN.md section 7)
    # ------------------------------------------------------------------

    def _maybe_fast_forward(self, limit_step: int) -> None:
        """Jump the step counter over steps in which provably nothing happens.

        Requires fast-forward to be enabled, failure detection to be in
        steady state (``tick_epoch`` would be a no-op) and the engine's
        :meth:`_is_idle` predicate.  The jump lands on the earliest step
        that the next arrival (:meth:`_arrival_step`), the next failure or
        repair event, or the run limit can touch, so every skipped step
        would have been an exact no-op.
        """
        if (
            not self._ff_enabled
            or not self.failures.is_quiescent
            or not self._is_idle()
        ):
            return
        target = limit_step
        arrival = self._source.next_arrival_ns
        if arrival is not None:
            target = min(target, self._arrival_step(arrival))
        events = self._failure_events
        if self._next_failure_event < len(events):
            # Events apply at the first step starting at or after them.
            event_ns = events[self._next_failure_event].time_ns
            target = min(target, self._step_ceil(event_ns))
        if target > self._step:
            self._account_skipped(self._step, target)
            self._steps_fast_forwarded += target - self._step
            self._step = target

    def _is_idle(self) -> bool:
        """Hook: whether the engine holds no state a step could act on."""
        raise NotImplementedError

    def _arrival_step(self, arrival_ns: float) -> int:
        """Hook: the first step that injects an arrival at ``arrival_ns``.

        Steps inject at their start by default, so that is the first step
        starting at or after the arrival.
        """
        return self._step_ceil(arrival_ns)

    def _account_skipped(self, first: int, stop: int) -> None:
        """Hook: count steps ``first .. stop - 1`` as a stepped run would."""
        if self._tracer is not None and self._skipped_step_counter is not None:
            self._tracer.count(self._skipped_step_counter, stop - first)

    # ------------------------------------------------------------------
    # arrivals and failures
    # ------------------------------------------------------------------

    def _inject_arrivals(self, before_ns: float) -> None:
        """Enqueue every flow arriving at or before ``before_ns``.

        The bound is inclusive: a flow arriving exactly on a step boundary
        is visible to that step.
        """
        source = self._source
        arrival = source.next_arrival_ns
        if arrival is None or arrival > before_ns:
            return
        # Streaming flows are only known to the tracker once they enter the
        # fabric; materialized flows were all registered at construction.
        register = self.tracker.register if self._stream else None
        enqueue = self._enqueue_flow
        while arrival is not None and arrival <= before_ns:
            flow = source.pop()
            if register is not None:
                register(flow)
            enqueue(flow)
            arrival = source.next_arrival_ns

    def _enqueue_flow(self, flow: Flow) -> None:
        """Hand one arrived flow to the engine's queues."""
        raise NotImplementedError

    def _apply_failure_events(self, now_ns: float) -> None:
        """Apply every failure/repair event scheduled at or before now."""
        events = self._failure_events
        while (
            self._next_failure_event < len(events)
            and events[self._next_failure_event].time_ns <= now_ns
        ):
            self.failures.apply(events[self._next_failure_event])
            self._next_failure_event += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self, duration_ns: float | None = None) -> RunSummary:
        """Headline metrics over ``duration_ns`` (default: simulated time).

        ``num_flows`` counts the flows injected into the fabric in *both*
        tracker modes (equal to the trace size once the run has covered
        every arrival), so a streaming re-run of a materialized workload
        matches field by field; in streaming mode the mice FCT stats come
        from the online accumulators (see
        :meth:`FlowTracker.mice_fct_summary`).
        """
        duration = duration_ns if duration_ns is not None else self.now_ns
        mice_p99, mice_mean = self.tracker.mice_fct_summary(
            self.config.mice_threshold_bytes
        )
        return RunSummary(
            duration_ns=duration,
            epoch_ns=self.step_ns if self._reports_epoch_ns else None,
            num_flows=self._source.popped,
            num_completed=self.tracker.num_completed,
            goodput_normalized=self.tracker.goodput_normalized(
                duration, self.config.host_aggregate_gbps
            ),
            goodput_gbps=self.tracker.goodput_gbps(duration),
            mice_fct_p99_ns=mice_p99,
            mice_fct_mean_ns=mice_mean,
        )


class SliceEngine(SlottedEngine):
    """A slice-driven fabric with per-pair PIAS direct queues.

    The rotor and adaptive baselines both hold each circuit for a slice of
    ``packets_per_slice`` data packets and serve, on every connected
    (tor, peer), the source's direct backlog for ``peer`` in PIAS order.
    ``slice_config`` is the engine's :class:`~repro.sim.config.RotorConfig`
    or :class:`~repro.sim.config.AdaptiveConfig`; ``lead_ns`` delays every
    packet opportunity of a slice (the rotor's per-rotation guard).
    """

    _skipped_step_counter = "slices"

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        slice_config,
        *,
        lead_ns: float = 0.0,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
        bandwidth_recorder: BandwidthRecorder | None = None,
        stream: bool = False,
        tracer=None,
    ) -> None:
        self.slice_ns = slice_config.slice_ns(config.epoch, config.uplink_gbps)
        # Vectorized core (DESIGN.md section 15): active-set iteration over
        # ToRs with pending bytes and whole-slice fast-forward while the
        # fabric is empty and failure detection is in steady state.
        core = config.resolved_core
        super().__init__(
            config,
            topology,
            flows,
            self.slice_ns,
            core=core,
            fast_forward=core == "vectorized" and config.idle_fast_forward,
            stream=stream,
            tracer=tracer,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )
        packet_bytes = (
            config.epoch.data_header_bytes + config.epoch.data_payload_bytes
        )
        self._tx_ns = transmit_ns(packet_bytes, config.uplink_gbps)
        self._lead_ns = lead_ns
        self.payload_bytes = config.epoch.data_payload_bytes
        self.cycle_slots = topology.predefined_slots

        n = config.num_tors
        if config.priority_queue_enabled:
            self._band_limits = tuple(config.pias_thresholds)
        else:
            self._band_limits = ()
        # Per (source, destination) direct queues with PIAS bands: bytes
        # wait here until the slice schedule connects the pair.
        self._direct: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._direct_pending = [0] * n
        self.bandwidth = bandwidth_recorder

    #: Number of slices simulated so far.
    slices = SlottedEngine.step

    fast_forwarded_slices = SlottedEngine.fast_forwarded_steps

    def direct_bytes_at(self, tor: int) -> int:
        """Bytes currently queued for direct transmission at one ToR."""
        return self._direct_pending[tor]

    # ------------------------------------------------------------------
    # slice timing
    # ------------------------------------------------------------------

    def _packet_start_ns(self, slice_start_ns: float, k: int) -> float:
        """Start of the k-th packet opportunity inside one slice."""
        return slice_start_ns + self._lead_ns + k * self._tx_ns

    def _packet_deliver_ns(self, slice_start_ns: float, k: int) -> float:
        """Arrival time of the k-th packet at the receiving ToR."""
        return (
            self._packet_start_ns(slice_start_ns, k)
            + self._tx_ns
            + self.config.propagation_ns
        )

    # ------------------------------------------------------------------
    # arrivals and direct service
    # ------------------------------------------------------------------

    def _enqueue_flow(self, flow: Flow) -> None:
        queue = self._direct[flow.src].get(flow.dst)
        if queue is None:
            queue = PiasDestQueue(
                self._band_limits, enabled=bool(self._band_limits)
            )
            self._direct[flow.src][flow.dst] = queue
        queue.enqueue_flow(flow)
        self._direct_pending[flow.src] += flow.size_bytes

    def _transmit(
        self,
        queue: PiasDestQueue,
        peer: int,
        start_ns: float,
        offset: int,
        budget: int,
        *,
        band: int | None = None,
    ) -> tuple[int, int]:
        """Drain one queue toward the connected peer; (slots used, bytes).

        ``band=None`` drains in PIAS order (direct queues); an explicit
        band restricts the drain to it *and* stops at an ineligible head
        instead of idling slots away (the rotor's relay step: a chunk
        handed over this very slice is eligible only from the next slice
        boundary, and burning the budget waiting for it would starve the
        pair's direct backlog).
        """
        sent = 0

        def deliver(flow: Flow, num_bytes: int, last_slot: int) -> None:
            nonlocal sent
            sent += num_bytes
            deliver_ns = self._packet_deliver_ns(start_ns, offset + last_slot)
            self.tracker.deliver(flow, num_bytes, deliver_ns)
            if self.bandwidth is not None:
                self.bandwidth.record(("rx", peer), num_bytes, deliver_ns)

        def slot_start(k: int) -> float:
            return self._packet_start_ns(start_ns, offset + k)

        if band is None:
            used = queue.drain_slots(
                num_slots=budget - offset,
                payload_bytes=self.payload_bytes,
                slot_start_ns=slot_start,
                deliver=deliver,
            )
        else:
            used = queue.drain_band_slots(
                band=band,
                num_slots=budget - offset,
                payload_bytes=self.payload_bytes,
                slot_start_ns=slot_start,
                deliver=deliver,
            )
        return used, sent

    def _serve_direct(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> int:
        """Direct one-hop transmissions to the connected peer, PIAS order;
        returns slots used."""
        if offset >= budget:
            return 0
        queue = self._direct[tor].get(peer)
        if queue is None or queue.is_empty:
            return 0
        used, sent = self._transmit(queue, peer, start_ns, offset, budget)
        self._direct_pending[tor] -= sent
        return used
