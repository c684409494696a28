"""The RotorNet-style rotor baseline: long-slice round-robin + RotorLB relay.

This is the *other* classic traffic-oblivious design the paper positions
itself against (RotorNet, SIGCOMM'17; Opera, NSDI'20): a fabric that cycles
a fixed round-robin schedule of Birkhoff–von-Neumann permutation matchings
with **no negotiation phase at all**.  It differs from the Sirius-flavored
:class:`~repro.sim.oblivious.ObliviousSimulator` on two axes:

* **Timing** — the rotor holds each matching for a long *slice*
  (``RotorConfig.packets_per_slice`` data packets per port) and pays a
  ``reconfiguration_delay_ns`` guard on every rotation, instead of
  reconfiguring after every single packet.  Slice length and duty cycle are
  the rotor's defining trade-off: long slices amortize reconfiguration but
  make a source wait up to a whole cycle for its destination.
* **Traffic steering** — instead of spraying every cell over a uniformly
  random intermediate up front, the rotor runs the RotorLB discipline: when
  (tor, port) is connected to ``peer`` it serves, in strict order,

  1. buffered **relay** bytes destined to ``peer`` (second Valiant hop —
     strict priority keeps intermediate buffers bounded),
  2. its own **direct** backlog for ``peer`` (PIAS bands apply at sources,
     exactly as in the other engines), and
  3. with leftover slice capacity and ``vlb_relay`` enabled, **indirect**
     offload: lowest-band backlog for *other* destinations is handed to
     ``peer``, which acts as the Valiant intermediate and delivers it when
     its own rotor reaches the final destination.  Only lowest-band
     (elephant) bytes relay — mice keep their direct one-hop path, the
     same discipline as the selective relay (appendix A.2.2) — and relayed
     data loses its PIAS class at the intermediate, which is exactly the
     mice-behind-elephants pathology the paper ascribes to rotor fabrics.

The engine reuses the shared substrate end to end: segment queues
(:class:`~repro.sim.queues.PiasDestQueue`), the failure model and event
plans (:mod:`repro.sim.failures` — a transmission is lost when its
(tor, port) link is down at the slice it rides), the bandwidth recorder,
and both flow-source modes (``stream=True`` pairs a lazy arrival-ordered
iterator with the bounded-memory tracker, DESIGN.md section 11).

The schedule itself comes from the topology's predefined round-robin
rotation: within one cycle of ``predefined_slots`` matchings every ordered
ToR pair is connected exactly once per port-cycle, so each round-robin
cycle offers every source all N-1 destinations exactly once (the invariant
tests/test_rotor_engine.py pins, with and without link failures).
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

from ..topology.base import FlatTopology
from .config import RotorConfig, SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow
from .metrics import BandwidthRecorder
from .queues import PiasDestQueue
from .slotted import SliceEngine


class RotorSimulator(SliceEngine):
    """Slice-driven rotor fabric over a finite set of flows."""

    def __init__(
        self,
        config: SimConfig,
        topology: FlatTopology,
        flows: Iterable[Flow],
        rotor: RotorConfig | None = None,
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
        bandwidth_recorder: BandwidthRecorder | None = None,
        stream: bool = False,
        tracer=None,
    ) -> None:
        self.rotor = rotor or RotorConfig()
        # Every rotation pays the reconfiguration guard before the slice's
        # first packet.
        super().__init__(
            config,
            topology,
            flows,
            self.rotor,
            lead_ns=self.rotor.reconfiguration_delay_ns,
            failure_model=failure_model,
            failure_plan=failure_plan,
            bandwidth_recorder=bandwidth_recorder,
            stream=stream,
            tracer=tracer,
        )
        # Per (intermediate, final destination) relay queues, single band:
        # VLB offload parks lowest-band bytes here until the intermediate's
        # rotor reaches the final destination.
        n = config.num_tors
        self._relay: list[dict[int, PiasDestQueue]] = [{} for _ in range(n)]
        self._relay_pending = [0] * n

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    @property
    def total_queued_bytes(self) -> int:
        """Bytes waiting at sources plus bytes in flight at intermediates."""
        return sum(self._direct_pending) + sum(self._relay_pending)

    def relay_bytes_at(self, tor: int) -> int:
        """Bytes currently buffered at one intermediate ToR."""
        return self._relay_pending[tor]

    def _is_idle(self) -> bool:
        """No direct and no relay backlog anywhere in the fabric."""
        return not any(self._direct_pending) and not any(self._relay_pending)

    # ------------------------------------------------------------------
    # one slice
    # ------------------------------------------------------------------

    def step_slice(self) -> None:
        """Simulate one rotor slice across all ToRs and ports."""
        slice_index = self._step
        start_ns = self.now_ns
        tracer = self._tracer
        if tracer is not None:
            t_inject = perf_counter()
        self._apply_failure_events(start_ns)
        self.failures.tick_epoch()
        self._inject_arrivals(start_ns)
        if tracer is not None:
            tracer.add_span("inject", perf_counter() - t_inject)

        peer_of = self.topology.predefined_peer
        serve_relay = self._serve_relay
        serve_direct = self._serve_direct
        cycle_slot = slice_index % self.cycle_slots
        cycle = slice_index // self.cycle_slots
        failures = self.failures
        check = failures.any_failed
        budget = self.rotor.packets_per_slice
        vlb_relay = self.rotor.vlb_relay
        ports = range(self.config.ports_per_tor)
        # Active-set iteration (DESIGN.md section 15): a ToR with no direct
        # and no relay backlog provably sends nothing this slice, so the
        # vectorized core skips it without touching its (empty) queues.
        skip_idle_tors = self._vectorized
        direct_pending = self._direct_pending
        relay_pending = self._relay_pending

        for tor in range(self.config.num_tors):
            if (
                skip_idle_tors
                and not direct_pending[tor]
                and not relay_pending[tor]
            ):
                continue
            for port in ports:
                peer = peer_of(tor, port, cycle_slot, cycle)
                if peer is None:
                    continue
                if check and not failures.transmission_ok(
                    tor, port, peer, port
                ):
                    continue
                # Traced runs attribute wall time per RotorLB stage: relay
                # (second hop), drain (direct), offload (VLB).
                if tracer is not None:
                    t0 = perf_counter()
                used = serve_relay(tor, peer, start_ns, 0, budget)
                if tracer is not None:
                    t1 = perf_counter()
                    tracer.add_span("relay", t1 - t0)
                    tracer.count("relay_packets", used)
                direct = serve_direct(tor, peer, start_ns, used, budget)
                used += direct
                if tracer is not None:
                    t0 = perf_counter()
                    tracer.add_span("drain", t0 - t1)
                    tracer.count("direct_packets", direct)
                if vlb_relay and used < budget:
                    self._offload_indirect(tor, peer, start_ns, used, budget)
                    if tracer is not None:
                        tracer.add_span("offload", perf_counter() - t0)
        self.tracker.flush_completions()
        self._step += 1
        if tracer is not None:
            tracer.count("slices")
            if tracer.gauge_due(int(self.now_ns)):
                tracer.sample(
                    int(self.now_ns),
                    queued_bytes=self.total_queued_bytes,
                    relay_bytes=sum(self._relay_pending),
                )

    _step_once = step_slice

    # ------------------------------------------------------------------
    # the three RotorLB service steps (direct: SliceEngine._serve_direct)
    # ------------------------------------------------------------------

    def _serve_relay(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> int:
        """Second Valiant hop: drain buffered relay bytes destined to peer."""
        queue = self._relay[tor].get(peer)
        if queue is None or queue.is_empty:
            return 0
        used, sent = self._transmit(
            queue, peer, start_ns, offset, budget, band=0
        )
        self._relay_pending[tor] -= sent
        return used

    def _offload_indirect(
        self, tor: int, peer: int, start_ns: float, offset: int, budget: int
    ) -> None:
        """First Valiant hop: hand leftover capacity's worth of lowest-band
        backlog for other destinations to ``peer`` as the intermediate.

        Destinations are walked in a fixed ring order from ``peer`` so the
        engine stays deterministic without any randomness; direct traffic
        for ``peer`` itself was already served and never detours.
        """
        n = self.config.num_tors
        queues = self._direct[tor]
        lowest_band = len(self._band_limits)
        for step in range(1, n):
            if offset >= budget:
                return
            dst = (peer + step) % n
            if dst == tor or dst == peer:
                continue
            queue = queues.get(dst)
            if queue is None or queue.is_empty:
                continue
            moved = 0
            relay_queue = self._relay[peer].get(dst)

            def hand_over(flow: Flow, num_bytes: int, last_slot: int) -> None:
                nonlocal moved, relay_queue
                moved += num_bytes
                arrival_ns = self._packet_deliver_ns(
                    start_ns, offset + last_slot
                )
                if relay_queue is None:
                    relay_queue = PiasDestQueue(thresholds=(), enabled=False)
                    self._relay[peer][dst] = relay_queue
                # Store-and-forward: a relayed chunk becomes forwardable at
                # the next slice boundary at the earliest, so the outcome
                # never depends on the order ToRs are iterated in.
                relay_queue.enqueue_bytes(
                    flow,
                    num_bytes,
                    band=0,
                    eligible_ns=max(arrival_ns, start_ns + self.slice_ns),
                )
                if self.bandwidth is not None:
                    self.bandwidth.record(
                        ("relay", peer), num_bytes, arrival_ns
                    )

            used = queue.drain_band_slots(
                band=lowest_band,
                num_slots=budget - offset,
                payload_bytes=self.payload_bytes,
                slot_start_ns=lambda k: self._packet_start_ns(
                    start_ns, offset + k
                ),
                deliver=hand_over,
            )
            # The bytes changed ToRs but stayed in the fabric: they move
            # from the source's direct backlog to the peer's relay buffer.
            self._direct_pending[tor] -= moved
            self._relay_pending[peer] += moved
            offset += used
