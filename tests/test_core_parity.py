"""Differential tests: the vectorized cores against their scalar oracles.

DESIGN.md section 15 promises that ``SimConfig.core`` is a pure
performance switch — on a fixed seed the vectorized core produces
bit-identical results to the scalar reference engine.  These tests
enforce that promise with hypothesis-generated traces pushed through
both cores of all three engines (negotiator, oblivious, rotor), with and
without link failures, in materialized and streaming tracker modes.

There are no exceptions: streaming-mode FCT accumulators fold each
step's completions in canonical (completed_ns, fid) order (see
``FlowTracker.flush_completions``), so even the running-mean fields —
once allowed a last-ulp carve-out because the cores delivered within an
epoch in different orders — are bit-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Flow, ObliviousSimulator, SimConfig, ThinClos
from repro.core.relay import SelectiveRelaySimulator
from repro.sim.adaptive import AdaptiveSimulator
from repro.sim.factory import make_negotiator, vectorized_core_eligible
from repro.sim.failures import FailurePlan, random_failure_plan
from repro.sim.network import NegotiaToRSimulator
from repro.sim.rotor import RotorSimulator
from repro.sim.vectorized import VectorizedNegotiaToRSimulator
from repro.topology.parallel import ParallelNetwork

NUM_TORS = 8
PORTS = 2


def _config(seed: int, core: str, *, fast_forward: bool = True) -> SimConfig:
    return SimConfig(
        num_tors=NUM_TORS,
        ports_per_tor=PORTS,
        seed=seed,
        core=core,
        idle_fast_forward=fast_forward,
    )


def _flows(draw_pairs: list[tuple[int, int, int, int]]) -> list[Flow]:
    """Materialize hypothesis-drawn (src, dst_offset, bytes, gap) tuples.

    Engines mutate ``Flow`` objects in place (``remaining_bytes``,
    ``completed_ns``), so every simulator must get its own freshly-built
    list — call this once per engine, never share the result.
    """
    flows = []
    arrival = 0.0
    for fid, (src, dst_off, size, gap_ns) in enumerate(draw_pairs):
        dst = (src + 1 + dst_off) % NUM_TORS
        arrival += float(gap_ns)
        flows.append(Flow(fid, src, dst, size, arrival))
    return flows


flow_tuples = st.lists(
    st.tuples(
        st.integers(0, NUM_TORS - 1),       # src
        st.integers(0, NUM_TORS - 2),       # dst offset (never src)
        st.integers(1, 60_000),             # size_bytes
        st.integers(0, 30_000),             # inter-arrival gap ns
    ),
    min_size=1,
    max_size=40,
)


def _assert_summaries_identical(scalar_sim, vector_sim, *, stream: bool):
    ds = scalar_sim.summary().to_dict()
    dv = vector_sim.summary().to_dict()
    for key in ds:
        assert ds[key] == dv[key], key
    assert scalar_sim.epoch == vector_sim.epoch
    if not stream:
        sc = {f.fid: f.completed_ns for f in scalar_sim.tracker.flows}
        vc = {f.fid: f.completed_ns for f in vector_sim.tracker.flows}
        assert sc == vc


class TestNegotiatorParity:
    @given(pairs=flow_tuples, seed=st.integers(0, 2**16), ff=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_materialized_bit_identical(self, pairs, seed, ff):
        topo = ParallelNetwork(NUM_TORS, PORTS)
        s = NegotiaToRSimulator(
            _config(seed, "scalar", fast_forward=ff), topo, _flows(pairs)
        )
        v = VectorizedNegotiaToRSimulator(
            _config(seed, "vectorized", fast_forward=ff), topo, _flows(pairs)
        )
        assert s.run_until_complete(max_ns=1e12)
        assert v.run_until_complete(max_ns=1e12)
        _assert_summaries_identical(s, v, stream=False)

    @given(
        pairs=flow_tuples,
        seed=st.integers(0, 2**16),
        ratio=st.sampled_from([0.1, 0.25]),
        repair=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_link_failures_bit_identical(self, pairs, seed, ratio, repair):
        topo = ParallelNetwork(NUM_TORS, PORTS)
        plan, _ = random_failure_plan(
            NUM_TORS,
            PORTS,
            ratio,
            40_000.0,
            300_000.0 if repair else None,
            random.Random(seed + 7),
        )
        s = NegotiaToRSimulator(
            _config(seed, "scalar"),
            topo,
            _flows(pairs),
            failure_plan=FailurePlan(list(plan.events)),
        )
        v = VectorizedNegotiaToRSimulator(
            _config(seed, "vectorized"),
            topo,
            _flows(pairs),
            failure_plan=FailurePlan(list(plan.events)),
        )
        # Unrepaired failures can strand bytes; cap instead of completing.
        s.run(2e6)
        v.run(2e6)
        _assert_summaries_identical(s, v, stream=False)

    @given(pairs=flow_tuples, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_streaming_bit_identical(self, pairs, seed):
        topo = ParallelNetwork(NUM_TORS, PORTS)
        s = NegotiaToRSimulator(
            _config(seed, "scalar"), topo, iter(_flows(pairs)), stream=True
        )
        v = VectorizedNegotiaToRSimulator(
            _config(seed, "vectorized"), topo, iter(_flows(pairs)), stream=True
        )
        assert s.run_until_complete(max_ns=1e12)
        assert v.run_until_complete(max_ns=1e12)
        _assert_summaries_identical(s, v, stream=True)

    def test_tracer_window_counters_sum_identically(self):
        from repro.telemetry import EngineTracer, MemorySink

        rng = random.Random(11)
        pairs = [
            (
                rng.randrange(NUM_TORS),
                rng.randrange(NUM_TORS - 1),
                rng.randrange(1, 40_000),
                rng.randrange(0, 20_000),
            )
            for _ in range(50)
        ]
        topo = ParallelNetwork(NUM_TORS, PORTS)
        totals = {}
        for core, cls in (
            ("scalar", NegotiaToRSimulator),
            ("vectorized", VectorizedNegotiaToRSimulator),
        ):
            sink = MemorySink()
            tracer = EngineTracer(sink, "negotiator", cadence_ns=25_000)
            sim = cls(_config(3, core), topo, _flows(pairs), tracer=tracer)
            assert sim.run_until_complete(max_ns=1e12)
            tracer.finish(int(sim.now_ns))
            totals[core] = sink.of_kind("run-end")[-1]["counters"]
        assert totals["scalar"] == totals["vectorized"]
        assert totals["scalar"]["epochs"] > 0


class TestObliviousAndRotorCoreParity:
    """The oblivious/rotor engines take ``core`` as an internal switch."""

    @given(pairs=flow_tuples, seed=st.integers(0, 2**16), ff=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_oblivious_cores_bit_identical(self, pairs, seed, ff):
        topo = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        sims = {}
        for core in ("scalar", "vectorized"):
            sim = ObliviousSimulator(
                _config(seed, core, fast_forward=ff), topo, _flows(pairs)
            )
            assert sim.run_until_complete(max_ns=1e12)
            sims[core] = sim
        s, v = sims["scalar"], sims["vectorized"]
        assert s.summary().to_dict() == v.summary().to_dict()
        assert {f.fid: f.completed_ns for f in s.tracker.flows} == {
            f.fid: f.completed_ns for f in v.tracker.flows
        }

    @given(
        pairs=flow_tuples,
        seed=st.integers(0, 2**16),
        ff=st.booleans(),
        failures=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_rotor_cores_bit_identical(self, pairs, seed, ff, failures):
        topo = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        plan = None
        if failures:
            plan, _ = random_failure_plan(
                NUM_TORS, PORTS, 0.1, 40_000.0, 300_000.0, random.Random(seed)
            )
        sims = {}
        for core in ("scalar", "vectorized"):
            sim = RotorSimulator(
                _config(seed, core, fast_forward=ff),
                topo,
                _flows(pairs),
                failure_plan=(
                    FailurePlan(list(plan.events)) if plan else None
                ),
            )
            sim.run(3e6)
            sims[core] = sim
        s, v = sims["scalar"], sims["vectorized"]
        assert s.summary().to_dict() == v.summary().to_dict()
        assert s.slices == v.slices


class TestFactoryDispatch:
    def test_vectorized_core_selected_inside_envelope(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = _config(0, "vectorized")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)

    def test_scalar_core_selected_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = _config(0, "scalar")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, NegotiaToRSimulator)

    def test_env_override_beats_config_field(self, monkeypatch):
        """REPRO_CORE switches a whole sweep without touching specs."""
        monkeypatch.setenv("REPRO_CORE", "vectorized")
        config = _config(0, "scalar")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)

    def test_fallback_outside_envelope_warns_loudly(self):
        """Explicitly requested vectorized on an ineligible config must not
        silently run the scalar engine: a RuntimeWarning names the failed
        envelope condition, and the fallback itself still happens."""
        topo = ParallelNetwork(NUM_TORS, PORTS)
        config = _config(0, "vectorized")
        buffered = replace(config, receiver_buffer_bytes=10_000)
        assert not vectorized_core_eligible(buffered, topo)
        with pytest.warns(RuntimeWarning, match="receiver buffers"):
            sim = make_negotiator(buffered, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, NegotiaToRSimulator)
        assert sim.core_used == "scalar"
        assert not vectorized_core_eligible(
            config, ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        )
        assert not vectorized_core_eligible(
            config, topo, record_pair_bandwidth=True
        )

    def test_fallback_warning_names_first_failed_condition(self):
        from repro.sim.factory import vectorized_core_ineligibility

        config = _config(0, "vectorized")
        thin = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        with pytest.warns(RuntimeWarning, match="not the parallel network"):
            make_negotiator(config, thin, [Flow(0, 0, 1, 100, 0.0)])
        assert vectorized_core_ineligibility(config, thin) is not None
        assert (
            vectorized_core_ineligibility(
                config, ParallelNetwork(NUM_TORS, PORTS)
            )
            is None
        )

    def test_default_scalar_path_stays_silent(self, recwarn, monkeypatch):
        """The implicit default (core='scalar') is not a fallback; no
        warning may fire even on a config outside the vectorized envelope."""
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = replace(_config(0, "scalar"), receiver_buffer_bytes=10_000)
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, NegotiaToRSimulator)
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_eligible_vectorized_path_stays_silent(self, recwarn, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = _config(0, "vectorized")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)
        assert sim.core_used == "vectorized"
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]


class TestRunLoopControl:
    """Satellites: integer-ns loop control and max_ns validation."""

    def _engines(self, core="scalar"):
        config = _config(0, core)
        flows = [Flow(0, 0, 1, 5_000, 0.0)]
        thin = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        return [
            NegotiaToRSimulator(
                config, ParallelNetwork(NUM_TORS, PORTS), list(flows)
            ),
            ObliviousSimulator(config, thin, list(flows)),
            RotorSimulator(config, thin, list(flows)),
            AdaptiveSimulator(config, thin, list(flows)),
            SelectiveRelaySimulator(config, thin, list(flows)),
        ]

    @pytest.mark.parametrize("bad", [0, -1, -1e9, math.nan, math.inf])
    def test_run_until_complete_rejects_nonpositive_max_ns(self, bad):
        for sim in self._engines():
            with pytest.raises(ValueError, match="max_ns must be positive"):
                sim.run_until_complete(max_ns=bad)
        config = _config(0, "vectorized")
        vec = VectorizedNegotiaToRSimulator(
            config, ParallelNetwork(NUM_TORS, PORTS), [Flow(0, 0, 1, 10, 0.0)]
        )
        with pytest.raises(ValueError, match="max_ns must be positive"):
            vec.run_until_complete(max_ns=bad)

    @pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf])
    def test_run_rejects_nonpositive_or_nonfinite_duration(self, bad):
        for sim in self._engines("vectorized"):
            with pytest.raises(ValueError, match="duration must be positive"):
                sim.run(bad)

    def test_long_horizon_epoch_counts_are_exact(self):
        """Integer step budgets: epoch counters match ceil(duration/step)
        exactly even over horizons where float accumulation would drift."""
        config = _config(0, "scalar", fast_forward=False)
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = NegotiaToRSimulator(config, topo, [])
        epoch_ns = sim.timing.epoch_ns
        duration = 250_000 * epoch_ns  # long horizon, inexact float step
        sim.run(duration)
        assert sim.epoch == math.ceil(duration / epoch_ns) or (
            sim.epoch * epoch_ns >= duration
            and (sim.epoch - 1) * epoch_ns < duration
        )
        # The defining invariant: stepping stopped exactly at the first
        # epoch whose start time reaches the requested duration.
        assert (sim.epoch - 1) * epoch_ns < duration <= sim.epoch * epoch_ns

    def test_chunked_run_equals_single_run(self):
        """Repeated short run() calls land on the same integer epoch count
        as one long call — no drift from re-deriving the loop bound."""
        config = _config(0, "scalar", fast_forward=False)
        topo = ParallelNetwork(NUM_TORS, PORTS)
        single = NegotiaToRSimulator(config, topo, [])
        chunked = NegotiaToRSimulator(config, topo, [])
        epoch_ns = single.timing.epoch_ns
        total = 999 * epoch_ns * 1.000000001
        single.run(total)
        for i in range(1, 10):
            chunked.run(total * i / 9)
        assert chunked.epoch == single.epoch
