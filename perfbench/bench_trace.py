"""In-memory spans around calls into each layer of the simulator stack.

Nothing in ``src/`` is edited: :func:`instrument` swaps wrappers in for the
public entry points *as the sweep runner binds them* and puts the originals
back when the traced pass ends.  The layers and their span names:

===========================  ======================================================
span                         wraps
===========================  ======================================================
``experiments.compute``      one ``golden.compute_result`` call (the pass loop)
``runner.run``               ``SweepRunner.run``
``runner.execute``           ``repro.sweep.runner.execute_spec``
``workloads.build``          ``scenarios.build_workload`` / ``build_workload_iter``
``workloads.stream_next``    each ``next()`` on a streaming workload iterator
``engine.<system>``          the ``run_*`` helper bound in ``repro.sweep.runner``
``engine.<system>.run``      the simulator's ``run`` / ``run_until_complete``
``engine.<system>.summary``  the simulator's ``summary`` (FCT percentiles etc.)
``runner.collect``           one ``COLLECTORS`` entry
``store.get``/``.put``       ``ResultStore.load``/``get`` and ``ResultStore.put``
===========================  ======================================================

Engine phase times, step counts and grant/accept counters come from the
existing :class:`~repro.telemetry.engine.EngineTracer`, switched on with
``telemetry.runtime.activate`` and pointed at an in-memory sink.  Forked
pool workers inherit the wrappers; each worker keeps its own span list and
rewrites it to ``<tmp>/spans-<pid>.json`` after every spec so the parent can
merge it when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

from bench_math import totals_by_name

ENGINES = ("negotiator", "oblivious", "rotor", "adaptive", "relay")

#: The ``run_*`` helper each engine is reached through.
RUN_HELPERS = {f"run_{engine}": engine for engine in ENGINES}

#: Phase spans each engine's ``EngineTracer`` hooks emit.
PHASES = {
    "negotiator": ("matching", "piggyback", "relay", "drain"),
    "relay": ("matching", "piggyback", "relay", "drain"),
    "oblivious": ("inject", "relay", "drain"),
    "rotor": ("inject", "relay", "drain", "offload"),
    "adaptive": ("inject", "matching", "drain"),
}

#: (step counter, whether the engine also counts fast-forwarded steps in it).
STEP_COUNTER = {
    "negotiator": ("epochs", False),
    "relay": ("epochs", False),
    "oblivious": ("slots", True),
    "rotor": ("slices", True),
    "adaptive": ("slices", True),
}

FF_ATTRIBUTES = (
    "fast_forwarded_epochs",
    "fast_forwarded_slots",
    "fast_forwarded_slices",
)


class SpanRecorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self, tmp_dir: Path) -> None:
        self.tmp_dir = tmp_dir
        self.pid = os.getpid()
        self.worker = False
        self._reset()

    def _reset(self) -> None:
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.engines: list[dict] = []
        self.pending: list[tuple] = []
        self.worker_lists: list[list] = []

    def in_worker(self) -> bool:
        """True in a forked pool worker (whose inherited spans are dropped)."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()
            self.worker = True
        return self.worker

    def top_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def dump_worker(self) -> None:
        """Rewrite this worker's spans for the parent to merge."""
        path = self.tmp_dir / f"spans-{self.pid}.json"
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "engines": self.engines,
        }
        path.write_text(json.dumps(payload))

    def merge_workers(self) -> None:
        """Fold every worker's dumped spans into this (parent) recorder."""
        for path in sorted(self.tmp_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            self.worker_lists.append(payload["spans"])
            self.counts.update(payload["counts"])
            self.engines.extend(payload["engines"])
            path.unlink()

    def totals(self) -> tuple[dict, dict]:
        """Summed (duration, self time) by span name, all processes."""
        duration: Counter = Counter()
        own: Counter = Counter()
        for spans in [self.spans, *self.worker_lists]:
            d, s = totals_by_name(spans)
            duration.update(d)
            own.update(s)
        return dict(duration), dict(own)


def _engine_record(engine: str, simulator, tracer) -> dict:
    run_end = {}
    if tracer is not None:
        ends = tracer.sink.of_kind("run-end")
        run_end = ends[-1] if ends else {}
    ff = 0
    for attribute in FF_ATTRIBUTES:
        if hasattr(simulator, attribute):
            ff = int(getattr(simulator, attribute))
            break
    return {
        "engine": engine,
        "phases": run_end.get("spans", {}),
        "counters": run_end.get("counters", {}),
        "ff": ff,
        "vectorized": simulator.core_used == "vectorized",
    }


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, telemetry_path: Path):
    """Install every layer wrapper and the engine tracers; undo on exit."""
    from repro.sim.adaptive import AdaptiveSimulator
    from repro.sim.network import NegotiaToRSimulator
    from repro.sim.oblivious import ObliviousSimulator
    from repro.sim.rotor import RotorSimulator
    from repro.sim.vectorized import VectorizedNegotiaToRSimulator
    from repro.sweep import runner as runner_module
    from repro.sweep import scenarios
    from repro.sweep.store import ResultStore
    from repro.telemetry import runtime as telemetry_runtime
    from repro.telemetry.events import MemorySink

    undo: list[tuple[object, str, object]] = []

    def patch(owner, name: str, wrap) -> None:
        original = getattr(owner, name)
        undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(wrap(original)))

    def spanned(name: str, count_key: str | None = None, count=None):
        def wrap(fn):
            def call(*args, **kwargs):
                with recorder.span(name):
                    result = fn(*args, **kwargs)
                if count_key is not None:
                    recorder.counts[count_key] += count(result)
                return result

            return call

        return wrap

    def execute(fn):
        def call(spec):
            worker = recorder.in_worker()
            with recorder.span("runner.execute"):
                summary = fn(spec)
            while recorder.pending:
                recorder.engines.append(_engine_record(*recorder.pending.pop()))
            if worker:
                recorder.dump_worker()
            return summary

        return call

    def engine_helper(engine: str):
        def wrap(fn):
            def call(*args, **kwargs):
                with recorder.span(f"engine.{engine}"):
                    artifacts = fn(*args, **kwargs)
                recorder.pending.append(
                    (engine, artifacts.simulator, kwargs.get("tracer"))
                )
                return artifacts

            return call

        return wrap

    def simulator_part(part: str):
        """Span ``engine.<system>.<part>`` when called from a ``run_*`` helper."""

        def wrap(fn):
            def call(sim, *args, **kwargs):
                top = recorder.top_name()
                if top is None or not top.startswith("engine.") or top.count(".") != 1:
                    return fn(sim, *args, **kwargs)
                with recorder.span(f"{top}.{part}"):
                    return fn(sim, *args, **kwargs)

            return call

        return wrap

    def timed_stream(iterator):
        clock = time.perf_counter
        while True:
            parent = recorder.stack[-1] if recorder.stack else None
            start = clock()
            try:
                flow = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.spans.append(
                    ["workloads.stream_next", start, clock(), parent]
                )
            recorder.counts["workloads.flows"] += 1
            yield flow

    def build_iter(fn):
        def call(*args, **kwargs):
            with recorder.span("workloads.build"):
                iterator = fn(*args, **kwargs)
            return timed_stream(iter(iterator))

        return call

    def build_list(fn):
        def call(*args, **kwargs):
            with recorder.span("workloads.build"):
                flows = fn(*args, **kwargs)
            recorder.counts["workloads.flows"] += len(flows)
            return flows

        return call

    def memory_tracer(fn):
        def call(spec_hash, engine):
            tracer = fn(spec_hash, engine)
            if tracer is not None:
                tracer.sink = MemorySink()
            return tracer

        return call

    patch(runner_module, "execute_spec", execute)
    for helper, engine in RUN_HELPERS.items():
        patch(runner_module, helper, engine_helper(engine))
    for cls in (
        NegotiaToRSimulator,
        VectorizedNegotiaToRSimulator,
        ObliviousSimulator,
        RotorSimulator,
        AdaptiveSimulator,
    ):
        for method in ("run", "run_until_complete"):
            patch(cls, method, simulator_part("run"))
        patch(cls, "summary", simulator_part("summary"))
    patch(scenarios, "build_workload", build_list)
    patch(scenarios, "build_workload_iter", build_iter)
    collectors = dict(runner_module.COLLECTORS)
    for name, fn in collectors.items():
        runner_module.COLLECTORS[name] = spanned("runner.collect")(fn)
    patch(runner_module.SweepRunner, "run", spanned("runner.run"))
    patch(ResultStore, "put", spanned("store.put", "store.puts", lambda _: 1))
    patch(ResultStore, "load", spanned("store.get", "store.gets", len))
    patch(
        ResultStore,
        "get",
        spanned("store.get", "store.gets", lambda hit: int(hit is not None)),
    )
    patch(telemetry_runtime, "engine_tracer", memory_tracer)
    previous = telemetry_runtime.activate(telemetry_path)
    try:
        yield recorder
    finally:
        telemetry_runtime.deactivate(previous)
        runner_module.COLLECTORS.update(collectors)
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        recorder.merge_workers()
