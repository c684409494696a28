"""The benchmark's workloads: one pass of each, its output checks, its metrics.

A *pass* is the unit a workload repeats until ``--seconds`` is spent:

* ``repro-tiny`` — every experiment in ``EXPERIMENT_MODULES`` at the tiny
  fabric (16x4) through one serial ``SweepRunner`` (``repro run --all``),
  each one repeated right away through that runner's memo (warm).
* ``golden-micro`` — ``repro golden --jobs 2`` at micro scale (8x2)
  against a fresh result store (cold: store writes), then repeatedly
  against that store (warm: store reads).
* ``paper-stream`` — one streaming NegotiaToR spec at paper scale (128x8,
  parallel network, Hadoop Poisson at load 0.75) through ``execute_spec``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from bench_math import percentile, pool_busy_ratio
from bench_trace import ENGINES, PHASES, STEP_COUNTER, SpanRecorder, instrument
from repro import golden
from repro.experiments import MICRO, PAPER, TINY
from repro.sweep import ResultStore, RunSpec, SweepRunner
from repro.sweep import runner as runner_module
from repro.sweep.runner import UPLINK_GBPS, scale_spec_fields

#: Slack on the goodput bound for float rounding.
GOODPUT_EPSILON = 1e-9

#: repro-tiny runs the tiny fabric for a quarter of its 800 us horizon, so
#: one pass (all 283 specs) fits a run; every engine keeps its share.
TINY_DURATION_NS = TINY.duration_ns / 4

PAPER_STREAM_LOAD = 0.75
PAPER_STREAM_DURATION_NS = 2_000_000.0

GOLDEN_JOBS = 2

#: A warm pass takes ~0.2 s, short enough for one sample to carry whatever
#: slow spell the machine is in, so golden-micro follows each cold pass
#: with this many warm repetitions and reports their median.
WARM_REPEATS = 5
SETUP_PROBES = 5
CALIBRATION_ROUNDS = 300_000


def calibration_s() -> float:
    """Host seconds for a fixed pure-Python loop (machine drift, not scaling)."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - started


def fingerprint(calibrations: list[float]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": calibrations,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def goodput_ceiling(spec, scale) -> float:
    """Fabric capacity over the host aggregate that goodput is normalized to.

    ``goodput_normalized`` divides by the host-side rate, but the uplinks
    run 2x faster (the paper's speedup), so a workload whose bytes are all
    queued at t=0 (all-to-all, incast) may legitimately drain above 1.
    Without speedup the ceiling is exactly 1.
    """
    if spec.without_speedup:
        return 1.0
    return scale.ports_per_tor * UPLINK_GBPS / scale.host_aggregate_gbps


def summary_ok(summary, ceiling: float) -> bool:
    """Conservation: completed <= injected flows, 0 <= goodput <= ceiling."""
    return (
        0 <= summary.num_completed <= summary.num_flows
        and 0.0 <= summary.goodput_normalized <= ceiling + GOODPUT_EPSILON
    )


def digest_of(payload) -> str:
    return hashlib.sha256(golden.canonical_json(payload).encode()).hexdigest()


@dataclasses.dataclass
class Tally:
    """Specs and output checks so far; ``failed / attempted`` is ``fail_ratio``.

    A spec that raises, an experiment that cannot be assembled and an output
    check that does not hold each count once as attempted and failed.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclasses.dataclass
class PassResult:
    """One pass: host times, executed specs and the output digest."""

    wall_s: float
    warm_walls: list[float]
    executed: list[tuple[str, float, object]]  # (system, elapsed_s, summary)
    digest: str
    jobs: int = 1
    specs_cached: int = 0
    calibration_s: float = 0.0

    @property
    def cycle_s(self) -> float:
        return self.wall_s + sum(self.warm_walls) + self.calibration_s


class RecordingRunner(SweepRunner):
    """A ``SweepRunner`` that keeps every summary it hands out."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.summaries: dict = {}

    def run(self, specs):
        results = super().run(specs)
        self.summaries.update(results)
        return results


class GridWorkload:
    """Every experiment, run the way ``repro run --all``/``golden`` runs it."""

    min_passes = 1

    def __init__(self, base_scale, *, jobs, store, golden_check, duration_ns=None):
        self.base_scale = base_scale
        self.default_seed = base_scale.seed
        self.jobs = jobs
        self.store = store
        self.golden_check = golden_check
        self.duration_ns = duration_ns

    def scale(self, seed: int):
        scale = dataclasses.replace(self.base_scale, seed=seed)
        if self.duration_ns is not None:
            scale = dataclasses.replace(scale, duration_ns=self.duration_ns)
        return scale

    def _runner(self, store_path: Path | None) -> RecordingRunner:
        """A runner that records a spec that raises and goes on (``skip``)."""
        store = ResultStore(store_path) if store_path is not None else None
        return RecordingRunner(
            jobs=self.jobs, store=store, resume=store is not None, on_error="skip"
        )

    def _compute(self, name, scale, runner, tally, recorder):
        """(result, host seconds) of one ``golden.compute_result`` call.

        The result is None when the experiment raises (typically because
        one of its specs failed and is missing from the runner's results);
        the tally counts that as a failure.
        """
        with recorder.span("experiments.compute") if recorder else nullcontext():
            started = time.perf_counter()
            try:
                result = golden.compute_result(name, scale, runner=runner)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                tally.check(False, f"{name} raised {type(exc).__name__}: {exc}")
                result = None
            return result, time.perf_counter() - started

    def run_pass(self, seed, tally, tmp_dir, recorder=None) -> PassResult:
        """One cold pass plus warm ones.

        Store-backed warm passes need the complete store, so
        ``WARM_REPEATS`` of them follow the cold pass.  Memo-backed ones
        are taken per experiment: after each cold experiment, every
        experiment run so far is replayed once, so each experiment's warm
        time is a median over samples spread across the whole pass, and
        the warm pass is the sum of those medians.
        """
        scale = self.scale(seed)
        names = golden.experiment_names()
        store_path = tmp_dir / "store.jsonl" if self.store else None
        if store_path is not None and store_path.exists():
            store_path.unlink()
        cold_runner = self._runner(store_path)
        runners = {id(cold_runner): cold_runner}
        cold, digests, warm_by_name, wall = {}, {}, {}, 0.0

        def warm(name, runner) -> float:
            result, elapsed = self._compute(name, scale, runner, tally, recorder)
            if result is not None:
                tally.check(
                    golden.result_digest(result) == digests[name],
                    f"warm pass changed {name}",
                )
            return elapsed

        for name in names:
            result, elapsed = self._compute(name, scale, cold_runner, tally, recorder)
            wall += elapsed
            if result is not None:
                cold[name] = result
                digests[name] = golden.result_digest(result)
            if store_path is None:
                for done in cold:
                    warm_by_name.setdefault(done, []).append(warm(done, cold_runner))
        if store_path is None:
            warm_walls = [sum(statistics.median(t) for t in warm_by_name.values())]
        else:
            warm_walls = []
            for _ in range(WARM_REPEATS):
                warm_runner = self._runner(store_path)
                runners[id(warm_runner)] = warm_runner
                warm_walls.append(sum(warm(name, warm_runner) for name in cold))

        for runner in runners.values():
            for spec_hash in sorted(runner.failed_hashes()):
                tally.check(False, f"spec {spec_hash[:12]} raised")
            for spec_hash, summary in runner.summaries.items():
                ceiling = goodput_ceiling(runner.specs[spec_hash], scale)
                tally.check(
                    summary_ok(summary, ceiling), f"conservation {spec_hash[:12]}"
                )
        if self.golden_check and seed == self.default_seed:
            golden_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
            for name, result in cold.items():
                check = golden.check_golden(golden_dir, name, result)
                tally.check(check.ok, f"golden digest {name}")

        executed = [
            (
                cold_runner.specs[spec_hash].system,
                outcome.elapsed_s[-1],
                cold_runner.summaries[spec_hash],
            )
            for spec_hash, outcome in cold_runner.outcomes.items()
            if outcome.ok
        ]
        return PassResult(
            wall_s=wall,
            warm_walls=warm_walls,
            executed=executed,
            digest=digest_of(digests),
            jobs=self.jobs,
            specs_cached=sum(r.cached for r in runners.values()),
        )

    def probe(self, seed, tmp_dir) -> None:
        """The cold pass up to its first engine call (where the probe exits)."""
        store_path = tmp_dir / "probe-store.jsonl" if self.store else None
        if store_path is not None and store_path.exists():
            store_path.unlink()
        runner = self._runner(store_path)
        scale = self.scale(seed)
        for name in golden.experiment_names():
            golden.compute_result(name, scale, runner=runner)


class PaperStream:
    """One streaming NegotiaToR spec on the paper's own fabric and traffic.

    ``heavy-poisson`` with the Hadoop trace is the lazy form of the Poisson
    workload (the plain ``poisson`` scenario materializes its list even when
    streamed); the engine stops pulling flows at the spec's duration.
    """

    default_seed = PAPER.seed
    min_passes = 2

    def spec(self, seed: int) -> RunSpec:
        scale = dataclasses.replace(PAPER, seed=seed)
        return RunSpec(
            **scale_spec_fields(scale),
            system="negotiator",
            topology="parallel",
            scenario="heavy-poisson",
            scenario_params={"trace": "hadoop"},
            load=PAPER_STREAM_LOAD,
            seed=seed,
            duration_ns=PAPER_STREAM_DURATION_NS,
            stream=True,
        )

    def run_pass(self, seed, tally, tmp_dir, recorder=None) -> PassResult:
        spec = self.spec(seed)
        started = time.perf_counter()
        summary = runner_module.execute_spec(spec)
        wall = time.perf_counter() - started
        ceiling = goodput_ceiling(spec, PAPER)
        tally.check(summary_ok(summary, ceiling), "conservation paper-stream")
        return PassResult(
            wall_s=wall,
            warm_walls=[],
            executed=[("negotiator", wall, summary)],
            digest=digest_of(summary.to_dict()),
        )

    def probe(self, seed, tmp_dir) -> None:
        runner_module.execute_spec(self.spec(seed))


WORKLOADS = {
    "repro-tiny": GridWorkload(
        TINY, jobs=1, store=False, golden_check=False,
        duration_ns=TINY_DURATION_NS,
    ),
    "golden-micro": GridWorkload(
        MICRO, jobs=GOLDEN_JOBS, store=True, golden_check=True
    ),
    "paper-stream": PaperStream(),
}


# ---------------------------------------------------------------------------
# set-up probes: fresh interpreters timed up to the first engine call
# ---------------------------------------------------------------------------


def run_probe(workload, seed: int, tmp_dir: Path) -> None:
    """Child side: print ``ready`` and exit at the first engine call."""

    def first_engine_call(*args, **kwargs):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    runner_module.execute_spec = first_engine_call
    runner_module.run_with_retries = first_engine_call
    workload.probe(seed, tmp_dir)
    raise RuntimeError("setup probe finished without reaching an engine")


def setup_seconds(workload_name: str, seed: int, script: Path, tmp_dir: Path) -> list[float]:
    """Parent side: spawn-to-``ready`` host seconds of each probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(script), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed),
             "--tmp-dir", str(tmp_dir)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.close()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe for {workload_name} failed")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# measuring and reporting
# ---------------------------------------------------------------------------


def calibrated_pass(workload, seed, tally, tmp_dir, recorder=None) -> PassResult:
    """One pass with the calibration loop timed just before it."""
    calibration = calibration_s()
    result = workload.run_pass(seed, tally, tmp_dir, recorder=recorder)
    result.calibration_s = calibration
    return result


def measure(workload, seed, seconds, tally, tmp_dir) -> list[PassResult]:
    """Untraced passes until ``seconds`` would be overrun (min_passes at least)."""
    passes: list[PassResult] = []
    started = time.perf_counter()
    while True:
        passes.append(calibrated_pass(workload, seed, tally, tmp_dir))
        spent = time.perf_counter() - started
        if len(passes) >= workload.min_passes and spent + passes[-1].cycle_s > seconds:
            break
    for result in passes[1:]:
        tally.check(result.digest == passes[0].digest, "passes disagree")
    return passes


def _rates(result: PassResult) -> tuple[float, float]:
    host = sum(elapsed for _, elapsed, _ in result.executed)
    sim_us = sum(summary.duration_ns for _, _, summary in result.executed) / 1e3
    flows = sum(summary.num_flows for _, _, summary in result.executed)
    return sim_us / host, flows / host


def _sim_outputs(result: PassResult) -> tuple[float, float]:
    """Mean mice p99 FCT (us) and mean normalized goodput over executed specs."""
    summaries = [summary for _, _, summary in result.executed]
    p99s = [s.mice_fct_p99_ns / 1e3 for s in summaries if s.mice_fct_p99_ns is not None]
    return statistics.fmean(p99s), statistics.fmean(s.goodput_normalized for s in summaries)


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict:
    """{metric: (value, samples)} for every end-to-end metric."""
    warm = [w for p in passes for w in p.warm_walls] or [p.wall_s for p in passes[1:]]
    specs = [elapsed for p in passes for _, elapsed, _ in p.executed]
    p50, _ = percentile(specs, 50)
    p90, _ = percentile(specs, 90)
    rates = [_rates(p) for p in passes]
    fct_us, goodput = _sim_outputs(passes[0])
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median([p.wall_s for p in passes]), len(passes)),
        "warm_wall_s": (statistics.median(warm), len(warm)),
        "spec_s_p50": (p50, len(specs)),
        "spec_s_p90": (p90, len(specs)),
        "sim_us_per_s": (statistics.median([r[0] for r in rates]), len(passes)),
        "flows_per_s": (statistics.median([r[1] for r in rates]), len(passes)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "mice_fct_p99_us": (fct_us, len(passes[0].executed)),
        "goodput_norm": (goodput, len(passes[0].executed)),
    }


def per_layer(recorder: SpanRecorder, traced: PassResult, untraced: PassResult) -> dict:
    """{metric: (value, samples)} for every per-layer metric of a traced pass."""
    duration, own = recorder.totals()
    metrics: dict[str, tuple[float, int | None]] = {}

    def put(name, value, samples=None):
        metrics[name] = (float(value), samples)

    counters: dict[str, dict[str, float]] = {e: {} for e in ENGINES}
    for record in recorder.engines:
        total = counters[record["engine"]]
        for key, value in record["counters"].items():
            total[key] = total.get(key, 0) + value
    for engine in ENGINES:
        runs = [r for r in recorder.engines if r["engine"] == engine]
        prefix = f"engine.{engine}"
        put(f"{prefix}.run_s", own.get(f"{prefix}.run", 0.0), len(runs))
        put(f"{prefix}.build_s", own.get(prefix, 0.0), len(runs))
        put(f"{prefix}.summary_s", own.get(f"{prefix}.summary", 0.0), len(runs))
        counter, counts_skipped = STEP_COUNTER[engine]
        ff = sum(r["ff"] for r in runs)
        steps = counters[engine].get(counter, 0) - (ff if counts_skipped else 0)
        put(f"{prefix}.steps", steps)
        put(f"{prefix}.ff_steps", ff)
        for phase in PHASES[engine]:
            put(
                f"{prefix}.phase.{phase}_s",
                sum(r["phases"].get(phase, 0.0) for r in runs),
                len(runs),
            )

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    negotiator = counters["negotiator"]
    put(
        "engine.negotiator.accept_ratio",
        share(negotiator.get("accepts", 0), negotiator.get("grants", 0)),
    )
    negotiator_runs = [r for r in recorder.engines if r["engine"] == "negotiator"]
    put(
        "engine.negotiator.vectorized_share",
        share(sum(r["vectorized"] for r in negotiator_runs), len(negotiator_runs)),
        len(negotiator_runs),
    )
    oblivious = counters["oblivious"]
    put(
        "engine.oblivious.relay_share",
        share(
            oblivious.get("relay_cells", 0),
            oblivious.get("relay_cells", 0) + oblivious.get("direct_cells", 0),
        ),
    )
    rotor = counters["rotor"]
    put(
        "engine.rotor.relay_share",
        share(
            rotor.get("relay_packets", 0),
            rotor.get("relay_packets", 0) + rotor.get("direct_packets", 0),
        ),
    )
    put("workloads.build_s", own.get("workloads.build", 0.0))
    put("workloads.flows", recorder.counts.get("workloads.flows", 0))
    put("workloads.stream_next_s", duration.get("workloads.stream_next", 0.0))
    put("runner.execute_s", duration.get("runner.execute", 0.0), len(traced.executed))
    put("runner.collect_s", own.get("runner.collect", 0.0))
    put("runner.overhead_s", own.get("runner.execute", 0.0))
    put("runner.specs_executed", len(traced.executed))
    put("runner.specs_cached", traced.specs_cached)
    put(
        "runner.pool_busy_ratio",
        pool_busy_ratio(
            [elapsed for _, elapsed, _ in traced.executed], traced.jobs, traced.wall_s
        ),
    )
    for system in ENGINES:
        put(
            f"spec_s.{system}",
            sum(e for s, e, _ in traced.executed if s == system),
            sum(1 for s, _, _ in traced.executed if s == system),
        )
    put("store.put_s", duration.get("store.put", 0.0))
    put("store.puts", recorder.counts.get("store.puts", 0))
    put("store.get_s", duration.get("store.get", 0.0))
    put("store.gets", recorder.counts.get("store.gets", 0))
    put("experiments.assemble_s", own.get("experiments.compute", 0.0))
    put("telemetry.overhead_ratio", traced.wall_s / untraced.wall_s)
    put(
        "machine.calibration_s",
        statistics.median([traced.calibration_s, untraced.calibration_s]),
        2,
    )
    return metrics


def accounting(metrics: dict) -> dict:
    """How the traced self times add up to ``runner.execute_s``."""
    parts = {
        "workloads.build_s": metrics["workloads.build_s"][0],
        "workloads.stream_next_s": metrics["workloads.stream_next_s"][0],
        "engine.build_s": sum(metrics[f"engine.{e}.build_s"][0] for e in ENGINES),
        "engine.run_s": sum(metrics[f"engine.{e}.run_s"][0] for e in ENGINES),
        "engine.summary_s": sum(metrics[f"engine.{e}.summary_s"][0] for e in ENGINES),
        "runner.collect_s": metrics["runner.collect_s"][0],
        "runner.overhead_s": metrics["runner.overhead_s"][0],
    }
    parts["sum"] = sum(parts.values())
    parts["runner.execute_s"] = metrics["runner.execute_s"][0]
    return parts


def traced_run(workload, seed, tally, tmp_dir) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass; per-layer metrics + digest."""
    untraced = calibrated_pass(workload, seed, tally, tmp_dir)
    recorder = SpanRecorder(tmp_dir)
    with instrument(recorder, tmp_dir / "telemetry.jsonl"):
        traced = calibrated_pass(workload, seed, tally, tmp_dir, recorder=recorder)
    tally.check(traced.digest == untraced.digest, "tracing changed the output")
    metrics = per_layer(recorder, traced, untraced)
    extras = {
        "digest": traced.digest,
        "calibrations": [untraced.calibration_s, traced.calibration_s],
        "accounting": accounting(metrics),
    }
    return metrics, extras
