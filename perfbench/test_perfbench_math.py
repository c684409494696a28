"""Tests for the benchmark's own arithmetic and its BENCHMARK.json manifest."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench_math import (
    clock_of,
    covered,
    format_metric_line,
    parse_metric_line,
    percentile,
    pool_busy_ratio,
    quartile_spread,
    self_times,
    totals_by_name,
)
from bench_trace import SpanRecorder

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- percentile with its samples-beyond count --------------------------------


def test_percentile_nearest_rank():
    assert percentile([3, 1, 2], 50) == (2.0, 1)
    assert percentile(range(1, 101), 90) == (90.0, 10)
    assert percentile(range(1, 101), 100) == (100.0, 0)
    assert percentile([7], 90) == (7.0, 0)


def test_percentile_beyond_count_on_the_grid_sizes():
    # repro-tiny executes 283 specs per pass, golden-micro 147: p90 must
    # leave at least ten samples beyond it on both.
    assert percentile(range(283), 90)[1] == 28
    assert percentile(range(147), 90)[1] == 14


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


# -- pool busy ratio -----------------------------------------------------------


def test_pool_busy_ratio():
    assert pool_busy_ratio([1.0, 1.0, 1.0, 1.0], jobs=2, wall_s=2.0) == 1.0
    assert pool_busy_ratio([0.5, 0.5], jobs=2, wall_s=2.0) == 0.25
    assert pool_busy_ratio([3.0], jobs=1, wall_s=4.0) == 0.75
    with pytest.raises(ValueError):
        pool_busy_ratio([1.0], jobs=0, wall_s=1.0)
    with pytest.raises(ValueError):
        pool_busy_ratio([1.0], jobs=1, wall_s=0.0)


# -- self time: parent minus covered child time --------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(1, 3), (2, 5), (8, 9)]) == 5
    assert covered((0, 10), [(-5, 2), (9, 20)]) == 3
    assert covered((0, 10), [(11, 12)]) == 0


def test_self_time_is_parent_minus_covered_children():
    spans = [
        ("runner.execute", 0.0, 10.0, None),
        ("workloads.build", 1.0, 3.0, 0),
        ("engine.negotiator", 3.0, 9.0, 0),
        ("engine.negotiator.run", 4.0, 8.5, 2),
    ]
    own = self_times(spans)
    assert own == pytest.approx([2.0, 2.0, 1.5, 4.5])
    # Self times of a tree add back up to the root's duration.
    assert sum(own) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 4.0, None), ("a", 0.0, 3.0, 0), ("b", 1.0, 4.0, 0)]
    assert self_times(spans)[0] == pytest.approx(0.0)


def test_totals_by_name_sums_durations_and_self_times():
    spans = [
        ("x", 0.0, 2.0, None),
        ("y", 0.5, 1.0, 0),
        ("x", 3.0, 4.0, None),
    ]
    duration, own = totals_by_name(spans)
    assert duration == pytest.approx({"x": 3.0, "y": 0.5})
    assert own == pytest.approx({"x": 2.5, "y": 0.5})


def test_span_recorder_nests(tmp_path):
    recorder = SpanRecorder(tmp_path)
    with recorder.span("runner.execute"):
        with recorder.span("engine.rotor"):
            assert recorder.top_name() == "engine.rotor"
    assert recorder.top_name() is None
    (outer, _s1, _e1, parent1), (inner, _s2, _e2, parent2) = recorder.spans
    assert (outer, parent1) == ("runner.execute", None)
    assert (inner, parent2) == ("engine.rotor", 0)
    duration, own = recorder.totals()
    assert own["runner.execute"] + own["engine.rotor"] == pytest.approx(
        duration["runner.execute"]
    )


# -- the printed metric lines ----------------------------------------------------


def test_metric_line_round_trip():
    line = format_metric_line("spec_s_p90", 0.1234567890123, "s", "host", 283)
    assert line == "metric spec_s_p90=0.1234567890123 unit=s clock=host n=283"
    assert parse_metric_line(line) == {
        "name": "spec_s_p90",
        "value": 0.1234567890123,
        "unit": "s",
        "clock": "host",
        "samples": 283,
    }
    bare = parse_metric_line(format_metric_line("sim_us_per_s", 5.0, "us/s", "sim/host"))
    assert bare == {"name": "sim_us_per_s", "value": 5.0, "unit": "us/s", "clock": "sim/host"}


def test_metric_line_parse_rejects_other_lines():
    with pytest.raises(ValueError):
        parse_metric_line("result_digest abc")


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


# -- BENCHMARK.json follows the manifest rules -----------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_rules():
    manifest = json.loads(MANIFEST.read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    end_to_end, per_layer = manifest["end_to_end"], manifest["per_layer"]
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    assert bounds["setup_s"] == max(bounds.values())
    metrics = end_to_end + per_layer
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    names = [w["name"] for w in manifest["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])


def test_every_manifest_metric_has_a_clock():
    manifest = json.loads(MANIFEST.read_text())
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert clock_of(metric["name"], metric["unit"]) in (
            "host", "sim", "sim/host", "mem", "count"
        )
    assert clock_of("goodput_norm", "ratio") == "sim"
    assert clock_of("engine.negotiator.accept_ratio", "ratio") == "count"
