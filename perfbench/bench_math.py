"""The benchmark's own arithmetic: percentiles, ratios, self time, metric lines.

Everything here is pure (no simulator imports) so it can be unit-tested in
isolation by ``test_perfbench_math.py``.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    The value is the smallest sample with at least ``q`` percent of the
    samples at or below it; ``beyond`` counts the samples ranked above it,
    which is what decides whether a tail percentile is trustworthy (a
    reported tail should leave at least ten samples beyond it).
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


def pool_busy_ratio(elapsed_s, jobs: int, wall_s: float) -> float:
    """Share of the pool's capacity spent inside specs.

    ``sum(per-spec elapsed) / (jobs * wall)``: 1.0 means every worker was
    busy for the whole pass; the rest is dispatch, idle and straggler time.
    """
    if jobs < 1 or wall_s <= 0:
        raise ValueError("need jobs >= 1 and a positive wall time")
    return float(sum(elapsed_s)) / (jobs * wall_s)


def covered(interval: tuple[float, float], children) -> float:
    """Length of ``interval`` covered by the union of ``children`` intervals."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the part its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent_index)`` records
    (extra trailing fields are ignored); ``parent_index`` is None for roots.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[3]
        if parent is not None:
            children[parent].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered((span[1], span[2]), children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def totals_by_name(spans) -> tuple[dict[str, float], dict[str, float]]:
    """({name: total duration}, {name: total self time})."""
    duration: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        duration[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    return dict(duration), dict(own)


# ---------------------------------------------------------------------------
# the human-readable metric lines printed before the final JSON object
# ---------------------------------------------------------------------------


#: Which time a metric is measured in, by unit: ``host`` is what the
#: simulator takes to run on this machine, ``sim`` what the modelled fabric
#: would take, ``sim/host`` a rate of one over the other.
CLOCK_BY_UNIT = {
    "s": "host",
    "1/s": "host",
    "us/s": "sim/host",
    "us": "sim",
    "MB": "mem",
    "count": "count",
    "ratio": "count",
}

#: Ratios that are not of counts.
RATIO_CLOCKS = {
    "goodput_norm": "sim",
    "runner.pool_busy_ratio": "host",
    "telemetry.overhead_ratio": "host",
}


def clock_of(name: str, unit: str) -> str:
    return RATIO_CLOCKS.get(name, CLOCK_BY_UNIT[unit])


def format_metric_line(
    name: str, value: float, unit: str, clock: str, samples: int | None = None
) -> str:
    """``metric <name>=<value> unit=<unit> clock=<clock> [n=<samples>]``."""
    line = f"metric {name}={value!r} unit={unit} clock={clock}"
    if samples is not None:
        line += f" n={samples}"
    return line


def parse_metric_line(line: str) -> dict:
    """Inverse of :func:`format_metric_line`."""
    words = line.split()
    if not words or words[0] != "metric":
        raise ValueError(f"not a metric line: {line!r}")
    name, _, value = words[1].partition("=")
    fields = dict(word.partition("=")[::2] for word in words[2:])
    record = {
        "name": name,
        "value": float(value),
        "unit": fields["unit"],
        "clock": fields["clock"],
    }
    if "n" in fields:
        record["samples"] = int(fields["n"])
    return record
