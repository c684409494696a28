"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload repro-tiny --seed 2024 --seconds 30 --trace 0

``--trace 0`` measures untraced passes for ``--seconds`` and reports every
``end_to_end`` metric of BENCHMARK.json; ``--trace 1`` runs one untraced and
one traced pass and reports every ``per_layer`` metric.  Human-readable
``metric``, ``fingerprint`` and ``result_digest`` lines come first; the last
line of stdout is the JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A run that raises still prints it, with ``correct`` false and
0 for every metric it could not measure.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402  (needs the src path above)

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: repro must be imported from {ROOT / 'src'}")

import bench_workloads as bw  # noqa: E402
from bench_math import clock_of, format_metric_line  # noqa: E402


def manifest_metrics(trace: int) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json asks of this kind of run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: the scale's own seed)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tmp-dir", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report(name, seed, metrics, wanted, tally, fingerprint, digest) -> None:
    print(f"workload {name} seed={seed}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"result_digest {digest}")
    missing = [metric for metric in wanted if metric not in metrics]
    if metrics and missing:
        tally.check(False, f"not measured: {', '.join(missing)}")
    payload = {}
    for metric, unit in wanted.items():
        value, samples = metrics.get(metric, (0.0, 0))
        print(format_metric_line(metric, value, unit, clock_of(metric, unit), samples))
        payload[metric] = {"value": value, "unit": unit}
    fail_ratio = tally.failed / tally.attempted
    print(format_metric_line("fail_ratio", fail_ratio, "ratio", "count", tally.attempted))
    for problem in tally.problems:
        print(f"check-failed {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": payload,
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = bw.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        bw.run_probe(workload, seed, args.tmp_dir)
        return 1
    wanted = manifest_metrics(args.trace)
    tmp_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp_dir.mkdir(parents=True, exist_ok=True)
    tally = bw.Tally()
    metrics, calibrations, digest = {}, [], None
    try:
        if args.trace:
            metrics, extras = bw.traced_run(workload, seed, tally, tmp_dir)
            print("accounting " + json.dumps(extras["accounting"], sort_keys=True))
            calibrations, digest = extras["calibrations"], extras["digest"]
        else:
            passes = bw.measure(workload, seed, args.seconds, tally, tmp_dir)
            calibrations = [p.calibration_s for p in passes]
            digest = passes[0].digest
            setup = bw.setup_seconds(
                args.workload, seed, Path(__file__).resolve(), tmp_dir
            )
            metrics = bw.end_to_end(passes, setup)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        tally.check(False, f"run raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        parent = tmp_dir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()
    report(
        args.workload, seed, metrics, wanted, tally,
        bw.fingerprint(calibrations), digest,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
