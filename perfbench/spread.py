"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-stream --seeds 1 2 3 4 5

Spread is (Q3 - Q1) / median over the runs, quartiles as
``statistics.quantiles(n=4)``; it is compared with the metric's bound from
BENCHMARK.json (the benchmark is steady when every spread except
``setup_s``'s is below a third of its bound).  ``--out`` keeps the raw
result objects as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_math import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    runs = []
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        spread = quartile_spread(values) if len(values) >= 2 and statistics.median(values) else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        )
        print(f"{name:40s} median={statistics.median(values):.6g} spread={spread:.4f} "
              f"bound={bound} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
