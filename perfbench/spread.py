"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workload tables --seeds 1-10

Runs the benchmark once per seed, one run at a time, printing each run's wall
time and metrics, then for each end-to-end metric the median and the quartile
spread (Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them.  A spread above a
third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        wall = time.perf_counter() - t0
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']} failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.1f} s): "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{args.workload:18s} {metric['name']:22s} median {med:.6g} "
              f"spread {spread:.4f} bound {metric['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
