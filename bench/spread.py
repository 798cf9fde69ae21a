"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --seeds 101-110 --label A

Runs bench/run.py once per workload and seed, one process at a time, with
the workloads and the run length of BENCHMARK.json, and prints for every end-to-end metric the median, the quartiles (Python's
statistics.quantiles, n=4) and the quartile distance as a share of the
median.  The runs and the summary are written to bench/out/spread-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--label", default="set")
    args = parser.parse_args()

    runs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        rows = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(values)}
        shares = sorted({r["failed"] / r["attempted"] for r in mine})
        summary[workload] = {"metrics": rows, "failed_shares": shares,
                             "all_correct": all(r["correct"] for r in mine)}
        print(f"\n{workload}: failed shares {shares}")
        for name, row in rows.items():
            print(f"  {name:16s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.3f}")
    out = HERE / "out" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1),
                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
