"""Run the benchmark command from BENCHMARK.json over several seeds and
report, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median), as statistics.quantiles gives them.

    python3 benchmark/repeat.py --workload qa-kb --seeds 1-10 [--trace 1]

Each run's JSON line is appended to benchmark/results/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    log_path = os.path.join(HERE, "results", f"{args.workload}.jsonl")

    runs = []
    for seed in _seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = wall
        runs.append(result)
        with open(log_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", file=sys.stderr)

    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in all runs: {all(r['correct'] for r in runs)}; failed shares: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
