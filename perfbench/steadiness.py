"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads montecarlo rts96 --seeds 1-10

For every workload and end-to-end metric it prints the median, the first and
third quartile (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  The latencies that runs
print but do not gate (item_ms_p50, item_ms_p90) are listed with bound "-".
Runs are sequential, one process at a time.  Each run's result line is
appended to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORTED = {"item_ms_p50": "ms", "item_ms_p90": "ms"}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "results", "steadiness.jsonl"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)

    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in proc.stdout.splitlines():
                name, _, rest = line.partition(" ")
                if name in REPORTED and rest.split()[1] == REPORTED[name]:
                    values.setdefault(name, []).append(float(rest.split()[0]))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:11s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  bound {bound or '-'}  runs {len(vals)}", flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
