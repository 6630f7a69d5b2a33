"""Run the benchmark repeatedly and report how steady each metric is.

    python3 bench/steady.py --workload theorem-d6 --runs 10 --first-seed 1
    python3 bench/steady.py --runs 10          # every workload in turn

Each run is ``bench/run.py`` with its own seed and the run length from
``BENCHMARK.json``.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the bound from ``BENCHMARK.json``, and it writes the
same table to ``bench/out/steady-<workload>.json``.
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


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True)
            results.append(json.loads(proc.stdout.decode().splitlines()[-1]))
        table = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": bound,
                           "values": values}
        summary = {
            "workload": workload, "runs": args.runs,
            "all_correct": all(r["correct"] for r in results),
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "metrics": table,
        }
        path = os.path.join(HERE, "out", f"steady-{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        print(f"{workload}: {args.runs} runs, all correct: "
              f"{summary['all_correct']}, failed shares: "
              f"{sorted(set(summary['failed_share']))}")
        for name, row in table.items():
            print(f"  {name:14s} median {row['median']:.4f}  q1 {row['q1']:.4f}"
                  f"  q3 {row['q3']:.4f}  spread {row['spread']:.4f}"
                  f"  bound {row['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
