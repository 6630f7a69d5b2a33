"""The lieid benchmark: one workload, timed, checked, and reported.

    python3 bench/run.py --workload theorem-d6 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Every round of a workload runs in a fresh
worker process (``bench/worker.py``), because every lieid run pays to fill
its module caches.  Rounds repeat while the next one is expected to end
within ``--seconds``, and at least one runs.  Each operation's output is
checked against the independent oracle in ``bench/oracle.py`` or a required
property; the seed chooses the oracle's evaluation points.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, medians over the rounds; with
``--trace 1`` untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced rounds plus the tracing overhead.  The run
report, and the spans of traced rounds, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("theorem-d6", "identity-d7", "lemma-suites")
# Set-up is short and noisy, so each run also starts this many workers that
# only set up, and reports the median over them and the rounds.
SETUP_REPEATS = 10
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, *extra: str) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    return report["ready"] - start, report


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when correct

def _check_frame(md: tuple, labels: list) -> list[str]:
    words = [tuple(w) for w in labels]
    want = sorted(i + 1 for i, m in enumerate(md) for _ in range(m))
    if len(set(words)) != len(words):
        return ["frame has duplicate words"]
    if any(sorted(w) != want for w in words):
        return ["frame has a word of another multidegree"]
    return []


def _check_basis(orc: oracle.Oracle, md: tuple, labels: list, vectors: list,
                 dim: int, what: str, memo: dict) -> list[str]:
    """The basis has dim independent nonzero vectors in the frame, and
    each one vanishes on gl2."""
    ints = [int(v, 16) for v in vectors]
    problems = []
    if len(ints) != dim or oracle.gf2_rank(ints) != dim:
        problems.append(f"{what} basis is not {dim} independent vectors")
    for v in ints:
        key = (md, v)
        if key not in memo:
            if v <= 0 or v.bit_length() > len(labels):
                memo[key] = False
            else:
                words = [labels[i] for i in range(v.bit_length()) if v >> i & 1]
                memo[key] = orc.vanishes(md, words)
        if not memo[key]:
            problems.append(f"{what} basis vector is not a gl2 identity")
            break
    return problems


class Checker:
    def __init__(self, seed: int):
        self.oracle = oracle.Oracle(seed)
        self._vanish: dict = {}

    def check(self, workload: str, out: dict) -> list[str]:
        if workload == "lemma-suites":
            return self._check_suite(out)
        md = tuple(out["md"])
        problems = _check_frame(md, out["labels"])
        if out["dim_component"] != oracle.witt_dim(md):
            problems.append("component dimension differs from Witt's formula")
        if out["dim_identities"] != self.oracle.identity_dim(md):
            problems.append("identity dimension differs from the oracle")
        problems += _check_basis(self.oracle, md, out["labels"], out["ids"],
                                 out["dim_identities"], "identity", self._vanish)
        if workload == "theorem-d6":
            if not out["equal"]:
                problems.append("consequence span differs from identity space")
            if out["dim_consequences"] != out["dim_identities"]:
                problems.append("consequence and identity dimensions differ")
            problems += _check_frame(md, out["cons_labels"])
            problems += _check_basis(self.oracle, md, out["cons_labels"],
                                     out["cons"], out["dim_consequences"],
                                     "consequence", self._vanish)
        return problems

    def _check_suite(self, out: dict) -> list[str]:
        name, report = out["suite"], out["report"]
        problems = []
        if out["exit"] != 0 or not report.get("ok"):
            problems.append(f"{name} exited with code {out['exit']}")
        suite = report.get("checks", {}).get(name, {})
        if suite.get("pass") is not True:
            problems.append(f"{name} did not pass")
        details = suite.get("details", {})
        if name == "Lmultlin":
            for n in (4, 5, 6):
                got = details.get(f"n{n}", {}).get("dim_identities")
                if got != self.oracle.identity_dim((1,) * n):
                    problems.append(f"Lmultlin dim at n={n} differs from the oracle")
        if name == "Lfact2":
            for n in (4, 5):
                if details.get(f"n{n}", {}).get("dim") != math.comb(n - 2, 2):
                    problems.append(f"Lfact2 dim at n={n} is not C(n-2, 2)")
        return problems


# ---------------------------------------------------------------------------

def round_metrics(report: dict) -> dict[str, float]:
    times = [op["seconds"] for op in report["ops"]]
    return {"wall_s": sum(times), "slowest_op_s": max(times),
            "peak_rss_mb": report["peak_rss_mb"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setups.append(spawn(args.workload, "--setup-only")[0])
    # Whole rounds only: another round starts when it is expected to end
    # within --seconds, judged by the longest round so far.
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while not plain or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        setup, report = spawn(args.workload)
        setups.append(setup)
        plain.append(report)
        if args.trace:
            trace_file = os.path.join(OUT, f"trace-{tag}-{len(traced)}.json")
            traced.append(spawn(args.workload, "--trace", trace_file)[1])
        longest = max(longest, time.monotonic() - began)

    checker = Checker(args.seed)
    attempted = 0
    failures: list[str] = []
    problems: list[str] = []
    for report in plain + traced:
        for op in report["ops"]:
            attempted += 1
            if op["error"] is not None:
                failures.append(f"{op['op']}: failed: {op['error']}")
                continue
            problems += [f"{op['op']}: {p}"
                         for p in checker.check(args.workload, op["output"])]

    per_round = [round_metrics(r) for r in plain]
    if args.trace:
        metrics = {}
        for name, unit in tracing.METRICS:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(round_metrics(r)["wall_s"] for r in traced)
                    - statistics.median(m["wall_s"] for m in per_round))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name, unit in (("wall_s", "s"), ("slowest_op_s", "s"),
                           ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(m[name] for m in per_round),
                             "unit": unit}

    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": len(plain), "setups": setups,
                   "per_round": per_round, "problems": failures + problems,
                   "slowest_ops": [max(r["ops"], key=lambda o: o["seconds"])["op"]
                                   for r in plain]}, fh, indent=1)
    for problem in failures + problems:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (WorkerError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
