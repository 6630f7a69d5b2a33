"""One round of one workload, in a fresh process with cold lieid caches.

    python3 bench/worker.py --workload theorem-d6 [--trace FILE]
    python3 bench/worker.py --workload theorem-d6 --setup-only

Imports lieid from the ``src`` directory of the checkout this file sits in,
builds the operations, runs them one after another, and
prints one JSON object: the monotonic time the first operation started
(``ready``), each operation's duration and outputs, and the peak RSS read
before the outputs are serialised.  ``bench/run.py`` checks the outputs.
With ``--setup-only`` it stops after building the operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import lieid  # noqa: E402
from lieid import cli, tideal  # noqa: E402
from lieid.lie_core import MultiDeg  # noqa: E402

if not os.path.abspath(lieid.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"lieid was imported from {lieid.__file__}, not {SRC}")

SUITES = ("L1e2", "LFid", "LF", "LFid2", "L9mine", "Lfact2", "Lmultlin")
# 1^7 (about 74 s) and (2,1,1,1,1,1) (about 20 s and 862 MB) are too long to
# repeat; the other thirteen shapes of total degree 7 stay.
D7_SKIPPED = ((1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1))


def partitions(t: int, bound: int | None = None):
    """Partitions of t, parts nonincreasing, largest first."""
    if t == 0:
        yield ()
        return
    for part in range(min(t, bound or t), 0, -1):
        for rest in partitions(t - part, part):
            yield (part,) + rest


def shapes(workload: str) -> list[tuple[int, ...]]:
    if workload == "theorem-1x7":
        return [(1,) * 7]
    if workload == "theorem-d6":
        return [p for t in range(1, 7) for p in partitions(t)]
    if workload == "identity-d7":
        return [p for p in partitions(7) if p not in D7_SKIPPED]
    raise ValueError(workload)


def _hex(vectors) -> list[str]:
    return [format(v, "x") for v in vectors]


def build(workload: str) -> list[tuple[str, object, object]]:
    """(label, operation, output collector) triples, in run order.  A
    multidegree is canonical: its multiplicities go to x1, x2, ... in
    nonincreasing order, as in ``tideal.canonical_multidegrees``."""
    ops = []
    if workload == "lemma-suites":
        for name in SUITES:
            def op(name=name):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["lemmas", "--run", name, "--json"])
                return code, out.getvalue()

            def collect(result, name=name):
                code, text = result
                return {"suite": name, "exit": code, "report": json.loads(text)}

            ops.append((name, op, collect))
        return ops
    for mults in shapes(workload):
        md = MultiDeg({i + 1: m for i, m in enumerate(mults)})
        label = ",".join(map(str, mults))
        if workload.startswith("theorem"):
            def op(md=md):
                return tideal.check_generation(md)

            def collect(rep, md=md, mults=mults):
                ids = tideal.identities(md)
                gens = tideal.theorem_generators(max(md.total, 4))
                cons = tideal.consequences(gens, md)
                return {"md": mults, "equal": rep.equal,
                        "dim_consequences": rep.dim_consequences,
                        "dim_identities": rep.dim_identities,
                        "dim_component": tideal.component(md).dim,
                        "labels": ids.index.labels,
                        "cons_labels": cons.index.labels,
                        "ids": _hex(ids.basis_vectors()),
                        "cons": _hex(cons.basis_vectors())}
        else:
            def op(md=md):
                return tideal.identities(md)

            def collect(ids, md=md, mults=mults):
                return {"md": mults, "dim_identities": ids.dim,
                        "dim_component": tideal.component(md).dim,
                        "labels": ids.index.labels,
                        "ids": _hex(ids.basis_vectors())}
        ops.append((label, op, collect))
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # theorem-1x7 is a once-measured reference, too long for a workload
    parser.add_argument("--workload", required=True,
                        choices=("theorem-d6", "identity-d7", "lemma-suites",
                                 "theorem-1x7"))
    parser.add_argument("--trace", metavar="FILE",
                        help="wrap the lieid layers and write spans to FILE")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    ops = build(args.workload)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    results = []
    for label, op, _ in ops:
        rec = tracer.begin("op:" + label) if tracer else None
        start = time.perf_counter()
        try:
            value, error = op(), None
        except Exception as exc:  # counted as a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(rec)
        results.append((label, seconds, value, error))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"ready": ready, "peak_rss_mb": peak_rss_mb, "ops": []}
    if tracer:
        report["layers"] = tracer.metrics()
        tracer.write(args.trace, {"workload": args.workload})
    for (label, seconds, value, error), (_, _, collect) in zip(results, ops):
        entry = {"op": label, "seconds": seconds, "error": error}
        if error is None:
            entry["output"] = collect(value)
        report["ops"].append(entry)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
