"""Spans and counts around the public functions of the lieid layers.

The tracer replaces each traced function by a wrapper wherever a lieid
module binds it by name: ``tideal`` imports ``substitute``, ``assoc_expand``,
``span``, ``kernel`` and ``solve_in_span`` into its own namespace, so patching
only the defining module would miss its calls.  Each call appends one span
``[name, start_ns, end_ns, parent, note]`` to an in-memory list; ``parent``
is the index of the enclosing traced span (-1 at the top) and ``note``
carries a count where a metric needs one.  Nothing is written until
``write``.

A function's time is the summed duration of its outermost calls, those not
nested in a call of the same function; self time subtracts the time of
direct child spans.  ``Evaluator.monomial`` recurses, so only its outermost
calls become spans.

The overhead of tracing is estimated as the number of spans times the
extra cost of one traced call, measured on a wrapped no-op function.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections.abc import Sized

# (metric prefix, module, attribute path) for every traced function.
TRACED = (
    ("tideal.check_generation", "lieid.tideal", "check_generation"),
    ("tideal.consequences", "lieid.tideal", "consequences"),
    ("tideal.identities", "lieid.tideal", "identities"),
    ("tideal.component", "lieid.tideal", "component"),
    ("tideal.quotient", "lieid.tideal", "zero_in_quotient"),
    ("lie_core.substitute", "lieid.lie_core", "substitute"),
    ("lie_core.assoc_expand", "lieid.lie_core", "assoc_expand"),
    ("lie_core.polarize", "lieid.lie_core", "polarize"),
    ("eval_gl2.evaluate", "lieid.eval_gl2", "Evaluator.monomial"),
    ("gf2linalg.span", "lieid.gf2linalg", "span"),
    ("gf2linalg.kernel", "lieid.gf2linalg", "kernel"),
    ("gf2linalg.solve", "lieid.gf2linalg", "solve_in_span"),
)

# Per-layer metrics in report order, with units.
METRICS = (
    ("tideal.check_generation_s", "s"),
    ("tideal.consequences_s", "s"),
    ("tideal.consequences_self_s", "s"),
    ("tideal.instances", "count"),
    ("tideal.instance_vectors", "count"),
    ("tideal.rank", "count"),
    ("tideal.useful_ratio", "ratio"),
    ("tideal.identities_s", "s"),
    ("tideal.identities_self_s", "s"),
    ("tideal.component_s", "s"),
    ("tideal.words", "count"),
    ("tideal.quotient_queries", "count"),
    ("tideal.quotient_s", "s"),
    ("lie_core.substitute_s", "s"),
    ("lie_core.assoc_expand_s", "s"),
    ("lie_core.assoc_expand_calls", "count"),
    ("lie_core.polarize_s", "s"),
    ("lie_core.polarize_calls", "count"),
    ("eval_gl2.evaluate_s", "s"),
    ("eval_gl2.monomials_evaluated", "count"),
    ("gf2linalg.span_s", "s"),
    ("gf2linalg.span_vectors", "count"),
    ("gf2linalg.kernel_s", "s"),
    ("gf2linalg.kernel_rows", "count"),
    ("gf2linalg.solve_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_est_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._active: dict[str, int] = {}

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1], 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        active = self._active
        active[name] = 0
        recursive = name == "eval_gl2.evaluate"

        def traced(*args, **kwargs):
            if recursive and active[name]:
                active[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    active[name] -= 1
            rec = tracer.begin(name)
            rec.append(active[name] == 0)
            if name in ("gf2linalg.span", "gf2linalg.kernel"):
                items = args[1]
                if not isinstance(items, Sized):
                    items = list(items)
                    args = (args[0], items) + args[2:]
                rec[4] = len(items)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                tracer.end(rec)
            if name == "gf2linalg.span":
                rec.append(result.dim)
            elif name == "tideal.component":
                rec.append((result.multidegree.items(), result.index.size))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function that exists, in every lieid module
        that binds it.  A name a later version of lieid drops is skipped,
        and its metrics read 0."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lieid" or n.startswith("lieid."))]
        for name, module_name, path in TRACED:
            owner = sys.modules.get(module_name)
            head, _, attr = path.rpartition(".")
            if owner is None:
                continue
            if head:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            if head:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        parent_name = [spans[rec[3]][0] if rec[3] >= 0 else "" for rec in spans]
        time_ns: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        note: dict[str, int] = {}
        instances = instance_vectors = rank = 0
        words: dict = {}
        for i, rec in enumerate(spans):
            name = rec[0]
            dur = rec[2] - rec[1]
            calls[name] = calls.get(name, 0) + 1
            note[name] = note.get(name, 0) + rec[4]
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            if len(rec) > 5 and rec[5]:
                time_ns[name] = time_ns.get(name, 0) + dur
            if parent_name[i] == "tideal.consequences":
                if name == "lie_core.substitute":
                    instances += 1
                elif name == "gf2linalg.span" and len(rec) > 6:
                    instance_vectors += rec[4]
                    rank += rec[6]
            if name == "tideal.component" and len(rec) > 6:
                words[rec[6][0]] = rec[6][1]

        def secs(name: str) -> float:
            return time_ns.get(name, 0) / 1e9

        return {
            "tideal.check_generation_s": secs("tideal.check_generation"),
            "tideal.consequences_s": secs("tideal.consequences"),
            "tideal.consequences_self_s": self_ns.get("tideal.consequences", 0) / 1e9,
            "tideal.instances": instances,
            "tideal.instance_vectors": instance_vectors,
            "tideal.rank": rank,
            "tideal.useful_ratio": rank / instances if instances else 0.0,
            "tideal.identities_s": secs("tideal.identities"),
            "tideal.identities_self_s": self_ns.get("tideal.identities", 0) / 1e9,
            "tideal.component_s": secs("tideal.component"),
            "tideal.words": sum(words.values()),
            "tideal.quotient_queries": calls.get("tideal.quotient", 0),
            "tideal.quotient_s": secs("tideal.quotient"),
            "lie_core.substitute_s": secs("lie_core.substitute"),
            "lie_core.assoc_expand_s": secs("lie_core.assoc_expand"),
            "lie_core.assoc_expand_calls": calls.get("lie_core.assoc_expand", 0),
            "lie_core.polarize_s": secs("lie_core.polarize"),
            "lie_core.polarize_calls": calls.get("lie_core.polarize", 0),
            "eval_gl2.evaluate_s": secs("eval_gl2.evaluate"),
            "eval_gl2.monomials_evaluated": calls.get("eval_gl2.evaluate", 0),
            "gf2linalg.span_s": secs("gf2linalg.span"),
            "gf2linalg.span_vectors": note.get("gf2linalg.span", 0),
            "gf2linalg.kernel_s": secs("gf2linalg.kernel"),
            "gf2linalg.kernel_rows": note.get("gf2linalg.kernel", 0),
            "gf2linalg.solve_s": secs("gf2linalg.solve"),
            "trace.spans": len(spans),
            "trace.overhead_est_s": len(spans) * span_cost_s(),
        }

    def write(self, path: str, meta: dict) -> None:
        """Write every span as [name, start_ns, end_ns, parent, note]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["name", "start_ns", "end_ns",
                                          "parent", "note"],
                       "spans": [rec[:5] for rec in self.spans]}, handle)


def span_cost_s(calls: int = 20000, repeats: int = 9) -> float:
    """Median extra seconds one traced call costs over a plain one."""
    def noop(*args):
        return None

    traced = Tracer()._wrap("trace.calibrate", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop(None, None)
        middle = time.perf_counter()
        for _ in range(calls):
            traced(None, None)
        costs.append((time.perf_counter() - middle - (middle - start)) / calls)
    return statistics.median(costs)


def split_by_operation(path: str) -> dict[str, dict[str, float]]:
    """Seconds per operation and per traced function, from a trace file.

    Each operation is a root span ``op:<label>``; a function's time under it
    is the duration of its outermost calls there.
    """
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    out: dict[str, dict[str, float]] = {}
    root_of: list[int] = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        root = i if parent < 0 else root_of[parent]
        root_of.append(root)
        row = out.setdefault(spans[root][0][3:], {})
        if parent < 0:
            row["total"] = (end - start) / 1e9
            continue
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            row[name] = row.get(name, 0.0) + (end - start) / 1e9
    return out


if __name__ == "__main__":
    # python3 bench/tracing.py bench/out/trace-<...>.json
    for op, row in split_by_operation(sys.argv[1]).items():
        print(op, " ".join(f"{k}={v:.3f}" for k, v in sorted(row.items())))
