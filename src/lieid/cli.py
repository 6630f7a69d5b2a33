"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when a check fails (for
example the expression is not an identity), 2 on input or usage errors
(syntax errors, degree cap exceeded, unreadable files).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import Callable, Iterable

from . import tideal
from .eval_gl2 import is_identity_gl2, is_identity_sl2
from .expr import ParseError, format_poly, parse
from .lie_core import (
    DegreeCapError,
    LiePoly,
    MultiDeg,
    check_degree_cap,
    get_degree_cap,
    is_zero,
    multidegree,
    set_degree_cap,
)

__all__ = ["main", "LEMMAS", "generation_check"]

ENV_MAX_DEGREE = "LIEID_MAX_DEGREE"
# Multidegrees print densely, one entry per index from x1 up to the largest
# index, so the largest index is bounded to keep the output bounded.
MAX_PRINTED_INDEX = 100_000
# The draws of the LFid suite's random tail-rewriting instances.
TAIL_REWRITING_SEED = 230


def _parse_multidegree(text: str) -> MultiDeg:
    try:
        mults = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad multidegree {text!r}: expected comma-separated"
                         " integers") from None
    if not mults or any(m < 0 for m in mults):
        raise ValueError(f"bad multidegree {text!r}: multiplicities must be"
                         " nonnegative")
    md = MultiDeg({i + 1: m for i, m in enumerate(mults)})
    if md.total == 0:
        raise ValueError(f"bad multidegree {text!r}: total degree is zero")
    return md


def _format_multidegree(md: MultiDeg) -> str:
    top = max(md.indices())
    if top > MAX_PRINTED_INDEX:
        raise ValueError(f"variable index {top} is too large: multidegrees are"
                         f" printed for indices up to {MAX_PRINTED_INDEX}")
    return ",".join(str(md[i]) for i in range(1, top + 1))


def _split_components(p: LiePoly) -> list[tuple[MultiDeg, LiePoly]]:
    groups: dict[MultiDeg, list] = {}
    for m in p.monomials:
        groups.setdefault(multidegree(m), []).append(m)
    out = [(md, LiePoly.of(*ms)) for md, ms in groups.items()]
    out.sort(key=lambda item: (item[0].total, item[0].items()))
    return out


def _check_max_total_degree(value: int) -> None:
    """Refuse the value before any work is done below it."""
    if value < 1:
        raise ValueError(f"--max-total-degree must be at least 1, got {value}")
    check_degree_cap(value)


def _basis_printout(md: MultiDeg, space) -> list[str]:
    return [format_poly(tideal.lie_poly_from_vector(md, row))
            for row in space.basis_vectors()]


# ---------------------------------------------------------------------------
# subcommands; each returns (report dict, ok flag)

def cmd_normalize(args) -> tuple[dict, bool]:
    poly = parse(args.expr)
    return {"normalized": format_poly(poly)}, True


def cmd_verify(args) -> tuple[dict, bool]:
    poly = parse(args.expr)
    checker = is_identity_gl2 if args.algebra == "gl2" else is_identity_sl2
    components = []
    overall = True
    for md, part in _split_components(poly):
        verdict = checker(part)
        overall = overall and verdict
        components.append({
            "multidegree": _format_multidegree(md),
            "identity": verdict,
        })
    return {
        "algebra": args.algebra,
        "components": components,
        "identity": overall,
    }, overall


def cmd_identities(args) -> tuple[dict, bool]:
    md = _parse_multidegree(args.multidegree)
    space = tideal.identities(md)
    report = {
        "multidegree": _format_multidegree(md),
        "dim": space.dim,
        "dim_component": tideal.component(md).dim,
    }
    if args.basis:
        report["basis"] = _basis_printout(md, space)
    return report, True


def cmd_consequences(args) -> tuple[dict, bool]:
    md = _parse_multidegree(args.multidegree)
    gens = tideal.load_generator_file(args.gens)
    space = tideal.consequences(gens, md)
    report = {
        "multidegree": _format_multidegree(md),
        "generators": [gen.name for gen in gens.generators],
        "polarize": gens.polarize_closure,
        "dim": space.dim,
    }
    if args.basis:
        report["basis"] = _basis_printout(md, space)
    return report, True


def generation_check(mds: Iterable[MultiDeg]) -> tuple[list[dict], bool]:
    """One row per multidegree comparing the consequence span of the
    candidate generating set with the identity space; ok when all agree.
    A row that disagrees names its witness, when there is one: an identity
    that is not a consequence."""
    rows = []
    for md in mds:
        rep = tideal.check_generation(md)
        row = {
            "multidegree": _format_multidegree(md),
            "dim_consequences": rep.dim_consequences,
            "dim_identities": rep.dim_identities,
            "equal": rep.equal,
        }
        if rep.witness is not None:
            row["witness"] = format_poly(rep.witness)
        rows.append(row)
    return rows, all(row["equal"] for row in rows)


def cmd_check_theorem(args) -> tuple[dict, bool]:
    _check_max_total_degree(args.max_total_degree)
    rows, ok = generation_check(
        tideal.canonical_multidegrees(1, args.max_total_degree))
    return {
        "max_total_degree": args.max_total_degree,
        "components": rows,
        "all_equal": ok,
    }, ok


# --- the named check suites -------------------------------------------------
# Each returns (details, ok); ``LEMMAS`` names them, and the acceptance tests
# call them through it.

def _checks_base_identities() -> tuple[dict, bool]:
    """Both stated identity families hold on gl2."""
    base = is_identity_gl2(tideal.BASE_RELATION)
    family = {n: is_identity_gl2(tideal.word_pair_element(n))
              for n in range(2, 7)}
    ok = base and all(family.values())
    return {
        "base_relation_identity": base,
        "word_pair_identity": {str(n): v for n, v in family.items()},
    }, ok


def _checks_tail_rewriting() -> tuple[dict, bool]:
    """Tail letters move freely between factors in the quotient: a fixed
    instance and five random ones.  Every instance is nonzero in the free
    Lie algebra, so its vanishing in the quotient says something; a random
    draw that is already zero there (x = y, u = v, or no letter moved) is
    drawn again."""
    rng = random.Random(TAIL_REWRITING_SEED)

    def nonzero_draw() -> LiePoly:
        while True:
            n = rng.randint(1, 3)
            alphabet = [1, 2, 3][: rng.randint(2, 3)]
            letters = [rng.choice(alphabet) for _ in range(n + 4)]
            x, y, u, v = letters[:4]
            gs = letters[4:]
            r = rng.randint(0, n)
            sigma = list(range(n))
            rng.shuffle(sigma)
            diff = tideal.tail_rewrite_difference(x, y, gs, u, v, r, sigma)
            if not is_zero(diff):
                return diff

    fixed = tideal.tail_rewrite_difference(1, 2, [5], 3, 4, 0, [0])
    results = {
        "fixed_instance": tideal.zero_in_quotient(fixed),
        "random_instances": all(tideal.zero_in_quotient(nonzero_draw())
                                for _ in range(5)),
    }
    return results, results["fixed_instance"] and results["random_instances"]


def _checks_derived_spans() -> tuple[dict, bool]:
    """Spanning sets for the derived subalgebra of the quotient.  That its
    triple products [[L', L'], L] vanish is how the quotient is built
    (``tideal.base_consequences``), so no check of it is made here."""
    per_part = {}
    ok = True
    for part in (1, 2, 3):
        failures = []
        for md in tideal.canonical_multidegrees(2, 5):
            rep = tideal.derived_span_check(md, part)
            if not rep.spans:
                failures.append(_format_multidegree(md))
        per_part[str(part)] = {"pass": not failures, "failures": failures}
        ok = ok and not failures
    return per_part, ok


def _checks_family_independence() -> tuple[dict, bool]:
    """No member of the word-pair family follows from the others, while each
    follows once it is itself included; its linearizations vanish."""
    results = {}
    ok = True
    for n in (3, 4):
        rep = tideal.word_pair_independence(n)
        good = (not rep.in_span_without) and rep.in_span_with
        results[f"independent_{n}"] = good
        ok = ok and good
    for n in (3, 4):
        lin_ok = all(
            tideal.zero_in_quotient(lin)
            for lin in tideal.all_linearizations(tideal.word_pair_element(n))
        )
        results[f"linearizations_zero_{n}"] = lin_ok
        ok = ok and lin_ok
    return results, ok


def _checks_normal_form() -> tuple[dict, bool]:
    """Every multilinear identity is a normal-form sum modulo the base
    T-ideal: each basis row of the identity space, checked as a vector."""
    results = {}
    ok = True
    for n in (4, 5):
        ids = tideal.identities(MultiDeg.multilinear(n))
        good = all(tideal.normal_form_check(n, row)
                   for row in ids.basis_vectors())
        results[f"representable_{n}"] = good
        ok = ok and good
    return results, ok


def _checks_coefficient_conditions() -> tuple[dict, bool]:
    """The linear coefficient conditions cut out exactly the identities
    among normal-form sums."""
    results = {}
    ok = True
    for n in (4, 5):
        sol = tideal.identity_coefficient_space(n)
        pre = tideal.identity_preimage_space(n)
        agree = sol == pre
        basis_identities = all(
            is_identity_gl2(tideal.normal_form_poly(
                n, sol.index.support(row)))
            for row in sol.basis_vectors()
        )
        results[f"n{n}"] = {
            "dim": sol.dim,
            "matches_kernel": agree,
            "basis_elements_are_identities": basis_identities,
        }
        ok = ok and agree and basis_identities
    return results, ok


def _checks_multilinear_spans() -> tuple[dict, bool]:
    """Permuted three-term identities span the multilinear identity spaces."""
    results = {}
    ok = True
    for n in (4, 5, 6):
        rep = tideal.multilinear_span_check(n)
        results[f"n{n}"] = {"dim_span": rep.dim_span,
                            "dim_identities": rep.dim_identities,
                            "dim_span_mod_base": rep.dim_span_mod_base,
                            "dim_identities_mod_base": rep.dim_identities_mod_base,
                            "equal": rep.equal}
        ok = ok and rep.equal
    return results, ok


def _checks_theorem(max_total: int) -> tuple[dict, bool]:
    """Consequence span equals identity space at every multidegree."""
    rows, ok = generation_check(tideal.canonical_multidegrees(1, max_total))
    return {"pass": ok,
            "failures": [row["multidegree"] for row in rows
                         if not row["equal"]],
            "dim_identities": {row["multidegree"]: row["dim_identities"]
                               for row in rows}}, ok


# The ``theorem`` suite takes the largest total degree; the others take no
# argument on the command line.
LEMMAS: dict[str, Callable[..., tuple[dict, bool]]] = {
    "L1e2": _checks_base_identities,
    "LFid": _checks_tail_rewriting,
    "LF": _checks_derived_spans,
    "LFid2": _checks_family_independence,
    "L9mine": _checks_normal_form,
    "Lfact2": _checks_coefficient_conditions,
    "Lmultlin": _checks_multilinear_spans,
    "theorem": _checks_theorem,
}


def cmd_lemmas(args) -> tuple[dict, bool]:
    """Names and ``--max-total-degree`` are refused before any suite runs;
    the degree is checked only when ``theorem``, its one reader, runs."""
    if args.run == "all":
        selected = list(LEMMAS)
    else:
        selected = [name.strip() for name in args.run.split(",")]
        unknown = [name for name in selected if name not in LEMMAS]
        if unknown:
            raise ValueError(
                f"unknown lemma name(s) {unknown}; choose from "
                f"{', '.join(LEMMAS)} or 'all'"
            )
    if "theorem" in selected:
        _check_max_total_degree(args.max_total_degree)
    results = {}
    ok = True
    for name in selected:
        suite = LEMMAS[name]
        details, passed = (suite(args.max_total_degree) if name == "theorem"
                           else suite())
        results[name] = {"pass": passed, "details": details}
        ok = ok and passed
    return {"checks": results, "all_pass": ok}, ok


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, as each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lieid",
        description="Free Lie algebra over GF(2): identity checking on gl2 "
                    "and per-multidegree T-ideal calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")

    p = sub.add_parser("verify", help="decide whether an expression is an identity")
    p.add_argument("expr")
    p.add_argument("--algebra", choices=("gl2", "sl2"), default="gl2")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="identity space at a multidegree")
    p.add_argument("--multidegree", required=True,
                   help="comma-separated multiplicities, e.g. 1,1,1,1")
    p.add_argument("--basis", action="store_true",
                   help="include a basis printout in expression syntax")
    add_common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("consequences",
                       help="consequence span of a generator file at a multidegree")
    p.add_argument("--gens", required=True, help="generator file")
    p.add_argument("--multidegree", required=True)
    p.add_argument("--basis", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_consequences)

    p = sub.add_parser("check-theorem",
                       help="compare consequence spans of the candidate "
                            "generating set with identity spaces")
    p.add_argument("--max-total-degree", type=int, default=6)
    add_common(p)
    p.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser("lemmas", help="run named verification suites")
    p.add_argument("--run", default="all",
                   help=f"comma-separated subset of {', '.join(LEMMAS)}, "
                        "or 'all'")
    p.add_argument("--max-total-degree", type=int, default=6,
                   help="largest total degree of the theorem suite; the "
                        "other suites run at fixed degrees and ignore it")
    add_common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("normalize", help="parse and reprint an expression")
    p.add_argument("expr")
    add_common(p)
    p.set_defaults(func=cmd_normalize)

    return parser


def _emit_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                line = ", ".join(f"{k}={v}" for k, v in item.items())
                print(f"{pad}  - {line}")
        else:
            print(f"{pad}{key}: {value}")


def main(argv=None) -> int:
    env_cap = os.environ.get(ENV_MAX_DEGREE)
    if env_cap is not None:
        try:
            set_degree_cap(int(env_cap))
        except ValueError:
            print(f"lieid: bad {ENV_MAX_DEGREE} value {env_cap!r}",
                  file=sys.stderr)
            return 2
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        report, ok = args.func(args)
    except (ParseError, DegreeCapError, ValueError, OSError) as exc:
        print(f"lieid: error: {exc}", file=sys.stderr)
        return 2
    report = {"command": args.command, **report, "ok": ok,
              "elapsed_s": round(time.monotonic() - start, 6),
              "degree_cap": get_degree_cap()}
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _emit_text(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
