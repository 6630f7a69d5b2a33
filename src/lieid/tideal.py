"""Per-multidegree components of the free Lie algebra, consequence spans of
T-ideals, identity kernels, and the quotient by the T-ideal of
(x1 x2)(x3 x4) x5.

All subspaces at a given multidegree share one word index, built once, so
spans computed by different routes are directly comparable.  Truncating the
infinite generator families at the target total degree is exact: a generator
of larger degree has no substitution instance of the target multidegree.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .expr import ParseError, parse
from .gf2linalg import (
    Echelon,
    GF2Subspace,
    SpanSolver,
    WordIndex,
    bit_positions,
    kernel,
    solve_in_span,
    span,
)
from .eval_gl2 import (
    ZERO_MAT,
    field_width,
    generic_matrix,
    is_identity_gl2,
    lie_mat,
)
from .lie_core import (
    AssocPoly,
    Evaluator,
    LieMonomial,
    LiePoly,
    MultiDeg,
    PolyLike,
    as_poly,
    assoc_evaluator,
    assoc_expand,
    check_degree_cap,
    commutator,
    is_zero,
    leaf,
    left_norm,
    pair,
    polarize,
    substitute,
    word_monomial,
)

__all__ = [
    "Generator",
    "GeneratorSet",
    "Component",
    "BASE_RELATION",
    "BASE_SET",
    "generator_set",
    "monomials_of",
    "word_index",
    "component",
    "expansion_vector",
    "lie_poly_from_vector",
    "consequences",
    "identities",
    "triple_identity",
    "theorem_generators",
    "word_pair_element",
    "GenerationReport",
    "check_generation",
    "SpanReport",
    "multilinear_span_check",
    "normal_form_labels",
    "normal_form_monomial",
    "normal_form_poly",
    "identity_coefficient_space",
    "identity_preimage_space",
    "coefficient_conditions_hold",
    "sr_basis_identity",
    "normal_form_represent",
    "zero_in_quotient",
    "all_linearizations",
    "tail_rewrite_difference",
    "IndependenceReport",
    "word_pair_independence",
    "DerivedSpanReport",
    "derived_span_check",
    "CubeReport",
    "derived_cube_zero_check",
    "canonical_multidegrees",
    "load_generator_file",
    "clear_caches",
]


@dataclass(frozen=True)
class Generator:
    """A named multihomogeneous generator of a T-ideal."""

    name: str
    poly: LiePoly

    def __post_init__(self):
        if self.poly.is_formal_zero():
            raise ValueError(f"generator {self.name!r} is zero")
        if not self.poly.is_multihomogeneous():
            raise ValueError(f"generator {self.name!r} is not multihomogeneous")

    @property
    def total_degree(self) -> int:
        return self.poly.multidegree().total


@dataclass(frozen=True)
class GeneratorSet:
    """Generators plus the closure policy for repeated variables.

    With ``polarize_closure`` on (the default), consequence spans include all
    partial linearizations of the generators; substituting sums of monomials
    into a repeated variable decomposes into exactly those components, so the
    closure is required for exactness whenever a generator is not multilinear.
    """

    generators: tuple[Generator, ...]
    polarize_closure: bool = True


def generator_set(polys: Iterable[PolyLike],
                  polarize_closure: bool = True) -> GeneratorSet:
    gens = tuple(
        Generator(f"g{i + 1}", as_poly(p)) for i, p in enumerate(polys)
    )
    return GeneratorSet(gens, polarize_closure)


BASE_RELATION = left_norm([pair(leaf(1), leaf(2)), pair(leaf(3), leaf(4)), leaf(5)])
BASE_SET = GeneratorSet((Generator("base", as_poly(BASE_RELATION)),))


# ---------------------------------------------------------------------------
# enumeration and caches

# These three check the degree cap before the lookup, so they are explicit.
_COMPONENT_CACHE: dict[MultiDeg, "Component"] = {}
_CONSEQ_CACHE: dict[tuple[GeneratorSet, MultiDeg], GF2Subspace] = {}
_IDENT_CACHE: dict[MultiDeg, GF2Subspace] = {}


def clear_caches() -> None:
    for cache in (_COMPONENT_CACHE, _CONSEQ_CACHE, _IDENT_CACHE):
        cache.clear()
    for memo in (monomials_of, word_index, _polarization_closure):
        memo.cache_clear()


def _arrangements(md: MultiDeg) -> Iterator[tuple[int, ...]]:
    """Distinct sequences with leaf multiset md, in lexicographic order."""
    counts = dict(md.items())
    seq: list[int] = []
    total = md.total

    def rec():
        if len(seq) == total:
            yield tuple(seq)
            return
        for idx in sorted(counts):
            if counts[idx] > 0:
                counts[idx] -= 1
                seq.append(idx)
                yield from rec()
                seq.pop()
                counts[idx] += 1

    return rec()


@functools.cache
def monomials_of(md: MultiDeg) -> tuple[LieMonomial, ...]:
    """All left-normalized monomials with leaf multiset md."""
    return tuple(word_monomial(seq) for seq in _arrangements(md))


@functools.cache
def word_index(md: MultiDeg) -> WordIndex:
    """The shared coordinate frame at md: every word of that multidegree."""
    return WordIndex(tuple(_arrangements(md)))


def expansion_vector(idx: WordIndex, p: PolyLike) -> int:
    return idx.vector(assoc_expand(p).words)


@dataclass(frozen=True)
class Component:
    """A multidegree-graded piece of the free Lie algebra.

    ``monomials[i]`` is the left-normalized monomial on ``index.labels[i]``.
    ``basis`` is the greedily independent subset of ``monomials``, in order:
    a basis of the component, with expansions ``basis_vectors`` in the
    shared frame.
    """

    multidegree: MultiDeg
    index: WordIndex
    monomials: tuple[LieMonomial, ...]
    basis: tuple[LieMonomial, ...]
    basis_vectors: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def solver(self) -> SpanSolver:
        """Expresses an expansion vector in ``basis``; built on first use."""
        return SpanSolver(self.index, self.basis_vectors)


def component(md: MultiDeg) -> Component:
    """The component at md.  Each monomial is expanded on its own: one
    evaluator over all of them would hold every subtree at once."""
    if md.total < 1:
        raise ValueError("component requires total degree >= 1")
    check_degree_cap(md.total)
    got = _COMPONENT_CACHE.get(md)
    if got is not None:
        return got
    idx = word_index(md)
    monos = monomials_of(md)
    ech = Echelon(idx)
    basis, basis_vectors = [], []
    for m in monos:
        vec = expansion_vector(idx, m)
        if ech.insert(vec):
            basis.append(m)
            basis_vectors.append(vec)
    comp = Component(md, idx, monos, tuple(basis), tuple(basis_vectors))
    _COMPONENT_CACHE[md] = comp
    return comp


def lie_poly_from_vector(md: MultiDeg, vec: int) -> LiePoly:
    """A deterministic Lie polynomial whose expansion is the given vector:
    its unique expression in ``Component.basis``.

    ``solve_in_span`` over every monomial gives the same expression, as it
    uses only the greedily independent ones, which are that basis.  One
    solver per component serves every vector.
    """
    comp = component(md)
    sol = comp.solver.solve(vec)
    if sol is None:
        raise ValueError("vector is not the expansion of a Lie element")
    return LiePoly.of(*(comp.basis[i] for i in sol))


# ---------------------------------------------------------------------------
# consequence spans

def _canonical_variables(p: LiePoly) -> LiePoly:
    variables = sorted(p.support())
    renaming = {v: leaf(i + 1) for i, v in enumerate(variables)}
    return substitute(p, renaming)


@functools.cache
def _polarization_closure(p: LiePoly) -> tuple[LiePoly, ...]:
    """p together with all iterated partial linearizations, variables
    canonically renumbered, duplicates and expansion-zero results dropped."""
    start = _canonical_variables(p)
    seen: dict[LiePoly, None] = {}
    queue = [start]
    while queue:
        q = queue.pop(0)
        if q in seen:
            continue
        seen[q] = None
        md = q.multidegree()
        top = max(md.indices())
        for v, d in md.items():
            if d < 2:
                continue
            # every partition of d but the first, (d,): at least two parts
            for parts_shape in itertools.islice(_partitions(d), 1, None):
                fresh = [top + 1 + t for t in range(len(parts_shape))]
                target = dict(zip(fresh, parts_shape))
                pol = polarize(q, v, fresh, target)
                if pol.is_formal_zero() or is_zero(pol):
                    continue
                queue.append(_canonical_variables(pol))
    return tuple(seen)


def _instance_vectors(L: LiePoly, md: MultiDeg, idx: WordIndex,
                      expander: Evaluator[AssocPoly]) -> Iterator[int]:
    """Expansion vectors of multidegree-md elements of the form
    L(w_1, ..., w_m) x_{l_1} ... x_{l_r} with the l's letters, spanning the
    same space as all such elements with the w's left-normalized monomials.

    Letter tails generate the same span as arbitrary monomial tails: the
    bracket with a compound monomial rewrites, via the Jacobi identity, as a
    sum of iterated brackets with its letters.

    A slot in which L is linear takes only a basis of the component, since
    the instance is linear in that slot; a repeated slot takes every
    left-normalized monomial.

    Each instance is evaluated directly in the free associative algebra,
    slots taking the expansions of their fillers and bracket nodes the
    commutator uv + vu.  Expansion is a Lie homomorphism, so this is the
    expansion of the substituted Lie element, without building it.  Fillers
    and letters come from ``expander``, the batch's own evaluator, so a
    filler shared by many instances and forms is expanded once.
    """
    slots = L.multidegree().items()
    n_slots = len(slots)
    suffix_min = [0] * (n_slots + 1)
    for k in range(n_slots - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + slots[k][1]
    assignment: dict[int, AssocPoly] = {}

    def rec(k: int, remaining: MultiDeg) -> Iterator[int]:
        if k == n_slots:
            value = Evaluator(assignment, commutator, AssocPoly.ZERO).poly(L)
            if value.is_zero():
                return
            for seq in _arrangements(remaining):
                tail = value
                for letter in seq:
                    tail = commutator(tail, expander.assign[letter])
                    if tail.is_zero():
                        break
                else:
                    yield idx.vector(tail.words)
            return
        v, d = slots[k]
        largest = remaining.floor_div(d)
        for mu in largest.sub_multidegrees():
            if mu.total == 0:
                continue
            if remaining.total - d * mu.total < suffix_min[k + 1]:
                continue
            rest = remaining - mu.scaled(d)
            fillers = component(mu).basis if d == 1 else monomials_of(mu)
            for w in fillers:
                assignment[v] = expander.monomial(w)
                yield from rec(k + 1, rest)
        assignment.pop(v, None)

    return rec(0, md)


def consequences(gens: GeneratorSet, md: MultiDeg, *,
                 within: Optional[GF2Subspace] = None) -> GF2Subspace:
    """The md-component of the T-ideal generated by the set.

    Only generators of total degree at most total(md) can contribute, so the
    finite enumeration is exact rather than a truncation.  Generators are
    enumerated highest total degree first; the result is an RREF basis,
    which is canonical, so the order changes no output.

    A slot in which the form is linear takes only a basis of its component
    rather than every left-normalized monomial.  This is exact: a monomial
    is a sum of basis elements, and the instance is linear in that slot, so
    it is the sum of the instances at those basis elements.  Repeated slots
    take every monomial.

    ``within`` is a rank target for a caller that has proved the span lies
    inside it.  Enumeration then stops once the rank reaches ``within.dim``:
    a subspace of ``within`` of the same dimension is ``within`` itself, so
    the partial span is already the whole consequence span.
    """
    check_degree_cap(md.total)
    key = (gens, md)
    got = _CONSEQ_CACHE.get(key)
    if got is not None:
        return got
    idx = word_index(md)
    ech = Echelon(idx)
    target = within.dim if within is not None else -1
    if target != 0:
        for vec in _consequence_vectors(gens, md, idx):
            if ech.insert(vec) and ech.dim == target:
                break
    result = GF2Subspace(ech)
    if within is not None and result.dim == within.dim and result != within:
        raise ValueError("the consequence span does not lie inside `within`")
    _CONSEQ_CACHE[key] = result
    return result


def _consequence_vectors(gens: GeneratorSet, md: MultiDeg,
                         idx: WordIndex) -> Iterator[int]:
    """Instance vectors spanning the consequences, highest degree first."""
    ordered = sorted(gens.generators, key=lambda g: -g.total_degree)
    expander = assoc_evaluator(md.indices())
    for gen in ordered:
        if gen.total_degree > md.total:
            continue
        if gens.polarize_closure:
            forms = _polarization_closure(gen.poly)
        else:
            forms = (_canonical_variables(gen.poly),)
        for L in forms:
            yield from _instance_vectors(L, md, idx, expander)


# ---------------------------------------------------------------------------
# identity kernels

def identities(md: MultiDeg) -> GF2Subspace:
    """The md-component of the ideal of gl2 identities, as the kernel of the
    generic-matrix evaluation of a basis of the component.

    Evaluating only ``Component.basis`` is exact: every element of the
    component is a unique sum of basis monomials, so the coefficient vectors
    whose sums evaluate to zero map one-to-one onto the identities.  Each
    constraint row is one packed monomial of one matrix entry; its bit k is
    that monomial's coefficient in the value of basis monomial k.
    """
    check_degree_cap(md.total)
    got = _IDENT_CACHE.get(md)
    if got is not None:
        return got
    comp = component(md)
    width = field_width(max(d for _, d in md.items()))
    evaluator = Evaluator({i: generic_matrix(k + 1, width)
                           for k, i in enumerate(md.indices())},
                          lie_mat, ZERO_MAT)
    rows: dict[int, int] = {}
    for k, mono in enumerate(comp.basis):
        for pos, entry in enumerate(evaluator.monomial(mono)):
            for packed in entry:
                key = packed << 2 | pos
                rows[key] = rows.get(key, 0) | 1 << k
    coeff_kernel = kernel(WordIndex(range(len(comp.basis))), rows.values())
    word_vectors = []
    for sol in coeff_kernel.basis_vectors():
        v = 0
        for k in bit_positions(sol):
            v ^= comp.basis_vectors[k]
        word_vectors.append(v)
    result = span(comp.index, word_vectors)
    _IDENT_CACHE[md] = result
    return result


# ---------------------------------------------------------------------------
# the three-term multilinear family and the generating set

def triple_identity(n: int) -> LiePoly:
    """(x1 x2)(x3 x4 ... xn) + (x1 x3)(x2 x4 ... xn) + (x1 x4)(x2 x3 x5 ... xn).

    Multidegree (1, ..., 1); exactly three monomials before cancellation.
    """
    if n < 4:
        raise ValueError(f"the three-term family starts at n=4, got {n}")
    terms = []
    for partner in (2, 3, 4):
        rest = [k for k in range(2, n + 1) if k != partner]
        terms.append(pair(pair(leaf(1), leaf(partner)), word_monomial(rest)))
    return LiePoly.of(*terms)


def theorem_generators(maxgen: int) -> GeneratorSet:
    """The candidate generating set of the gl2 identity ideal, with the two
    infinite families cut at subscript maxgen."""
    gens = [Generator("a", as_poly(BASE_RELATION))]
    for k in range(3, maxgen + 1):
        poly = as_poly(pair(pair(leaf(1), leaf(2)), word_monomial(range(1, k + 1))))
        gens.append(Generator(f"b{k}", poly))
    gens.append(Generator("c", triple_identity(4)))
    for m in range(5, maxgen + 1):
        gens.append(Generator(f"d{m}", triple_identity(m)))
    return GeneratorSet(tuple(gens))


def word_pair_element(n: int) -> LiePoly:
    """(x1 x2 ... xn)(x1 x2); multidegree {1:2, 2:2, 3:1, ..., n:1}."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return as_poly(pair(word_monomial(range(1, n + 1)), pair(leaf(1), leaf(2))))


@dataclass(frozen=True)
class GenerationReport:
    multidegree: MultiDeg
    dim_consequences: int
    dim_identities: int
    equal: bool


def check_generation(md: MultiDeg) -> GenerationReport:
    """Compare the consequence span of the candidate generating set with the
    identity space at one multidegree.

    When every generator that can contribute at md is a gl2 identity, the
    T-ideal they generate lies in the T-ideal of gl2 identities: the latter
    is closed under substitution and, over an infinite field, under taking
    multihomogeneous components, hence under partial linearization.  So the
    consequences lie inside the identities, and their enumeration stops at
    the rank of the identity space.  If some generator is not an identity,
    the consequences are enumerated in full.
    """
    gens = theorem_generators(max(md.total, 4))
    ids = identities(md)
    contributing = (g for g in gens.generators if g.total_degree <= md.total)
    within = ids if all(is_identity_gl2(g.poly) for g in contributing) else None
    cons = consequences(gens, md, within=within)
    return GenerationReport(md, cons.dim, ids.dim, cons == ids)


@dataclass(frozen=True)
class SpanReport:
    n: int
    dim_span: int
    dim_identities: int
    dim_base_consequences: int
    dim_span_mod_base: int
    dim_identities_mod_base: int
    equal: bool


def multilinear_span_check(n: int) -> SpanReport:
    """Span of the permuted three-term identities against the multilinear
    identity space, modulo the base T-ideal.

    The statement being checked lives in the quotient by the base relation:
    at n >= 5 the raw spans differ (the identity space contains the base
    consequences), so ``equal`` compares the spans with the base-relation
    consequences adjoined to both sides.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    md = MultiDeg.multilinear(n)
    check_degree_cap(md.total)
    idx = word_index(md)
    base = triple_identity(n)
    expander = assoc_evaluator(md.indices())
    vectors = []
    for perm in itertools.permutations(range(1, n + 1)):
        image = substitute(base, {k: leaf(perm[k - 1]) for k in range(1, n + 1)})
        vectors.append(idx.vector(expander.poly(image).words))
    sp = span(idx, vectors)
    ids = identities(md)
    quotient = consequences(BASE_SET, md)
    sp_mod = span(idx, list(sp.basis_vectors()) + list(quotient.basis_vectors()))
    ids_mod = span(idx, list(ids.basis_vectors()) + list(quotient.basis_vectors()))
    return SpanReport(
        n,
        sp.dim,
        ids.dim,
        quotient.dim,
        sp_mod.dim - quotient.dim,
        ids_mod.dim - quotient.dim,
        sp_mod == ids_mod,
    )


# ---------------------------------------------------------------------------
# the multilinear normal form and its coefficient calculus

def normal_form_labels(n: int) -> list[tuple]:
    """Coefficient labels: ("a2", i) for 4 <= i <= n, then ("a", i, j) for
    3 <= i, j <= n with i != j."""
    if n < 4:
        raise ValueError(f"the normal form needs n >= 4, got {n}")
    labels: list[tuple] = [("a2", i) for i in range(4, n + 1)]
    for i in range(3, n + 1):
        for j in range(3, n + 1):
            if i != j:
                labels.append(("a", i, j))
    return labels


def normal_form_monomial(n: int, label: tuple) -> LieMonomial:
    """The spanning product attached to one coefficient label.

    ("a2", i) names (x_i x3 x4 ... /i ... xn)(x2 x1); ("a", i, j) names
    (x_i x2 x3 ... /i ... /j ... xn)(x_j x1), the slash marking a skipped
    index.
    """
    if label[0] == "a2":
        i = label[1]
        head = [i] + [k for k in range(3, n + 1) if k != i]
        tail = pair(leaf(2), leaf(1))
    elif label[0] == "a":
        i, j = label[1], label[2]
        head = [i] + [k for k in range(2, n + 1) if k not in (i, j)]
        tail = pair(leaf(j), leaf(1))
    else:
        raise ValueError(f"unknown label {label!r}")
    return pair(word_monomial(head), tail)


def normal_form_poly(n: int, labels: Iterable[tuple]) -> LiePoly:
    return LiePoly.of(*(normal_form_monomial(n, lab) for lab in labels))


def identity_coefficient_space(n: int) -> GF2Subspace:
    """Solutions of the linear conditions under which the normal-form sum is
    a gl2 identity: symmetric off-diagonal coefficients, and each ("a2", r)
    equal to the row sum of the ("a", r, j)."""
    labels = normal_form_labels(n)
    frame = WordIndex(tuple(labels))
    rows = []
    for s in range(3, n + 1):
        for r in range(s + 1, n + 1):
            rows.append(frame.unit(("a", s, r)) ^ frame.unit(("a", r, s)))
    for r in range(4, n + 1):
        row = frame.unit(("a2", r))
        for j in range(3, n + 1):
            if j != r:
                row ^= frame.unit(("a", r, j))
        rows.append(row)
    return kernel(frame, rows)


def coefficient_conditions_hold(n: int, labels: Iterable[tuple]) -> bool:
    """Check one coefficient set against the identity conditions directly."""
    chosen = set(labels)
    for s in range(3, n + 1):
        for r in range(s + 1, n + 1):
            if ((("a", s, r) in chosen) != (("a", r, s) in chosen)):
                return False
    for r in range(4, n + 1):
        row_sum = sum(1 for j in range(3, n + 1)
                      if j != r and ("a", r, j) in chosen) % 2
        if (("a2", r) in chosen) != bool(row_sum):
            return False
    return True


def identity_preimage_space(n: int) -> GF2Subspace:
    """Coefficient sets whose normal-form sum is a gl2 identity, computed
    from the identity kernel itself rather than from the coefficient
    conditions; the two routes must agree."""
    labels = normal_form_labels(n)
    frame = WordIndex(tuple(labels))
    md = MultiDeg.multilinear(n)
    idx = word_index(md)
    ids = identities(md)
    residuals = [ids.reduce(expansion_vector(idx, normal_form_monomial(n, lab)))
                 for lab in labels]
    rows_by_pos: dict[int, int] = {}
    for li, residual in enumerate(residuals):
        for pos in bit_positions(residual):
            rows_by_pos[pos] = rows_by_pos.get(pos, 0) | (1 << li)
    return kernel(frame, rows_by_pos.values())


def sr_basis_identity(n: int, s: int, r: int) -> LiePoly:
    """The normal-form identity with free coefficient (s, r) switched on and
    the other free coefficients off; the dependent coefficients follow from
    the identity conditions."""
    if not (3 <= s < r <= n):
        raise ValueError(f"need 3 <= s < r <= n, got s={s}, r={r}, n={n}")
    labels = [("a", s, r), ("a", r, s), ("a2", r)]
    if s >= 4:
        labels.append(("a2", s))
    return normal_form_poly(n, labels)


def normal_form_represent(p: PolyLike) -> frozenset[tuple]:
    """Coefficients expressing p, modulo the base T-ideal, as a normal-form
    sum; raises when no representation exists.

    The zero polynomial yields the empty coefficient set.
    """
    pp = as_poly(p)
    expansion = assoc_expand(pp)
    if expansion.is_zero():
        return frozenset()
    md = pp.multidegree()
    n = md.total
    if md != MultiDeg.multilinear(n) or n < 4:
        raise ValueError(
            "normal-form representation needs multidegree (1,...,1) with n >= 4"
        )
    idx = word_index(md)
    labels = normal_form_labels(n)
    vectors = [expansion_vector(idx, normal_form_monomial(n, lab)) for lab in labels]
    quotient = consequences(BASE_SET, md)
    vectors.extend(quotient.basis_vectors())
    sol = solve_in_span(idx, vectors, idx.vector(expansion.words))
    if sol is None:
        raise RuntimeError(
            "no normal-form representation exists for the given element"
        )
    return frozenset(labels[i] for i in sol if i < len(labels))


# ---------------------------------------------------------------------------
# the quotient by the base relation

def zero_in_quotient(p: PolyLike) -> bool:
    """True when p lies in the T-ideal generated by the base relation, that
    is, p = 0 in the quotient algebra."""
    pp = as_poly(p)
    if pp.is_formal_zero():
        return True
    if not pp.is_multihomogeneous():
        raise ValueError(
            "split non-multihomogeneous input into components first"
        )
    expansion = assoc_expand(pp)
    if expansion.is_zero():
        return True
    md = pp.multidegree()
    quotient = consequences(BASE_SET, md)
    return quotient.contains(word_index(md).vector(expansion.words))


def all_linearizations(p: PolyLike) -> list[LiePoly]:
    """Every complete or partial linearization of p, over all repeated
    variables, iterated: the polarization closure of p without p itself.

    Variables are canonically renumbered and linearizations that expand to
    zero are dropped.  Neither changes an answer of ``zero_in_quotient``:
    a renaming of variables is an invertible substitution, so it preserves
    membership in any T-ideal, and an element that expands to zero is 0 in
    the free Lie algebra, hence 0 in every quotient.
    """
    return list(_polarization_closure(as_poly(p))[1:])


def tail_rewrite_difference(
    x: int,
    y: int,
    gs: Sequence[int],
    u: int,
    v: int,
    r: int,
    sigma: Sequence[int],
) -> LiePoly:
    """Difference of (x y g_1 ... g_n)(u v) and the rewritten product
    (x y g_{s(1)} ... g_{s(r)})(u v g_{s(r+1)} ... g_{s(n)}); the tail letters
    may be distributed freely between the two factors in the quotient, so the
    difference must vanish there.

    ``sigma`` is a permutation of range(len(gs)).
    """
    n = len(gs)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of range(len(gs))")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    left = pair(word_monomial([x, y] + list(gs)), pair(leaf(u), leaf(v)))
    head = [x, y] + [gs[sigma[i]] for i in range(r)]
    tail = [u, v] + [gs[sigma[i]] for i in range(r, n)]
    right = pair(word_monomial(head), word_monomial(tail))
    return LiePoly.of(left) + LiePoly.of(right)


@dataclass(frozen=True)
class IndependenceReport:
    n: int
    multidegree: MultiDeg
    in_span_without: bool
    in_span_with: bool


def word_pair_independence(n: int) -> IndependenceReport:
    """Membership of (x1...xn)(x1x2) in the consequence span of the rest of
    its family (base relation included), and in the span once the n-th
    member itself is added."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    w = word_pair_element(n)
    md = w.multidegree()
    check_degree_cap(md.total)

    def family(ks: Iterable[int]) -> GeneratorSet:
        gens = [Generator("base", as_poly(BASE_RELATION))]
        gens.extend(Generator(f"wp{k}", word_pair_element(k)) for k in ks)
        return GeneratorSet(tuple(gens))

    vec = expansion_vector(word_index(md), w)
    ks_all = range(3, md.total + 1)
    without = consequences(family(k for k in ks_all if k != n), md)
    with_n = consequences(family(ks_all), md)
    return IndependenceReport(n, md, without.contains(vec), with_n.contains(vec))


# ---------------------------------------------------------------------------
# spanning sets for the derived subalgebra of the quotient

def _nondecreasing(seq: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _prefix_condition(seq: Sequence[int], sorted_tail: bool) -> bool:
    if len(seq) < 2 or seq[0] <= seq[1]:
        return False
    if sorted_tail:
        return _nondecreasing(seq[1:])
    return len(seq) < 3 or seq[1] <= seq[2]


def _second_derived_vectors(md: MultiDeg) -> list[int]:
    """Expansions spanning the md-part of [[L, L], [L, L]]: brackets of two
    left-normalized monomials of degree >= 2."""
    idx = word_index(md)
    expander = assoc_evaluator(md.indices())
    out: list[int] = []
    seen: set[int] = set()
    for mu in md.sub_multidegrees():
        nu_total = md.total - mu.total
        if mu.total < 2 or nu_total < 2 or mu.total > nu_total:
            continue
        nu = md - mu
        for m1 in monomials_of(mu):
            for m2 in monomials_of(nu):
                vec = idx.vector(commutator(expander.monomial(m1),
                                            expander.monomial(m2)).words)
                if vec and vec not in seen:
                    seen.add(vec)
                    out.append(vec)
    return out


def _filtered_product_vectors(md: MultiDeg) -> list[int]:
    """Products (x_{i1}...x_{ik})(x_p x_q) passing the ordering filter:
    prefix i1 > i2 <= i3 <= ... <= ik, p > q, q <= i3 for k >= 3, i2 >= q,
    and i1 >= p when i2 = q."""
    idx = word_index(md)
    out: list[int] = []
    for mu in md.sub_multidegrees():
        if mu.total != md.total - 2 or mu.total < 2:
            continue
        nu = md - mu
        letters = nu.indices()
        if len(letters) != 2:
            continue
        q, p = letters  # indices() is sorted ascending
        for seq in _arrangements(mu):
            if not _prefix_condition(seq, sorted_tail=True):
                continue
            if len(seq) >= 3 and not q <= seq[2]:
                continue
            if seq[1] < q:
                continue
            if seq[1] == q and seq[0] < p:
                continue
            prod = pair(word_monomial(seq), pair(leaf(p), leaf(q)))
            out.append(expansion_vector(idx, prod))
    return out


@dataclass(frozen=True)
class DerivedSpanReport:
    multidegree: MultiDeg
    part: int
    spans: bool
    dim_filtered: int
    dim_target: int


def derived_span_check(md: MultiDeg, part: int) -> DerivedSpanReport:
    """Spanning statements for the derived subalgebra of the quotient.

    part 1: words with i1 > i2 <= i3 span the whole component, modulo the
    base T-ideal.  part 2: words with a fully sorted tail span it modulo the
    second derived part as well.  part 3: the filtered products span the
    second derived part, modulo the base T-ideal.
    """
    if part not in (1, 2, 3):
        raise ValueError(f"part must be 1, 2 or 3, got {part}")
    if md.total < 2:
        raise ValueError("the statements concern degrees >= 2")
    check_degree_cap(md.total)
    comp = component(md)
    idx = comp.index
    quotient_rows = consequences(BASE_SET, md).basis_vectors()
    if part in (1, 2):
        keep = [expansion_vector(idx, m)
                for m, seq in zip(comp.monomials, idx.labels)
                if _prefix_condition(seq, sorted_tail=(part == 2))]
        extra = list(quotient_rows)
        if part == 2:
            extra.extend(_second_derived_vectors(md))
        lhs = span(idx, keep + extra)
        # the basis spans what all the monomials span
        rhs = span(idx, list(comp.basis_vectors) + extra)
    else:
        keep = _filtered_product_vectors(md)
        lhs = span(idx, keep + list(quotient_rows))
        rhs = span(idx, _second_derived_vectors(md) + list(quotient_rows))
    return DerivedSpanReport(md, part, lhs == rhs, lhs.dim, rhs.dim)


@dataclass(frozen=True)
class CubeReport:
    total_degree: int
    instances: int
    all_zero: bool


def derived_cube_zero_check(total: int) -> CubeReport:
    """All brackets [[m1, m2], m3] of monomials of degree >= 2 vanish in the
    quotient; checked at every multidegree of the given total degree, up to
    renaming.  Such brackets have total degree >= 6, so a smaller total
    would pass over no instance at all and is refused.  Membership in the
    base consequences is tested directly, as ``zero_in_quotient`` does."""
    if total < 6:
        raise ValueError(f"the cube check needs total degree >= 6, got {total}")
    check_degree_cap(total)
    count = 0
    all_zero = True
    for md in canonical_multidegrees(total, total):
        idx = word_index(md)
        expander = assoc_evaluator(md.indices())
        for mu1 in md.sub_multidegrees():
            if mu1.total < 2 or md.total - mu1.total < 4:
                continue
            rest1 = md - mu1
            for mu2 in rest1.sub_multidegrees():
                mu3 = rest1 - mu2
                if mu2.total < 2 or mu3.total < 2:
                    continue
                for m1 in monomials_of(mu1):
                    for m2 in monomials_of(mu2):
                        inner = commutator(expander.monomial(m1),
                                           expander.monomial(m2))
                        for m3 in monomials_of(mu3):
                            count += 1
                            cube = commutator(inner, expander.monomial(m3))
                            vec = idx.vector(cube.words)
                            if vec and not consequences(BASE_SET, md).contains(vec):
                                all_zero = False
    return CubeReport(total, count, all_zero)


# ---------------------------------------------------------------------------
# iteration over multidegrees, and generator files

def _partitions(t: int) -> Iterator[tuple[int, ...]]:
    def rec(rest: int, bound: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield tuple(acc)
            return
        for part in range(min(bound, rest), 0, -1):
            acc.append(part)
            yield from rec(rest - part, part, acc)
            acc.pop()

    return rec(t, t, [])


def canonical_multidegrees(min_total: int, max_total: int) -> list[MultiDeg]:
    """One representative per variable renaming: multiplicities assigned in
    nonincreasing order to x1, x2, ..."""
    out = []
    for t in range(min_total, max_total + 1):
        for shape in _partitions(t):
            out.append(MultiDeg({i + 1: m for i, m in enumerate(shape)}))
    return out


def load_generator_file(path: str) -> GeneratorSet:
    """Read a generator set: one expression per line, '#' comments, and an
    optional "polarize: on|off" line controlling the closure policy."""
    polarize_closure = True
    polys: list[LiePoly] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("polarize:"):
                value = line.split(":", 1)[1].strip().lower()
                if value not in ("on", "off"):
                    raise ValueError(
                        f"{path}:{lineno}: polarize must be 'on' or 'off'"
                    )
                polarize_closure = value == "on"
                continue
            try:
                poly = parse(line)
            except ParseError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if poly.is_formal_zero():
                raise ValueError(f"{path}:{lineno}: generator is zero")
            if not poly.is_multihomogeneous():
                raise ValueError(
                    f"{path}:{lineno}: generator is not multihomogeneous"
                )
            polys.append(poly)
    return generator_set(polys, polarize_closure)
