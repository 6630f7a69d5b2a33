"""Per-multidegree components of the free Lie algebra, consequence spans of
T-ideals, identity kernels, and the quotient by the T-ideal of
(x1 x2)(x3 x4) x5.

All subspaces at a given multidegree share one word index, built once, so
spans computed by different routes are directly comparable.  Truncating the
infinite generator families at the target total degree is exact: a generator
of larger degree has no substitution instance of the target multidegree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .expr import ParseError, parse
from .gf2linalg import (
    Echelon,
    GF2Subspace,
    SpanSolver,
    WordIndex,
    bit_positions,
    kernel,
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
    "base_consequences",
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

_MEMOS: list[dict] = []


def _memo(fn):
    """Memoize fn on its positional arguments, which the memoized functions
    therefore take positionally only; keyword arguments are passed on but
    are not part of the key.  Every ``MultiDeg`` argument is checked against
    the degree cap before the lookup, so a lowered cap refuses a cached
    result as well.  ``clear_caches`` empties every memo.
    """
    table: dict = {}
    _MEMOS.append(table)

    @wraps(fn)
    def memoized(*args, **kwargs):
        for arg in args:
            if isinstance(arg, MultiDeg):
                check_degree_cap(arg.total)
        got = table.get(args)
        if got is None:
            got = table[args] = fn(*args, **kwargs)
        return got

    return memoized


def clear_caches() -> None:
    for table in _MEMOS:
        table.clear()


def _arrangements(md: MultiDeg) -> Iterator[tuple[int, ...]]:
    """Distinct sequences with leaf multiset md, in lexicographic order:
    the sorted one, then each next permutation (Knuth, TAOCP 7.2.1.2,
    Algorithm L); () once for the empty multidegree."""
    seq = [letter for letter, m in md.items() for _ in range(m)]
    last = len(seq) - 1
    while True:
        yield tuple(seq)
        i = last - 1
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = seq[:i:-1]  # the tail after i, reversed


@_memo
def monomials_of(md: MultiDeg, /) -> tuple[LieMonomial, ...]:
    """All left-normalized monomials with leaf multiset md."""
    return tuple(word_monomial(seq) for seq in _arrangements(md))


@_memo
def word_index(md: MultiDeg, /) -> WordIndex:
    """The shared coordinate frame at md: every word of that multidegree."""
    return WordIndex(tuple(_arrangements(md)))


def expansion_vector(idx: WordIndex, p: PolyLike) -> int:
    return idx.vector(assoc_expand(p).words)


@dataclass(frozen=True)
class Component:
    """A multidegree-graded piece of the free Lie algebra.

    ``basis`` is the greedily independent subset of ``monomials_of``, in
    order: a basis of the component, with expansions ``basis_vectors`` in
    the shared frame ``index``.
    """

    multidegree: MultiDeg
    index: WordIndex
    basis: tuple[LieMonomial, ...]
    basis_vectors: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def solver(self) -> SpanSolver:
        """Expresses an expansion vector in ``basis``; built on first use."""
        return SpanSolver(self.index, self.basis_vectors)


@_memo
def component(md: MultiDeg, /) -> Component:
    """The component at md.  Each monomial is expanded on its own: one
    evaluator over all of them would hold every subtree at once.

    When the smallest letter a of md occurs once, the greedy basis is, in
    closed form, the monomials [a, y2, ..., yn] over the arrangements y of
    md - e_a, in lex order, and no elimination is run.  Proof:

    - They come first in ``monomials_of(md)``, as a is the smallest letter.
    - They are independent.  The expansion of [u, y] is uy + yu, so each
      word of the expansion of [a, y2, ..., yn] puts every y_k at the left
      or the right end of the word built so far.  As a occurs once, only
      the choice "right" at every step gives a word beginning with a:
      a y2 ... yn, once.  Distinct monomials have distinct such words, so
      each expansion holds a word no other one holds, and the greedy pass
      keeps every one of them.
    - They span.  There are (n-1)!/prod m_i! of them, m_a being 1, and as
      gcd(md) = 1 this is Witt's dimension (1/n) n!/prod m_i!.  So the
      greedy pass keeps no later monomial.
    """
    if md.total < 1:
        raise ValueError("component requires total degree >= 1")
    idx = word_index(md)
    a, m_a = md.items()[0]
    if m_a == 1:
        basis = tuple(word_monomial((a,) + seq)
                      for seq in _arrangements(md - MultiDeg({a: 1})))
        return Component(md, idx, basis,
                         tuple(expansion_vector(idx, m) for m in basis))
    ech = Echelon(idx)
    basis, basis_vectors = [], []
    for m in monomials_of(md):
        vec = expansion_vector(idx, m)
        if ech.insert(vec):
            basis.append(m)
            basis_vectors.append(vec)
    return Component(md, idx, tuple(basis), tuple(basis_vectors))


def _witt_dim(md: MultiDeg) -> int:
    """``component(md).dim`` by Witt's formula, with no component built:
    (1/n) sum over d dividing every multiplicity of
    mu(d) (n/d)! / prod (m_i/d)!, n = total(md), mu the Mobius function
    (Reutenauer, Free Lie Algebras, 1993, Corollary 4.14).  The free Lie
    algebra over Z is free as a module with these ranks (a Hall basis), so
    they hold over GF(2), and expansion into the free associative algebra
    is one-to-one (Poincare-Birkhoff-Witt), so the component has them.
    """
    mults = [m for _, m in md.items()]
    total = 0
    for d in range(1, math.gcd(*mults) + 1):
        if any(m % d for m in mults):
            continue
        mobius, rest = 1, d
        for prime in range(2, d + 1):
            if rest % prime == 0:
                rest //= prime
                if rest % prime == 0:
                    mobius = 0
                    break
                mobius = -mobius
        count = math.factorial(md.total // d)
        for m in mults:
            count //= math.factorial(m // d)
        total += mobius * count
    return total // md.total


def lie_poly_from_vector(md: MultiDeg, vec: int) -> LiePoly:
    """A deterministic Lie polynomial whose expansion is the given vector:
    its unique expression in ``Component.basis``.

    A ``SpanSolver`` over every monomial gives the same expression, as it
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


@_memo
def _polarization_closure(p: LiePoly, /) -> tuple[LiePoly, ...]:
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


class _Fillers:
    """The expansions one batch of bracket instances at md draws on, each
    built once by the batch's one evaluator: the bases of components, every
    monomial of a multidegree, the letter tails of a remaining multidegree,
    and a slot's choices.  A batch builds one and drops it when it ends;
    nothing it holds refers back to it, so it is freed at once.
    """

    def __init__(self, md: MultiDeg):
        self._expander = assoc_evaluator(md.indices())
        self._memo: dict[tuple, list] = {}

    def _once(self, key: tuple, build: Callable[[], list]) -> list:
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def basis(self, nu: MultiDeg) -> list[AssocPoly]:
        """The expansions of ``component(nu).basis``."""
        return self._once(("basis", nu), lambda: [
            self._expander.monomial(m) for m in component(nu).basis])

    def monomials(self, nu: MultiDeg) -> list[AssocPoly]:
        """The expansions of ``monomials_of(nu)``."""
        return self._once(("monomials", nu), lambda: [
            self._expander.monomial(m) for m in monomials_of(nu)])

    def tails(self, remaining: MultiDeg) -> list[list[AssocPoly]]:
        """The letters of every arrangement of ``remaining``."""
        letters = self._expander.assign
        return self._once(("tails", remaining), lambda: [
            [letters[i] for i in seq] for seq in _arrangements(remaining)])

    def choices(self, d: int, remaining: MultiDeg,
                rest_min: int) -> list[tuple[MultiDeg, list[AssocPoly]]]:
        """The fillers of a slot of degree d, by the multidegree they leave
        of ``remaining``, which must keep total at least ``rest_min``: a
        basis of each component if d = 1, every monomial otherwise."""
        return self._once(("choices", d, remaining, rest_min), lambda: [
            (remaining - mu.scaled(d),
             self.basis(mu) if d == 1 else self.monomials(mu))
            for mu in remaining.floor_div(d).sub_multidegrees()
            if mu.total and remaining.total - d * mu.total >= rest_min])


def _fillings(plan: Sequence[tuple[int, int, int]], k: int,
              remaining: MultiDeg, fillers: _Fillers,
              assignment: dict[int, AssocPoly]) -> Iterator[MultiDeg]:
    """Fill the slots ``plan[k:]``, triples (variable, degree, total the
    later slots need), in ``assignment``; yield the multidegree left for the
    tail each time every slot holds a filler.

    It recurses at module level: a nested function calling itself would be
    a reference cycle holding ``fillers`` until the next garbage collection.
    """
    if k == len(plan):
        yield remaining
        return
    v, d, rest_min = plan[k]
    for rest, values in fillers.choices(d, remaining, rest_min):
        for value in values:
            assignment[v] = value
            yield from _fillings(plan, k + 1, rest, fillers, assignment)
    assignment.pop(v, None)


def _instance_vectors(L: LiePoly, md: MultiDeg, idx: WordIndex,
                      fillers: _Fillers) -> Iterator[int]:
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
    expansion of the substituted Lie element, without building it.  Fillers,
    slot choices and letter tails come from ``fillers``, the batch's owner,
    so each is built once for every form of the batch.
    """
    slots = L.multidegree().items()
    plan = [(v, d, sum(e for _, e in slots[k + 1:]))
            for k, (v, d) in enumerate(slots)]
    assignment: dict[int, AssocPoly] = {}
    for remaining in _fillings(plan, 0, md, fillers, assignment):
        value = Evaluator(assignment, commutator, AssocPoly.ZERO).poly(L)
        if value.is_zero():
            continue
        for seq in fillers.tails(remaining):
            tail = value
            for letter in seq:
                tail = commutator(tail, letter)
                if tail.is_zero():
                    break
            else:
                yield idx.vector(tail.words)


@_memo
def consequences(gens: GeneratorSet, md: MultiDeg, /, *,
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
    the partial span is already the whole consequence span, and it is
    memoized as such: ``within`` is not part of the key.
    """
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
    return result


def _consequence_vectors(gens: GeneratorSet, md: MultiDeg,
                         idx: WordIndex) -> Iterator[int]:
    """Instance vectors spanning the consequences, highest degree first."""
    ordered = sorted(gens.generators, key=lambda g: -g.total_degree)
    fillers = _Fillers(md)
    for gen in ordered:
        if gen.total_degree > md.total:
            continue
        if gens.polarize_closure:
            forms = _polarization_closure(gen.poly)
        else:
            forms = (_canonical_variables(gen.poly),)
        for L in forms:
            yield from _instance_vectors(L, md, idx, fillers)


# ---------------------------------------------------------------------------
# identity kernels

@_memo
def identities(md: MultiDeg, /) -> GF2Subspace:
    """The md-component of the ideal of gl2 identities, as the kernel of the
    generic-matrix evaluation of a basis of the component.

    Evaluating only ``Component.basis`` is exact: every element of the
    component is a unique sum of basis monomials, so the coefficient vectors
    whose sums evaluate to zero map one-to-one onto the identities.  Each
    constraint row is one packed monomial of one matrix entry; its bit k is
    that monomial's coefficient in the value of basis monomial k.
    """
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
    return span(comp.index, word_vectors)


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
    """``witness`` is set only when ``equal`` is false: see
    ``check_generation``."""

    multidegree: MultiDeg
    dim_consequences: int
    dim_identities: int
    equal: bool
    witness: Optional[LiePoly] = None


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

    When the spans differ, the witness is the first row of the identity
    basis outside the consequences, as ``lie_poly_from_vector`` writes it.
    It is None when every identity is a consequence, which can happen only
    if some generator is not an identity.
    """
    gens = theorem_generators(max(md.total, 4))
    ids = identities(md)
    contributing = (g for g in gens.generators if g.total_degree <= md.total)
    within = ids if all(is_identity_gl2(g.poly) for g in contributing) else None
    cons = consequences(gens, md, within=within)
    if cons == ids:
        return GenerationReport(md, cons.dim, ids.dim, True)
    row = next((r for r in ids.basis_vectors() if not cons.contains(r)), None)
    witness = None if row is None else lie_poly_from_vector(md, row)
    return GenerationReport(md, cons.dim, ids.dim, False, witness)


def _spin(idx: WordIndex, seeds: Iterable[int],
          renamings: Sequence[dict[int, int]]) -> GF2Subspace:
    """The least subspace of the frame ``idx`` that holds ``seeds`` and is
    closed under the letter renamings, each a permutation of the letters
    that maps the frame's words onto themselves.

    Spinning, as the MeatAxe does: every vector that enlarges the span is
    queued, and the image of each queued vector under each renaming is
    inserted in turn.  A renaming permutes word positions, so an image is
    read off the renaming's table of positions.  Expansion commutes with
    renaming letters, so the image of an expansion vector is the expansion
    of the renamed element.

    The result V is the span W of the images of the seeds under the group
    G the renamings generate.  V is spanned by the queued vectors and
    holds each one's image under each renaming, so, renamings being
    linear, V is closed under them, hence under G, whose inverses are
    powers; so V contains W.  Each inserted vector is the image of a vector
    of W under an element of G, so V lies in W.
    """
    tables = [[idx.positions[tuple(r[k] for k in w)] for w in idx.labels]
              for r in renamings]
    ech = Echelon(idx)
    queue = [v for v in seeds if ech.insert(v)]
    for v in queue:  # the queue grows as it is read
        bits = bit_positions(v)
        for table in tables:
            image = 0
            for i in bits:
                image |= 1 << table[i]
            if ech.insert(image):
                queue.append(image)
    return GF2Subspace(ech)


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

    The span of the three-term identity under every renaming of its n
    letters is spun (``_spin``) under (1 2) and (1 2 ... n), which generate
    the symmetric group, rather than built from all n! renamings.

    The statement being checked lives in the quotient by the base relation:
    at n >= 5 the raw spans differ (the identity space contains the base
    consequences), so ``equal`` compares the spans with the base-relation
    consequences, ``base_consequences`` built in closed form, adjoined to
    both sides.  Both sides are compared by their residues modulo it
    (``_residue_span``), whose dimensions are the ``_mod_base`` fields.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    md = MultiDeg.multilinear(n)
    idx = word_index(md)
    swap = {k: k for k in range(1, n + 1)} | {1: 2, 2: 1}
    cycle = {k: k % n + 1 for k in range(1, n + 1)}
    sp = _spin(idx, [expansion_vector(idx, triple_identity(n))], (swap, cycle))
    ids = identities(md)
    quotient = base_consequences(md)
    sp_mod = _residue_span(quotient, sp.basis_vectors())
    ids_mod = _residue_span(quotient, ids.basis_vectors())
    return SpanReport(n, sp.dim, ids.dim, quotient.dim, sp_mod.dim,
                      ids_mod.dim, sp_mod == ids_mod)


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


@dataclass(frozen=True)
class _NormalFormFrame:
    """The fixed side of ``normal_form_represent`` at 1^n: the labels,
    and ``vectors``, their expansions followed by the rows of
    ``base_consequences``."""

    labels: tuple[tuple, ...]
    index: WordIndex
    vectors: tuple[int, ...]

    @cached_property
    def solver(self) -> SpanSolver:
        return SpanSolver(self.index, self.vectors)


@_memo
def _normal_form_frame(md: MultiDeg, /) -> _NormalFormFrame:
    """The frame at md = 1^n, n >= 4, built once."""
    n = md.total
    idx = word_index(md)
    labels = tuple(normal_form_labels(n))
    vectors = tuple(expansion_vector(idx, normal_form_monomial(n, lab))
                    for lab in labels)
    return _NormalFormFrame(labels, idx,
                            vectors + base_consequences(md).basis_vectors())


def normal_form_represent(p: PolyLike) -> frozenset[tuple]:
    """Coefficients expressing p, modulo the base T-ideal, as a normal-form
    sum; raises when no representation exists.  The base T-ideal's
    component is ``base_consequences``, built in closed form.

    p is solved in the greedily independent prefix of the label expansions
    followed by the base rows, the same vectors in the same order at every
    call, so one solver per multidegree (``_normal_form_frame``) gives
    every answer.

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
    frame = _normal_form_frame(md)
    sol = frame.solver.solve(frame.index.vector(expansion.words))
    if sol is None:
        raise RuntimeError(
            "no normal-form representation exists for the given element"
        )
    labels = frame.labels
    return frozenset(labels[i] for i in sol if i < len(labels))


# ---------------------------------------------------------------------------
# the quotient by the base relation

def _derived_brackets(mu: MultiDeg, fillers: _Fillers
                      ) -> Iterator[tuple[AssocPoly, AssocPoly]]:
    """The expansions (p, q) of the factors of the brackets [p, q], p and q
    in ``Component.basis`` at ν1 and ν2 with ν1 + ν2 = mu and
    |ν1|, |ν2| >= 2, each unordered pair {p, q} once, the expanded bases
    coming from ``fillers``.

    They span the mu-part of L'' = [L', L'], where L' = L_{>=2}.  L' is the
    sum of its components, each spanned by its basis, and the bracket is
    bilinear, so brackets of basis elements span it.  Over GF(2),
    [p, q] = [q, p] and [p, p] = 0, so one bracket per unordered pair of
    distinct elements spans the same space.
    """
    for nu1 in mu.sub_multidegrees():
        if nu1.total < 2 or mu.total - nu1.total < 2:
            continue
        nu2 = mu - nu1
        if nu2.items() < nu1.items():  # the pair {nu1, nu2} comes once
            continue
        seconds = fillers.basis(nu2)
        for i, p in enumerate(fillers.basis(nu1)):
            for q in seconds[i + 1:] if nu2 == nu1 else seconds:
                yield p, q


@_memo
def base_consequences(md: MultiDeg, /) -> GF2Subspace:
    """The md-component of the T-ideal of the base relation
    (a) = [[x1, x2], [x3, x4], x5], the same subspace as
    ``consequences(BASE_SET, md)``, built in closed form: the span of the
    brackets [[p, q], x_l] over the letters l of md, with p and q in
    ``Component.basis`` at multidegrees ν1 and ν2, where |ν1|, |ν2| >= 2
    and ν1 + ν2 = md - e_l.

    Write L for the free Lie algebra, L' = L_{>=2}, which is [L, L], and
    I = [[L', L'], L].  Then T(a) = I:

    - I ⊆ T(a).  L' is spanned by brackets [a, b], and [[p, q], r] is
      linear in p and in q, so each [[p, q], r] is a sum of instances
      [[a, b], [c, d], r] of (a).
    - T(a) ⊆ I.  I contains (a).  Over GF(2) the Jacobi identity reads
      [[j, x], y] = [[j, y], x] + [j, [x, y]], so [J, L] is an ideal
      whenever J is, and [J, J] is one too; hence L'' = [L', L'] and
      I = [L'', L] are ideals.  Every endomorphism maps L' into L', hence
      I into I, so I is a T-ideal, and T(a) is the least one holding (a).

    - I is spanned by the [u, x_l], u in L'' and x_l a letter.  I is
      spanned by the [u, r], u in L'' and r a monomial; induct on deg r.
      For r = [r1, r2] the Jacobi identity over GF(2) gives
      [u, [r1, r2]] = [[u, r1], r2] + [[u, r2], r1], where [u, r1] and
      [u, r2] lie in L'', an ideal, and r2 and r1 have smaller degree.

    Both sides are multigraded, so they agree at every md.  There I is
    spanned by the [u, x_l] with u in L'' at md - e_l, and L'' there by
    the brackets of homogeneous elements of L', hence, the bracket being
    bilinear, by those of basis elements.  (a) is multilinear, so its
    polarization closure is (a) itself and the enumerated span is T(a) at
    md, the subspace computed here.

    The [p, q] are ``_derived_brackets`` at md - e_l, so no component
    above total(md) - 3 is built.  Each bracket is written straight into
    word positions: [[p, q], x_l] expands to the sum over the words u of
    E(p) and w of E(q) of uwl + luw + wul + lwu, where E is expansion, a
    Lie homomorphism with E([a, b]) = E(a)E(b) + E(b)E(a).  Over GF(2) a
    word that occurs an even number of times cancels, which is what XOR
    into the bit vector does.
    """
    idx = word_index(md)
    position = idx.positions
    ech = Echelon(idx)
    fillers = _Fillers(md)
    for l in md.indices():
        x_l = (l,)
        for p, q in _derived_brackets(md - MultiDeg({l: 1}), fillers):
            vec = 0
            for u in p.words:
                for w in q.words:
                    uw, wu = u + w, w + u
                    vec ^= ((1 << position[uw + x_l])
                            ^ (1 << position[x_l + uw])
                            ^ (1 << position[wu + x_l])
                            ^ (1 << position[x_l + wu]))
            ech.insert(vec)
    return GF2Subspace(ech)


def _residue_span(quotient: GF2Subspace, vectors: Iterable[int]
                  ) -> GF2Subspace:
    """The span of the residues of ``vectors`` modulo ``quotient``, T
    below: the vectors reduced by T's rows.

    T is in reduced row-echelon form, so each row has a 1 at its own pivot
    and 0 at every other pivot.  ``T.reduce`` adds to v the row of each
    pivot where v has a 1, so red(v) is v plus an element of T, with 0 at
    every pivot; red is linear, with kernel T.  It is the projection onto
    Z, the vectors that are 0 at T's pivots, along T: Z meets T in 0, and
    red fixes Z.  Hence for any set A,

        span(A ∪ T) = T ⊕ span(red A),

    as each v is (v + red v) + red v with v + red v in T.  Applying red to
    both sides gives span(red A) back, so span(A ∪ T) = span(B ∪ T)
    exactly when span(red A) = span(red B), and
    dim span(A ∪ T) = dim T + dim span(red A).  The span of the residues
    thus compares spans modulo T without adjoining T's rows to either.
    """
    return span(quotient.index, (quotient.reduce(v) for v in vectors))


def zero_in_quotient(p: PolyLike) -> bool:
    """True when p lies in the T-ideal generated by the base relation, that
    is, p = 0 in the quotient algebra; the quotient's component is
    ``base_consequences(md)``, built in closed form."""
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
    quotient = base_consequences(md)
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
    """Membership of w = (x1...xn)(x1x2) in the consequence span of the rest
    of its family (base relation included), and in the span once the n-th
    member itself is added.

    At md = {1:2, 2:2, 3:1, ..., n:1}, the multidegree of w, the span of the
    rest is T(a) = ``base_consequences(md)``: a member k > n has total
    degree k + 2 > total(md), so no instance at md, and the md-component of
    the T-ideal of a member k < n lies in T(a).  Proof: work in
    Q = L/T(a) = L/[[L', L'], L], where Q'' = [Q', Q'] is central.

    1. For a, b in Q' and any x, the Jacobi identity over GF(2) gives
       [[a, x], b] = [a, [x, b]] + [[a, b], x], and the last term is 0.
       Fix letters l3, ..., lk and set B(a, b) = [[a, l3, ..., lk], b].
       Moving the brackets across one at a time gives
       B(a, b) = [a, [b, lk, ..., l3]].
    2. Swapping adjacent letters x, y in [d, ..., x, y, ...] with d in Q'
       changes it by [d', [x, y]], d' the bracket before x, in Q''; the
       later brackets and the outer bracket with a kill that term.  So
       B(a, b) = [a, [b, l3, ..., lk]] = B(b, a).  B is symmetric, so over
       GF(2), B(sum c_i, sum c_i) = sum B(c_i, c_i).
    3. Write c = [h1, h2], in Q'.  The k-th member at fillers h is
       W_k(h) = [[c, h3, ..., hk], c].  A Q'-part of any h_i with i >= 3
       yields an element of Q'', which the rest kills.  So W_k(h) is the
       sum of the B(c_i, c_i) over the letter parts of h3, ..., hk and the
       multihomogeneous parts c_i of c.
    4. W_k(h) lies in Q'', so its tails [W_k(h), y] vanish, and a partial
       linearization of W_k is a component of W_k at sums of fillers.
    5. B(c_i, c_i) has multidegree 2 deg(c_i) plus the tail letters.  At md
       this forces deg(c_i) = {1:1, 2:1}, so its total is k + 2, which is
       total(md) = n + 2 only when k = n.

    T(a) is multigraded, so the md-component of T(w_k) lies in it for
    k < n.  Tests check this against the full enumeration at n <= 5, and
    that the whole family spans T(a) plus w itself at md.

    The span with the member is T(a) extended by the member's own instance
    vectors, as the T-ideal generated by a union is the sum of the
    T-ideals generated by its parts, and so is each multidegree component
    of it.  Membership is read from residues modulo T(a)
    (``_residue_span``), and the member's residues are inserted only until
    w's residue reduces to 0.  Membership is monotone: a span that holds w
    is inside the full span, so w lies in the full span too; if w's residue
    never reduces to 0, every residue went in.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    w = word_pair_element(n)
    md = w.multidegree()
    quotient = base_consequences(md)
    ech = Echelon(quotient.index)
    residual = quotient.reduce(expansion_vector(ech.index, w))
    in_span_without = not residual
    if residual:
        member = GeneratorSet((Generator(f"wp{n}", w),))
        for vec in _consequence_vectors(member, md, ech.index):
            if ech.insert(quotient.reduce(vec)):
                residual = ech.reduce(residual)
                if not residual:
                    break
    return IndependenceReport(n, md, in_span_without, not residual)


# ---------------------------------------------------------------------------
# spanning sets for the derived subalgebra of the quotient

def _prefix_condition(seq: Sequence[int], sorted_tail: bool) -> bool:
    if len(seq) < 2 or seq[0] <= seq[1]:
        return False
    if sorted_tail:
        return all(a <= b for a, b in zip(seq[1:], seq[2:]))
    return len(seq) < 3 or seq[1] <= seq[2]


def _second_derived_vectors(md: MultiDeg) -> list[int]:
    """Expansions spanning the md-part of [[L, L], [L, L]]: the brackets of
    ``_derived_brackets``."""
    idx = word_index(md)
    return [idx.vector(commutator(p, q).words)
            for p, q in _derived_brackets(md, _Fillers(md))]


@_memo
def _derived_sides(md: MultiDeg, /) -> tuple[tuple[int, ...], ...]:
    """The fixed sides of ``derived_span_check`` at md, built once: the
    expansion vectors of the monomials whose words pass the prefix filter
    of part 1, of those that also pass part 2's (a subset, as a sorted
    tail has i2 <= i3), and the second derived vectors.  The kept
    monomials are expanded by one evaluator, which shares their common
    left-normed prefixes."""
    idx = word_index(md)
    expander = assoc_evaluator(md.indices())
    part_one, part_two = [], []
    for m, seq in zip(monomials_of(md), idx.labels):
        if _prefix_condition(seq, sorted_tail=False):
            vec = idx.vector(expander.monomial(m).words)
            part_one.append(vec)
            if _prefix_condition(seq, sorted_tail=True):
                part_two.append(vec)
    return (tuple(part_one), tuple(part_two),
            tuple(_second_derived_vectors(md)))


def _filtered_product_vectors(md: MultiDeg) -> list[int]:
    """Products (x_{i1}...x_{ik})(x_p x_q) passing the ordering filter:
    prefix i1 > i2 <= i3 <= ... <= ik, p > q, q <= i3 for k >= 3, i2 >= q,
    and i1 >= p when i2 = q."""
    idx = word_index(md)
    out: list[int] = []
    if md.total < 4:
        return out
    for q, p in itertools.combinations(md.indices(), 2):
        for seq in _arrangements(md - MultiDeg({q: 1, p: 1})):
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
    second derived part, modulo the base T-ideal.  The base T-ideal's
    component is ``base_consequences``, built in closed form, and every
    span modulo it is read from residues (``_residue_span``): a span with
    the base rows adjoined has dimension dim T + the residues' dimension,
    and two such spans are equal exactly when their residue spans are.

    In parts 1 and 2 every spanning vector lies in the expansion of the
    component: the monomials and the brackets of the second derived part
    are Lie elements of multidegree md, and so are the base consequences.
    That expansion has dimension ``_witt_dim(md)``, so the vectors span
    the component exactly when their span has that dimension, which is
    then ``dim_target``.
    """
    if part not in (1, 2, 3):
        raise ValueError(f"part must be 1, 2 or 3, got {part}")
    if md.total < 2:
        raise ValueError("the statements concern degrees >= 2")
    quotient = base_consequences(md)
    part_one, part_two, second = _derived_sides(md)
    if part == 3:
        lhs = _residue_span(quotient, _filtered_product_vectors(md))
        rhs = _residue_span(quotient, second)
        return DerivedSpanReport(md, part, lhs == rhs, quotient.dim + lhs.dim,
                                 quotient.dim + rhs.dim)
    kept = part_one if part == 1 else part_two + second
    dim = quotient.dim + _residue_span(quotient, kept).dim
    target = _witt_dim(md)
    return DerivedSpanReport(md, part, dim == target, dim, target)


# ---------------------------------------------------------------------------
# iteration over multidegrees, and generator files

def _partitions(t: int, bound: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of t into parts of at most ``bound`` (default t), parts
    nonincreasing, largest first part first.  It recurses at module level,
    so no call leaves a reference cycle behind."""
    if t == 0:
        yield ()
        return
    for part in range(min(t, bound or t), 0, -1):
        for rest in _partitions(t - part, part):
            yield (part,) + rest


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
