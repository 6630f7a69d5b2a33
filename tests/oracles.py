"""Independent oracles for cross-checking the package.

Everything here is deliberately written against different data structures
than the package: ranks by set-based elimination (not int bitsets), matrix
evaluation with plain 0/1 tuples, generic matrices with tuple monomials and
plain matrix products (not packed ints and the commutator formula),
permutations via itertools.  Expected values in the tests are computed with these.
"""

from __future__ import annotations

import itertools

import numpy as np


def naive_rank(rows) -> int:
    """GF(2) rank by elimination on sets of column positions."""
    work = [set(r) for r in rows if r]
    used: list[set] = []
    for row in work:
        for u in used:
            if min(u) in row:
                row ^= u
        if row:
            used.append(row)
    return len(used)


def naive_rank_numpy(matrix) -> int:
    """GF(2) rank by dense numpy elimination; second independent route."""
    a = (np.array(matrix, dtype=np.uint8) & 1).copy()
    if a.size == 0:
        return 0
    m, n = a.shape
    rank = 0
    for col in range(n):
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        p = rank + int(pivots[0])
        a[[rank, p]] = a[[p, rank]]
        others = np.nonzero(a[:, col])[0]
        others = others[others != rank]
        if others.size:
            a[others] ^= a[rank]
        rank += 1
        if rank == m:
            break
    return rank


# --- plain 2x2 matrices over GF(2), as 4-tuples (e11, e12, e21, e22) -------

A = (0, 0, 0, 1)
B = (0, 1, 0, 0)
C = (0, 0, 1, 0)
BC = (1, 0, 0, 1)
BASIS = (A, B, C, BC)


def mat_mul(x, y):
    return (
        (x[0] * y[0] + x[1] * y[2]) % 2,
        (x[0] * y[1] + x[1] * y[3]) % 2,
        (x[2] * y[0] + x[3] * y[2]) % 2,
        (x[2] * y[1] + x[3] * y[3]) % 2,
    )


def mat_add(x, y):
    return tuple((a + b) % 2 for a, b in zip(x, y))


def mat_lie(x, y):
    return mat_add(mat_mul(x, y), mat_mul(y, x))


def eval_monomial(m, assign):
    """Evaluate a LieMonomial at an assignment of 4-tuple matrices."""
    if m.is_leaf:
        return assign[m.index]
    return mat_lie(eval_monomial(m.left, assign), eval_monomial(m.right, assign))


def eval_poly(p, assign):
    total = (0, 0, 0, 0)
    for m in p.monomials:
        total = mat_add(total, eval_monomial(m, assign))
    return total


def is_identity_multilinear(p, n) -> bool:
    """Basis-tuple identity test; sound for multilinear p only."""
    for tup in itertools.product(BASIS, repeat=n):
        assign = {i + 1: tup[i] for i in range(n)}
        if any(eval_poly(p, assign)):
            return False
    return True


# --- generic matrices over GF(2)[v], monomials as plain tuples -------------
# A monomial is a sorted tuple of (indeterminate, exponent) pairs, a
# polynomial a frozenset of monomials, a matrix a 4-tuple of polynomials.
# Matrix products are the plain row-by-column products.

def tuple_monomial(exponents):
    """The tuple monomial of an {indeterminate: exponent} dict."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e))


def _tuple_poly_mul(a, b):
    out = set()
    for x in a:
        for y in b:
            exps = dict(x)
            for v, e in y:
                exps[v] = exps.get(v, 0) + e
            out ^= {tuple_monomial(exps)}
    return frozenset(out)


def _tuple_mat_mul(x, y):
    def dot(a, b, c, d):
        return _tuple_poly_mul(a, b) ^ _tuple_poly_mul(c, d)
    return (dot(x[0], y[0], x[1], y[2]), dot(x[0], y[1], x[1], y[3]),
            dot(x[2], y[0], x[3], y[2]), dot(x[2], y[1], x[3], y[3]))


def _tuple_lie(x, y):
    return tuple(a ^ b for a, b in zip(_tuple_mat_mul(x, y), _tuple_mat_mul(y, x)))


def eval_generic(p, centre=True, trace_zero=False):
    """Value of p at generic matrices.  x_i has q and r (indeterminates
    3(i-1) and 3(i-1)+1) in positions 12 and 21, s (3(i-1)+2) in position 22
    unless trace_zero, and with the centre an indeterminate -i added in
    positions 11 and 22."""
    def var(v):
        return frozenset(((((v, 1),),)))

    def generic(i):
        q, r, s = (var(3 * (i - 1) + k) for k in range(3))
        if trace_zero:
            s = frozenset()
        p_i = var(-i) if centre else frozenset()
        return (p_i, q, r, s ^ p_i)

    def ev(m):
        if m.is_leaf:
            return generic(m.index)
        return _tuple_lie(ev(m.left), ev(m.right))

    total = (frozenset(),) * 4
    for m in p.monomials:
        total = tuple(a ^ b for a, b in zip(total, ev(m)))
    return total


def is_identity_generic(p, trace_zero=False) -> bool:
    """Identity test at the full generic matrices, centre included: of gl2,
    or with trace_zero of its trace-zero part."""
    return not any(eval_generic(p, centre=True, trace_zero=trace_zero))


def distinct_permutations(items):
    """All distinct orderings of a multiset, via brute-force dedup."""
    return sorted(set(itertools.permutations(items)))


# --- consequence spans by brute-force substitution -------------------------

def _linearizations(p):
    """p and its iterated partial linearizations, over every ordered split
    of every repeated variable, by breadth-first search."""
    from lieid.lie_core import is_zero, polarize

    out = []
    queue = [p]
    while queue:
        q = queue.pop(0)
        if q.is_formal_zero() or is_zero(q) or q in out:
            continue
        out.append(q)
        md = q.multidegree()
        top = max(md.indices())
        for v, d in md.items():
            for k in range(2, d + 1):
                fresh = list(range(top + 1, top + k + 1))
                for mults in itertools.product(range(1, d), repeat=k):
                    if sum(mults) == d:
                        queue.append(polarize(q, v, fresh,
                                              dict(zip(fresh, mults))))
    return out


def _submultisets(counts):
    """Every sub-multiset of a {letter: count} dict, as a dict."""
    letters = sorted(counts)
    for mults in itertools.product(*(range(counts[i] + 1) for i in letters)):
        yield {i: m for i, m in zip(letters, mults) if m}


def reference_consequence_words(gens, md):
    """Expansions, as frozensets of words, of every multidegree-md instance
    L(w_1, ..., w_m) x_{l_1} ... x_{l_r}: L runs over the generators (and
    their partial linearizations when the set's closure is on), each w_i
    over every left-normalized monomial of every multidegree, and the tail
    over every ordering of the leftover letters.  No basis is chosen."""
    from lieid.lie_core import (assoc_expand, bracket, leaf, substitute,
                                word_monomial)

    target = dict(md.items())
    out = []
    for gen in gens.generators:
        forms = _linearizations(gen.poly) if gens.polarize_closure else [gen.poly]
        for form in forms:
            slots = list(form.multidegree().items())

            def rec(k, left, assignment):
                if k == len(slots):
                    inst = substitute(form, assignment)
                    letters = [i for i, m in left.items() for _ in range(m)]
                    for tail in distinct_permutations(letters):
                        elem = inst
                        for letter in tail:
                            elem = bracket(elem, leaf(letter))
                        words = assoc_expand(elem).words
                        if words:
                            out.append(words)
                    return
                v, d = slots[k]
                for mu in _submultisets(left):
                    if not mu or any(d * m > left[i] for i, m in mu.items()):
                        continue
                    rest = {i: left[i] - d * mu.get(i, 0) for i in left}
                    rest = {i: m for i, m in rest.items() if m}
                    seq = [i for i, m in mu.items() for _ in range(m)]
                    for arrangement in distinct_permutations(seq):
                        assignment[v] = word_monomial(arrangement)
                        rec(k + 1, rest, assignment)
                assignment.pop(v, None)

            rec(0, target, {})
    return out


def reference_second_derived_words(md):
    """Expansions, as frozensets of words, of every bracket [m1, m2] of
    left-normalized monomials of degree >= 2 whose leaves together make up
    md, in both orders.  No basis is chosen and nothing is deduplicated."""
    from lieid.lie_core import assoc_expand, bracket, word_monomial

    counts = dict(md.items())
    out = []
    for first in _submultisets(counts):
        rest = {i: m - first.get(i, 0) for i, m in counts.items()}
        if sum(first.values()) < 2 or sum(rest.values()) < 2:
            continue
        left = [i for i, m in first.items() for _ in range(m)]
        right = [i for i, m in rest.items() for _ in range(m)]
        for a in distinct_permutations(left):
            for b in distinct_permutations(right):
                words = assoc_expand(bracket(word_monomial(a),
                                             word_monomial(b))).words
                if words:
                    out.append(words)
    return out


# --- earlier routes of the package, kept as references ---------------------

def reference_derived_span(md, part):
    """(spans, dim_filtered, dim_target) of ``derived_span_check`` by two
    spans, each with the base rows adjoined: at parts 1 and 2 the kept
    words with the extra rows, against every basis vector of the component
    with the same rows; at part 3 the filtered products, from
    ``reference_filtered_product_vectors``, against the second derived
    vectors."""
    from lieid.gf2linalg import span
    from lieid.tideal import (_prefix_condition, _second_derived_vectors,
                              base_consequences, component, expansion_vector,
                              monomials_of)

    comp = component(md)
    idx = comp.index
    extra = list(base_consequences(md).basis_vectors())
    if part == 3:
        lhs = span(idx, reference_filtered_product_vectors(md) + extra)
        rhs = span(idx, _second_derived_vectors(md) + extra)
        return lhs == rhs, lhs.dim, rhs.dim
    keep = [expansion_vector(idx, m)
            for m, seq in zip(monomials_of(md), idx.labels)
            if _prefix_condition(seq, sorted_tail=(part == 2))]
    if part == 2:
        extra.extend(_second_derived_vectors(md))
    lhs = span(idx, keep + extra)
    rhs = span(idx, list(comp.basis_vectors) + extra)
    return lhs == rhs, lhs.dim, rhs.dim


def reference_filtered_product_vectors(md):
    """The products of ``_filtered_product_vectors`` by a scan of every
    sub-multidegree mu whose complement is two distinct letters q < p."""
    from lieid.lie_core import leaf, pair, word_monomial
    from lieid.tideal import (_arrangements, _prefix_condition,
                              expansion_vector, word_index)

    idx = word_index(md)
    out = []
    for mu in md.sub_multidegrees():
        if mu.total != md.total - 2 or mu.total < 2:
            continue
        letters = (md - mu).indices()
        if len(letters) != 2:
            continue
        q, p = letters
        for seq in _arrangements(mu):
            if not _prefix_condition(seq, sorted_tail=True):
                continue
            if len(seq) >= 3 and not q <= seq[2]:
                continue
            if seq[1] < q or (seq[1] == q and seq[0] < p):
                continue
            prod = pair(word_monomial(seq), pair(leaf(p), leaf(q)))
            out.append(expansion_vector(idx, prod))
    return out


def reference_greedy_component(md):
    """(basis, basis_vectors) of ``component`` by the greedy pass over
    every monomial of md: a monomial is kept when its expansion is
    independent of the kept ones before it."""
    from lieid.gf2linalg import Echelon
    from lieid.tideal import expansion_vector, monomials_of, word_index

    idx = word_index(md)
    ech = Echelon(idx)
    basis, basis_vectors = [], []
    for m in monomials_of(md):
        vec = expansion_vector(idx, m)
        if ech.insert(vec):
            basis.append(m)
            basis_vectors.append(vec)
    return tuple(basis), tuple(basis_vectors)


def reference_renamed_vectors(p, n):
    """Expansion vectors, at 1^n, of the multilinear p under every renaming
    x_k -> x_perm[k-1], perm running over ``itertools.permutations``.

    p is expanded once and each renaming maps its words.  This is exact:
    expansion commutes with renaming letters, as both are algebra maps that
    agree on the letters, and a renaming is a bijection on words, so no two
    words of the expansion collide.
    """
    from lieid.lie_core import MultiDeg, assoc_expand
    from lieid.tideal import word_index

    idx = word_index(MultiDeg.multilinear(n))
    words = assoc_expand(p).words
    return [idx.vector(tuple(perm[k - 1] for k in w) for w in words)
            for perm in itertools.permutations(range(1, n + 1))]
