"""Independent oracles for cross-checking the package.

Everything here is deliberately written against different data structures
than the package: ranks by set-based elimination (not int bitsets), matrix
evaluation with plain 0/1 tuples (not polynomial entries), permutations via
itertools.  Expected values in the tests are computed with these.
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
