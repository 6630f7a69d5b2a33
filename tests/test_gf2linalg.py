import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lieid.gf2linalg import (
    Echelon,
    GF2Subspace,
    WordIndex,
    kernel,
    solve_in_span,
    span,
)
from lieid.lie_core import assoc_expand, word_monomial

from oracles import naive_rank, naive_rank_numpy


def bits(vec, width):
    return [(vec >> i) & 1 for i in range(width)]


@pytest.fixture
def idx8():
    return WordIndex(tuple(range(8)))


class TestWordIndex:
    def test_from_words_sorts_length_then_lex(self):
        idx = WordIndex.from_words([(2, 1), (1,), (1, 2), (3,), (1, 2)])
        assert idx.labels == ((1,), (3,), (1, 2), (2, 1))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            WordIndex(((1,), (1,)))

    def test_vector_and_support_roundtrip(self):
        idx = WordIndex.from_words([(1, 2), (2, 1)])
        v = idx.vector([(2, 1)])
        assert idx.support(v) == [(2, 1)]

    def test_unknown_label_rejected(self):
        idx = WordIndex.from_words([(1, 2)])
        with pytest.raises(ValueError):
            idx.vector([(9, 9)])


class TestSpan:
    def test_empty_span(self, idx8):
        assert span(idx8, []).dim == 0

    def test_duplicate_vectors_collapse(self, idx8):
        v = 0b1010
        assert span(idx8, [v, v]).dim == 1

    def test_degree3_multilinear_rank(self):
        seqs = list(itertools.permutations((1, 2, 3)))
        idx = WordIndex.from_words(seqs)
        vecs = [idx.vector(assoc_expand(word_monomial(s)).words) for s in seqs]
        sp = span(idx, vecs)
        assert sp.dim == 2
        assert naive_rank([set(i for i in range(6) if (v >> i) & 1) for v in vecs]) == 2

    def test_rref_shape(self, idx8):
        sp = span(idx8, [0b0110, 0b0101, 0b1100])
        assert list(sp.pivots) == sorted(sp.pivots)
        for p, row in zip(sp.pivots, sp.rows):
            assert (row >> p) & 1
            for q, other in zip(sp.pivots, sp.rows):
                if q != p:
                    assert not (other >> p) & 1

    def test_vector_too_wide_rejected(self):
        idx = WordIndex((0, 1))
        with pytest.raises(ValueError):
            span(idx, [0b100])


class TestEchelon:
    def test_incremental_insert_matches_span(self, idx8):
        vecs = [0b0110, 0b0101, 0b0011, 0b1100]
        ech = Echelon(idx8)
        added = [ech.insert(v) for v in vecs]
        assert added == [True, True, False, True]
        assert ech.dim == 3
        assert GF2Subspace(ech) == span(idx8, vecs)

    def test_vector_too_wide_rejected(self):
        ech = Echelon(WordIndex((0, 1)))
        with pytest.raises(ValueError):
            ech.insert(0b100)
        with pytest.raises(ValueError):
            ech.insert(-1)
        assert ech.dim == 0


class TestMembershipAndComparison:
    def test_zero_always_contained(self, idx8):
        assert span(idx8, []).contains(0)

    def test_generator_contained(self, idx8):
        v = 0b1011
        assert span(idx8, [v]).contains(v)

    def test_equal_and_subset(self, idx8):
        s = span(idx8, [0b11, 0b101])
        assert s == s
        assert span(idx8, []).subset(s)
        t = span(idx8, [0b11])
        assert t.subset(s) and not s.subset(t)
        assert s != t

    def test_dim(self, idx8):
        assert span(idx8, [0b1, 0b10, 0b11]).dim == 2

    def test_index_mismatch_is_an_error(self, idx8):
        other = WordIndex(tuple(range(9)))
        with pytest.raises(ValueError):
            span(idx8, []) == span(other, [])
        with pytest.raises(ValueError):
            span(idx8, []).subset(span(other, []))

    def test_rref_idempotence(self, idx8):
        rng = random.Random(11)
        for _ in range(30):
            vs = [rng.getrandbits(8) for _ in range(rng.randint(0, 6))]
            s = span(idx8, vs)
            assert span(idx8, s.basis_vectors()) == s

    def test_contains_iff_dim_unchanged(self, idx8):
        rng = random.Random(12)
        for _ in range(40):
            vs = [rng.getrandbits(8) for _ in range(4)]
            s = span(idx8, vs)
            v = rng.getrandbits(8)
            grew = span(idx8, list(s.basis_vectors()) + [v])
            assert s.contains(v) == (grew.dim == s.dim)


class TestKernel:
    def test_identity_block_has_trivial_kernel(self):
        idx = WordIndex(tuple(range(4)))
        rows = [1 << i for i in range(4)]
        assert kernel(idx, rows).dim == 0

    def test_zero_row_constrains_nothing(self):
        idx = WordIndex(tuple(range(5)))
        assert kernel(idx, [0]).dim == 5

    def test_paper_three_coefficient_system(self):
        # alpha43 + alpha34 = 0, alpha42 + alpha34 = 0, alpha42 + alpha43 = 0
        idx = WordIndex(("a42", "a43", "a34"))
        rows = [
            idx.unit("a43") ^ idx.unit("a34"),
            idx.unit("a42") ^ idx.unit("a34"),
            idx.unit("a42") ^ idx.unit("a43"),
        ]
        ker = kernel(idx, rows)
        assert ker.dim == 1
        assert idx.support(ker.basis_vectors()[0]) == ["a42", "a43", "a34"]

    def test_solutions_satisfy_constraints(self):
        rng = random.Random(13)
        idx = WordIndex(tuple(range(10)))
        for _ in range(25):
            rows = [rng.getrandbits(10) for _ in range(rng.randint(1, 8))]
            ker = kernel(idx, rows)
            for sol in ker.basis_vectors():
                assert all(bin(r & sol).count("1") % 2 == 0 for r in rows)
            rank = naive_rank_numpy([bits(r, 10) for r in rows])
            assert ker.dim == 10 - rank


def _intersection_dim(idx, a, b):
    """dim(A cap B) via the kernel of the stacked coefficient system."""
    ua, ub = a.basis_vectors(), b.basis_vectors()
    unknowns = WordIndex(tuple(range(len(ua) + len(ub))))
    rows_by_pos = {}
    for j, v in enumerate(list(ua) + list(ub)):
        pos = 0
        while v:
            if v & 1:
                rows_by_pos[pos] = rows_by_pos.get(pos, 0) | (1 << j)
            v >>= 1
            pos += 1
    ker = kernel(unknowns, rows_by_pos.values())
    vecs = []
    for sol in ker.basis_vectors():
        v = 0
        for j in range(len(ua)):
            if (sol >> j) & 1:
                v ^= ua[j]
        vecs.append(v)
    return span(idx, vecs).dim


def test_dimension_formula_with_kernel_intersection():
    rng = random.Random(14)
    idx = WordIndex(tuple(range(9)))
    for _ in range(30):
        a = span(idx, [rng.getrandbits(9) for _ in range(rng.randint(0, 5))])
        b = span(idx, [rng.getrandbits(9) for _ in range(rng.randint(0, 5))])
        union = span(idx, list(a.basis_vectors()) + list(b.basis_vectors()))
        assert union.dim + _intersection_dim(idx, a, b) == a.dim + b.dim


class TestSolveInSpan:
    def test_recovers_combination(self):
        rng = random.Random(15)
        idx = WordIndex(tuple(range(12)))
        for _ in range(30):
            vectors = [rng.getrandbits(12) for _ in range(6)]
            chosen = [i for i in range(6) if rng.random() < 0.5]
            target = 0
            for i in chosen:
                target ^= vectors[i]
            sol = solve_in_span(idx, vectors, target)
            assert sol is not None
            back = 0
            for i in sol:
                back ^= vectors[i]
            assert back == target

    def test_reports_unsolvable(self):
        idx = WordIndex(tuple(range(4)))
        assert solve_in_span(idx, [0b0011], 0b1000) is None

    def test_uses_only_the_greedily_independent_prefix(self):
        # lie_poly_from_vector relies on this: the solution is the unique
        # expression of the target in the vectors independent of earlier ones
        rng = random.Random(16)
        idx = WordIndex(tuple(range(8)))
        for _ in range(200):
            vectors = [rng.getrandbits(8) for _ in range(rng.randint(1, 12))]
            target = rng.getrandbits(8)
            sol = solve_in_span(idx, vectors, target)
            if sol is None:
                assert not span(idx, vectors).contains(target)
                continue
            assert sol == sorted(set(sol))
            for i in sol:
                assert not span(idx, vectors[:i]).contains(vectors[i])

    def test_vector_too_wide_rejected(self):
        idx = WordIndex((0, 1))
        with pytest.raises(ValueError):
            solve_in_span(idx, [0b100], 0b1)
        with pytest.raises(ValueError):
            solve_in_span(idx, [0b1], 0b100)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), max_size=6))
def test_span_dim_matches_oracle(vs):
    idx = WordIndex(tuple(range(8)))
    sp = span(idx, vs)
    assert sp.dim == naive_rank([{i for i in range(8) if (v >> i) & 1} for v in vs])
