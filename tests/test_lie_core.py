import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lieid.lie_core import (
    AssocPoly,
    DegreeCapError,
    LiePoly,
    MultiDeg,
    as_poly,
    assoc_evaluator,
    assoc_expand,
    bracket,
    commutator,
    is_zero,
    leaf,
    left_norm,
    multidegree,
    pair,
    polarize,
    substitute,
    word_monomial,
)

from oracles import naive_rank


def words(p):
    return {"".join(map(str, w)) for w in assoc_expand(p).words}


# --- monomial strategies for property tests --------------------------------

indices = st.integers(min_value=1, max_value=5)


def monomials(max_degree=4):
    return st.recursive(
        indices.map(leaf),
        lambda kids: st.tuples(kids, kids).map(lambda lr: pair(*lr)),
        max_leaves=max_degree,
    )


# --- construction and basic ops --------------------------------------------

class TestMonomial:
    def test_leaf_degree(self):
        assert leaf(7).degree == 1
        assert multidegree(leaf(7)) == MultiDeg({7: 1})

    def test_leaf_index_zero_rejected(self):
        with pytest.raises(ValueError):
            leaf(0)

    def test_pair_degree_adds(self):
        m = pair(pair(leaf(1), leaf(2)), leaf(1))
        assert m.degree == 3
        assert multidegree(m) == MultiDeg({1: 2, 2: 1})

    def test_left_norm(self):
        assert left_norm([leaf(1), leaf(2), leaf(3)]) == pair(
            pair(leaf(1), leaf(2)), leaf(3)
        )
        assert left_norm([leaf(5)]) == leaf(5)
        built = left_norm([pair(leaf(1), leaf(2)), pair(leaf(3), leaf(4)), leaf(5)])
        assert built == pair(
            pair(pair(leaf(1), leaf(2)), pair(leaf(3), leaf(4))), leaf(5)
        )

    def test_left_norm_accepts_ints(self):
        assert left_norm([1, 2, 3]) == word_monomial([1, 2, 3])

    def test_left_norm_empty_rejected(self):
        with pytest.raises(ValueError):
            left_norm([])

    def test_ordering_by_degree_then_structure(self):
        x1, x2 = leaf(1), leaf(2)
        assert x1 < x2 < pair(x1, x2) < pair(x2, x1) < pair(pair(x1, x2), x1)
        jacobi = [
            pair(pair(leaf(3), leaf(1)), leaf(2)),
            pair(pair(leaf(1), leaf(2)), leaf(3)),
            pair(pair(leaf(2), leaf(3)), leaf(1)),
        ]
        assert [m.spine()[0].index for m in sorted(jacobi)] == [1, 2, 3]


class TestBracket:
    def test_pair_of_leaves(self):
        assert bracket(leaf(1), leaf(2)) == LiePoly.of(pair(leaf(1), leaf(2)))

    def test_zero_absorbs(self):
        assert bracket(as_poly(leaf(1)), LiePoly.ZERO) == LiePoly.ZERO
        assert bracket(LiePoly.ZERO, as_poly(leaf(1))) == LiePoly.ZERO

    def test_square_formally_nonzero_but_expands_to_zero(self):
        sq = bracket(leaf(1), leaf(1))
        assert not sq.is_formal_zero()
        assert is_zero(sq)

    def test_bilinear(self):
        p = LiePoly.of(1, 2)
        q = LiePoly.of(3)
        expected = LiePoly.of(pair(leaf(1), leaf(3)), pair(leaf(2), leaf(3)))
        assert bracket(p, q) == expected


class TestExpand:
    def test_single_bracket(self):
        assert words(bracket(leaf(1), leaf(2))) == {"12", "21"}

    def test_degree_three(self):
        assert words(word_monomial([1, 2, 3])) == {"123", "213", "312", "321"}

    def test_jacobi_sum_vanishes(self):
        jac = LiePoly.of(
            word_monomial([1, 2, 3]),
            word_monomial([2, 3, 1]),
            word_monomial([3, 1, 2]),
        )
        assert is_zero(jac)
        assert not jac.is_formal_zero()

    def test_gf2_formal_cancellation(self):
        m = word_monomial([1, 2])
        assert (LiePoly.of(m) + LiePoly.of(m)).is_formal_zero()

    def test_homogeneous_words_share_multidegree(self):
        p = word_monomial([2, 1, 1, 3])
        lengths = {len(w) for w in assoc_expand(p).words}
        multisets = {tuple(sorted(w)) for w in assoc_expand(p).words}
        assert lengths == {4}
        assert multisets == {(1, 1, 2, 3)}


@settings(max_examples=60, deadline=None)
@given(monomials(), monomials())
def test_anticommutativity_after_expansion(u, v):
    assert is_zero(bracket(u, v) + bracket(v, u))


@settings(max_examples=60, deadline=None)
@given(monomials())
def test_alternating_after_expansion(u):
    assert is_zero(bracket(u, u))


@settings(max_examples=60, deadline=None)
@given(monomials(), monomials())
def test_commutator_of_expansions_is_expansion_of_bracket(u, v):
    assert commutator(assoc_expand(u), assoc_expand(v)) == assoc_expand(
        bracket(u, v))


@settings(max_examples=40, deadline=None)
@given(monomials(3), monomials(3), monomials(2))
def test_jacobi_after_expansion(u, v, w):
    total = (
        bracket(bracket(u, v), w)
        + bracket(bracket(v, w), u)
        + bracket(bracket(w, u), v)
    )
    assert is_zero(total)


class TestSubstitute:
    def test_renaming(self):
        p = bracket(leaf(1), leaf(2))
        assert substitute(p, {1: leaf(3), 2: leaf(4)}) == bracket(leaf(3), leaf(4))

    def test_bilinearity(self):
        p = bracket(leaf(1), leaf(2))
        out = substitute(p, {1: LiePoly.of(1, 3), 2: leaf(2)})
        assert out == bracket(leaf(1), leaf(2)) + bracket(leaf(3), leaf(2))

    def test_missing_index(self):
        with pytest.raises(ValueError, match="x2"):
            substitute(bracket(leaf(1), leaf(2)), {1: leaf(3)})

    @settings(max_examples=30, deadline=None)
    @given(monomials(2), monomials(2), monomials(2))
    def test_is_lie_endomorphism(self, u, v, w):
        subs = {i: w for i in range(1, 6)}
        lhs = substitute(bracket(u, v), subs)
        rhs = bracket(substitute(u, subs), substitute(v, subs))
        assert assoc_expand(lhs) == assoc_expand(rhs)


class TestPolarize:
    def test_square_linearizes_to_symmetric_sum(self):
        out = polarize(as_poly(pair(leaf(1), leaf(1))), 1, [5, 6], {5: 1, 6: 1})
        assert out == LiePoly.of(pair(leaf(5), leaf(6)), pair(leaf(6), leaf(5)))
        assert is_zero(out)

    def test_target_must_sum_to_degree(self):
        p = as_poly(pair(pair(leaf(1), leaf(2)), leaf(1)))
        with pytest.raises(ValueError, match="sum"):
            polarize(p, 1, [5, 6], {5: 1, 6: 2})

    def test_parts_must_be_fresh(self):
        p = as_poly(pair(pair(leaf(1), leaf(2)), leaf(1)))
        with pytest.raises(ValueError, match="occur"):
            polarize(p, 1, [2, 6], {2: 1, 6: 1})

    def test_needs_two_parts(self):
        p = as_poly(pair(leaf(1), leaf(1)))
        with pytest.raises(ValueError, match="two parts"):
            polarize(p, 1, [5], {5: 2})

    def test_requires_homogeneous_in_variable(self):
        p = LiePoly.of(pair(leaf(1), leaf(2)), pair(pair(leaf(1), leaf(2)), leaf(1)))
        with pytest.raises(ValueError, match="homogeneous"):
            polarize(p, 1, [5, 6], {5: 1, 6: 1})

    @pytest.mark.parametrize(
        "mono",
        [
            pair(pair(leaf(1), leaf(2)), leaf(1)),
            left_norm([1, 1, 2, 1]),
            pair(pair(leaf(1), leaf(1)), pair(leaf(2), leaf(1))),
        ],
    )
    def test_components_and_renamings_sum_to_full_substitution(self, mono):
        # the decomposition that makes polarization closures exact: the
        # positive components plus the two single-part renamings add up to
        # the substitution of the sum
        p = as_poly(mono)
        d = sum(1 for i in mono.leaves() if i == 1)
        full = substitute(p, {1: LiePoly.of(5, 6), 2: leaf(2)})
        total = substitute(p, {1: leaf(5), 2: leaf(2)}) + substitute(
            p, {1: leaf(6), 2: leaf(2)}
        )
        for c in range(1, d):
            total = total + polarize(p, 1, [5, 6], {5: c, 6: d - c})
        assert total == full

    def test_three_part_decomposition(self):
        p = as_poly(left_norm([1, 1, 2, 1]))
        full = substitute(p, {1: LiePoly.of(5, 6, 7), 2: leaf(2)})
        total = LiePoly.ZERO
        for qs in ((5,), (6,), (7,)):
            total = total + substitute(p, {1: leaf(qs[0]), 2: leaf(2)})
        for qs in itertools.combinations((5, 6, 7), 2):
            for c in range(1, 3):
                total = total + polarize(
                    p, 1, list(qs), {qs[0]: c, qs[1]: 3 - c}
                )
        total = total + polarize(p, 1, [5, 6, 7], {5: 1, 6: 1, 7: 1})
        assert total == full


class TestMultiDeg:
    def test_total_and_lookup(self):
        md = MultiDeg({1: 2, 3: 1})
        assert md.total == 3
        assert md[1] == 2 and md[2] == 0 and md[3] == 1

    def test_zero_multiplicities_dropped(self):
        assert MultiDeg({1: 1, 2: 0}) == MultiDeg({1: 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiDeg({1: -1})

    def test_arithmetic(self):
        a = MultiDeg({1: 2, 2: 1})
        b = MultiDeg({1: 1})
        assert a - b == MultiDeg({1: 1, 2: 1})
        assert b.scaled(3) == MultiDeg({1: 3})
        with pytest.raises(ValueError):
            b - a

    def test_sub_multidegrees_count(self):
        md = MultiDeg({1: 2, 2: 1})
        subs = list(md.sub_multidegrees())
        assert len(subs) == 6
        assert MultiDeg({}) in subs and md in subs

    def test_poly_multidegree_checks_homogeneity(self):
        p = LiePoly.of(word_monomial([1, 2]), word_monomial([1, 3]))
        assert not p.is_multihomogeneous()
        with pytest.raises(ValueError):
            p.multidegree()
        with pytest.raises(ValueError):
            LiePoly.ZERO.multidegree()


class TestRanksAgainstOracle:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 6), (5, 24)])
    def test_multilinear_rank_is_factorial(self, n, expected):
        seqs = list(itertools.permutations(range(1, n + 1)))
        all_words = {w: i for i, w in enumerate(seqs)}
        rows = []
        for s in seqs:
            rows.append(
                {all_words[w] for w in assoc_expand(word_monomial(s)).words}
            )
        assert naive_rank(rows) == expected

    def test_left_normalized_monomials_span_all_bracketings(self):
        # spanning check against every bracketing tree, totals <= 5 here;
        # the degree-6 sweep runs in the acceptance suite
        def all_trees(md):
            if md.total == 1:
                return [leaf(md.indices()[0])]
            out = []
            for mu in md.sub_multidegrees():
                if mu.total in (0, md.total):
                    continue
                for l in all_trees(mu):
                    for r in all_trees(md - mu):
                        out.append(pair(l, r))
            return out

        from lieid.tideal import canonical_multidegrees, component, expansion_vector

        for md in canonical_multidegrees(1, 5):
            comp = component(md)
            vecs = {expansion_vector(comp.index, t) for t in all_trees(md)}
            from lieid.gf2linalg import span

            assert span(comp.index, sorted(vecs)).dim == comp.dim


small_monomials = st.recursive(
    st.integers(1, 4).map(leaf),
    lambda kids: st.tuples(kids, kids).map(lambda lr: pair(*lr)),
    max_leaves=6,
)
small_polys = st.lists(small_monomials, min_size=1, max_size=3).map(
    lambda ms: LiePoly.of(*ms)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=8))
def test_batch_evaluator_expands_like_assoc_expand(batch):
    # The batch shares subtrees, so later elements read expansions that
    # earlier ones left in the cache; a second pass reads a full cache.
    expander = assoc_evaluator(range(1, 5))
    for p in batch + batch[::-1]:
        assert expander.poly(p) == assoc_expand(p)
        for m in p.monomials:
            assert expander.monomial(m) == assoc_expand(m)


class TestDegreeCap:
    def test_expansion_guarded(self, degree_cap_guard):
        degree_cap_guard(4)
        with pytest.raises(DegreeCapError):
            assoc_expand(word_monomial([1, 2, 3, 4, 5]))
        assert words(word_monomial([1, 2, 3, 4]))

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            from lieid.lie_core import set_degree_cap

            set_degree_cap(0)


def test_assoc_poly_addition_is_symmetric_difference():
    a = AssocPoly.from_words([(1, 2), (2, 1)])
    b = AssocPoly.from_words([(2, 1), (3,)])
    assert (a + b).words == {(1, 2), (3,)}
    assert (a + a).is_zero()
