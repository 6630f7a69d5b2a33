import gc
import hashlib
import importlib.util
import itertools
import json
import math
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lieid.eval_gl2 import is_identity_gl2
from lieid.expr import parse
from lieid.lie_core import (
    AssocPoly,
    DegreeCapError,
    Evaluator,
    LiePoly,
    MultiDeg,
    as_poly,
    assoc_expand,
    bracket,
    commutator,
    leaf,
    pair,
    substitute,
    word_monomial,
)
from lieid import tideal
from lieid.gf2linalg import Echelon, GF2Subspace, SpanSolver, span
from lieid.tideal import (
    BASE_RELATION,
    BASE_SET,
    Generator,
    GeneratorSet,
    base_consequences,
    canonical_multidegrees,
    check_generation,
    clear_caches,
    coefficient_conditions_hold,
    component,
    consequences,
    derived_span_check,
    expansion_vector,
    generator_set,
    identities,
    identity_coefficient_space,
    identity_preimage_space,
    lie_poly_from_vector,
    load_generator_file,
    monomials_of,
    multilinear_span_check,
    normal_form_monomial,
    normal_form_poly,
    normal_form_represent,
    sr_basis_identity,
    tail_rewrite_difference,
    theorem_generators,
    triple_identity,
    word_index,
    word_pair_element,
    word_pair_independence,
    zero_in_quotient,
)

from oracles import (
    distinct_permutations,
    naive_rank,
    reference_consequence_words,
    reference_derived_span,
    reference_filtered_product_vectors,
    reference_greedy_component,
    reference_renamed_vectors,
    reference_second_derived_words,
)


def _compositions(t):
    """Every sequence of positive integers summing to t."""
    if t == 0:
        yield ()
        return
    for first in range(1, t + 1):
        for rest in _compositions(t - first):
            yield (first,) + rest


# every multidegree of total <= 6 whose smallest letter occurs once, one
# per sequence of multiplicities; the letters start at x2 at even totals
FIRST_LETTER_ONCE = [
    MultiDeg({2 - total % 2 + i: m for i, m in enumerate((1,) + rest)})
    for total in range(1, 7) for rest in _compositions(total - 1)
]


def _generating_renamings(n):
    """(1 2) and (1 2 ... n), as letter maps."""
    swap = {k: k for k in range(1, n + 1)} | {1: 2, 2: 1}
    return swap, {k: k % n + 1 for k in range(1, n + 1)}


class TestComponent:
    @pytest.mark.parametrize(
        "md,expected",
        [
            (MultiDeg({1: 1, 2: 1}), 1),
            (MultiDeg.multilinear(3), 2),
            (MultiDeg.multilinear(4), 6),
        ],
    )
    def test_dimensions(self, md, expected):
        assert component(md).dim == expected

    @pytest.mark.parametrize("md", canonical_multidegrees(1, 6), ids=str)
    def test_dimension_is_witts_formula(self, md):
        # dim = (1/n) sum over d | gcd of the multiplicities of
        # mu(d) (n/d)! / prod (m_i/d)!
        def mobius(d):
            out = 1
            for p in range(2, d + 1):
                if d % p == 0:
                    d //= p
                    if d % p == 0:
                        return 0
                    out = -out
            return out

        mults = [m for _, m in md.items()]
        total = 0
        for d in range(1, math.gcd(*mults) + 1):
            if all(m % d == 0 for m in mults):
                count = math.factorial(md.total // d)
                for m in mults:
                    count //= math.factorial(m // d)
                total += mobius(d) * count
        assert component(md).dim == total // md.total

    @pytest.mark.parametrize(
        "md", canonical_multidegrees(1, 7)
        + [MultiDeg({2: 1, 4: 2, 7: 1, 9: 1}), MultiDeg({3: 2, 5: 2}),
           MultiDeg({2: 3, 6: 3}), MultiDeg({4: 2, 9: 2, 11: 2})],
        ids=repr,
    )
    def test_witt_dim_is_the_component_dimension(self, md):
        # derived_span_check reads its target dimension from the formula
        assert tideal._witt_dim(md) == component(md).dim

    @pytest.mark.parametrize("md", FIRST_LETTER_ONCE, ids=repr)
    def test_closed_form_basis_is_the_greedy_basis(self, md):
        comp = component(md)
        assert (comp.basis, comp.basis_vectors) == reference_greedy_component(md)

    @pytest.mark.slow
    def test_closed_form_basis_is_the_greedy_basis_at_seven(self):
        md = MultiDeg.multilinear(7)
        comp = component(md)
        assert (comp.basis, comp.basis_vectors) == reference_greedy_component(md)

    def test_closed_form_runs_no_elimination(self, monkeypatch):
        def no_echelon(index):
            raise AssertionError("an Echelon was built")

        assert len(FIRST_LETTER_ONCE) == 32
        clear_caches()
        monkeypatch.setattr(tideal, "Echelon", no_echelon)
        for md in FIRST_LETTER_ONCE:
            component(md)

    def test_single_variable_component_vanishes(self):
        assert component(MultiDeg({1: 2})).dim == 0
        assert component(MultiDeg({1: 1})).dim == 1

    def test_monomial_enumeration_matches_bruteforce(self):
        md = MultiDeg({1: 2, 2: 1, 3: 1})
        seqs = [tuple(m.leaves()) for m in monomials_of(md)]
        assert seqs == distinct_permutations((1, 1, 2, 3))

    def test_word_index_is_all_arrangements(self):
        # every canonical shape up to total 7, letters that skip numbers,
        # and the empty multidegree, whose one word is ()
        shapes = canonical_multidegrees(1, 7) + [
            MultiDeg({2: 1, 5: 2, 7: 1}), MultiDeg({3: 2, 4: 1}), MultiDeg({})]
        for md in shapes:
            leaves = tuple(l for l, m in md.items() for _ in range(m))
            assert word_index(md).labels == tuple(
                distinct_permutations(leaves)), md
        assert word_index(MultiDeg({})).labels == ((),)

    def test_cap_guard(self, degree_cap_guard):
        degree_cap_guard(3)
        with pytest.raises(DegreeCapError):
            component(MultiDeg.multilinear(4))

    def test_lie_poly_from_vector_roundtrip(self):
        md = MultiDeg.multilinear(4)
        comp = component(md)
        vectors = [expansion_vector(comp.index, m) for m in monomials_of(md)]
        rng = random.Random(31)
        for _ in range(10):
            target = 0
            for v in rng.sample(vectors, 3):
                target ^= v
            p = lie_poly_from_vector(md, target)
            assert expansion_vector(comp.index, p) == target

    @pytest.mark.parametrize("md", canonical_multidegrees(2, 5), ids=str)
    def test_lie_poly_from_vector_equals_solving_over_every_monomial(self, md):
        comp = component(md)
        monos = monomials_of(md)
        vectors = [expansion_vector(comp.index, m) for m in monos]
        space = span(comp.index, vectors)
        solver = SpanSolver(comp.index, vectors)
        for vec in space.basis_vectors() + identities(md).basis_vectors():
            sol = solver.solve(vec)
            expected = LiePoly.of(*(monos[i] for i in sol))
            assert lie_poly_from_vector(md, vec) == expected

    def test_lie_poly_from_vector_rejects_non_members(self):
        md = MultiDeg({1: 1, 2: 1})
        idx = word_index(md)
        outside = idx.unit((1, 2))  # a single word is not an expansion
        with pytest.raises(ValueError):
            lie_poly_from_vector(md, outside)


class TestClosedFormWords:
    """``_bracket_words``, the closed-form expansion the lemma side writes
    into word positions, against ``assoc_expand`` of the bracket tree."""

    @pytest.mark.parametrize(
        "md", canonical_multidegrees(1, 7)
        + [MultiDeg({2: 1, 5: 2, 7: 1}), MultiDeg({3: 3, 4: 2})],
        ids=repr,
    )
    def test_left_normed_words_are_the_expansion(self, md):
        # every arrangement; with a repeated letter some words arise twice
        # and must cancel, as in [x1, x1] = 0
        repeated = False
        for seq in word_index(md).labels:
            words = tideal._bracket_words(*seq)
            assert len(words) == 2 ** (len(seq) - 1)
            assert (AssocPoly.from_words(words)
                    == assoc_expand(word_monomial(seq))), seq
            repeated = repeated or len(set(words)) < len(words)
        assert repeated == any(m > 1 for _, m in md.items())

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_normal_form_shapes(self, n):
        for label in tideal.normal_form_labels(n):
            head, tail = tideal._normal_form_letters(n, label)
            words = tideal._bracket_words(tideal._bracket_words(*head),
                                          tideal._bracket_words(*tail))
            assert (AssocPoly.from_words(words)
                    == assoc_expand(normal_form_monomial(n, label))), label

    @pytest.mark.parametrize(
        "md", [MultiDeg.multilinear(5), MultiDeg({1: 2, 2: 2, 3: 1}),
               MultiDeg({1: 3, 2: 1, 3: 1, 4: 1})],
        ids=repr,
    )
    def test_filtered_product_shapes(self, md):
        # (x_{i1} ... x_{ik})(x_p x_q) for every arrangement and letter pair
        for q, p in itertools.combinations(md.indices(), 2):
            for seq in word_index(md - MultiDeg({q: 1, p: 1})).labels:
                words = tideal._bracket_words(tideal._bracket_words(*seq),
                                              tideal._bracket_words(p, q))
                want = assoc_expand(pair(word_monomial(seq),
                                         pair(leaf(p), leaf(q))))
                assert AssocPoly.from_words(words) == want, (seq, p, q)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_triple_identity_shape(self, n):
        assert (AssocPoly.from_words(tideal._triple_identity_words(n))
                == assoc_expand(triple_identity(n)))

    @pytest.mark.parametrize(
        "md", canonical_multidegrees(2, 5) + [MultiDeg.multilinear(6)],
        ids=repr,
    )
    def test_derived_sides_are_the_expanded_vectors(self, md):
        # the monomials and the brackets of basis elements, each expanded
        # by expansion_vector, in the order of the route they replace
        idx = word_index(md)
        one, two = [], []
        for m, seq in zip(monomials_of(md), idx.labels):
            if tideal._prefix_condition(seq, sorted_tail=False):
                one.append(expansion_vector(idx, m))
                if tideal._prefix_condition(seq, sorted_tail=True):
                    two.append(expansion_vector(idx, m))
        second = []
        for nu1 in md.sub_multidegrees():
            nu2 = md - nu1
            if min(nu1.total, nu2.total) < 2 or nu2.items() < nu1.items():
                continue
            firsts, seconds = component(nu1).basis, component(nu2).basis
            for i, p in enumerate(firsts):
                for q in seconds[i + 1:] if nu1 == nu2 else seconds:
                    second.append(expansion_vector(idx, pair(p, q)))
        assert tideal._derived_sides(md) == (tuple(one), tuple(two),
                                             tuple(second))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_normal_form_frame_is_the_expanded_labels(self, n):
        md = MultiDeg.multilinear(n)
        idx = word_index(md)
        frame = tideal._normal_form_frame(md)
        labels = tuple(tideal.normal_form_labels(n))
        assert frame.labels == labels
        assert frame.vectors == tuple(
            expansion_vector(idx, normal_form_monomial(n, lab))
            for lab in labels) + base_consequences(md).basis_vectors()

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_spin_seed_is_the_expanded_triple_identity(self, n):
        idx = word_index(MultiDeg.multilinear(n))
        assert (idx.vector(tideal._triple_identity_words(n))
                == expansion_vector(idx, triple_identity(n)))


class TestConsequences:
    def test_contains_generator_instance(self):
        md = MultiDeg.multilinear(5)
        c = consequences(BASE_SET, md)
        assert c.contains(expansion_vector(word_index(md), BASE_RELATION))

    def test_contains_tail_moved_instance(self):
        # (x1 x2 x5)(x3 x4) + (x1 x2)(x3 x4 x5) is a consequence
        md = MultiDeg.multilinear(5)
        p = LiePoly.of(
            pair(word_monomial([1, 2, 5]), pair(leaf(3), leaf(4))),
            pair(pair(leaf(1), leaf(2)), word_monomial([3, 4, 5])),
        )
        assert consequences(BASE_SET, md).contains(
            expansion_vector(word_index(md), p)
        )

    def test_contains_degree_six_product_of_brackets(self):
        md = MultiDeg.multilinear(6)
        p = pair(
            pair(pair(leaf(1), leaf(2)), pair(leaf(3), leaf(4))),
            pair(leaf(5), leaf(6)),
        )
        assert consequences(BASE_SET, md).contains(
            expansion_vector(word_index(md), p)
        )

    def test_monotone_in_the_generator_set(self):
        md = word_pair_element(3).multidegree()
        small = BASE_SET
        large = GeneratorSet(
            BASE_SET.generators + (Generator("wp3", word_pair_element(3)),)
        )
        assert consequences(small, md).subset(consequences(large, md))

    def test_sound_for_identity_generators(self):
        for md in canonical_multidegrees(1, 5):
            assert consequences(theorem_generators(md.total), md).subset(
                identities(md)
            )

    def test_polarize_closure_matters_for_repeated_variables(self):
        # without the closure the multilinear component of the word-pair
        # ideal is strictly smaller
        wp3 = generator_set([word_pair_element(3)], polarize_closure=True)
        wp3_off = generator_set([word_pair_element(3)], polarize_closure=False)
        md = MultiDeg.multilinear(5)
        with_closure = consequences(wp3, md)
        without = consequences(wp3_off, md)
        assert without.subset(with_closure)
        assert without.dim < with_closure.dim


class TestIdentities:
    def test_multilinear_three_is_trivial(self):
        assert identities(MultiDeg.multilinear(3)).dim == 0

    def test_multilinear_four_is_the_three_term_identity(self):
        md = MultiDeg.multilinear(4)
        ids = identities(md)
        assert ids.dim == 1
        basis_poly = lie_poly_from_vector(md, ids.basis_vectors()[0])
        assert assoc_expand(basis_poly) == assoc_expand(triple_identity(4))

    def test_contains_word_pair_component(self):
        md = MultiDeg({1: 2, 2: 2, 3: 1})
        p = pair(pair(leaf(1), leaf(2)), word_monomial([1, 2, 3]))
        assert identities(md).contains(expansion_vector(word_index(md), p))

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_word_pair_expansions_lie_in_the_kernel(self, n):
        w = word_pair_element(n)
        md = w.multidegree()
        assert identities(md).contains(expansion_vector(word_index(md), w))

    @pytest.mark.slow
    def test_word_pair_expansion_in_the_kernel_at_six(self):
        # total degree 8; the kernel at this multidegree takes about two minutes
        w = word_pair_element(6)
        md = w.multidegree()
        ids = identities(md)
        assert ids.dim == 1245
        assert ids.contains(expansion_vector(word_index(md), w))

    @pytest.mark.parametrize("n", (4, 5))
    def test_permutation_stability(self, n):
        md = MultiDeg.multilinear(n)
        idx = word_index(md)
        ids = identities(md)
        rng = random.Random(41)
        perms = list(itertools.permutations(range(1, n + 1)))
        for sigma in rng.sample(perms, 6):
            mapping = {k: sigma[k - 1] for k in range(1, n + 1)}
            for row in ids.basis_vectors():
                moved = idx.vector(
                    tuple(mapping[i] for i in w) for w in idx.support(row)
                )
                assert ids.contains(moved)

    def test_quotient_membership_does_not_change_verdicts(self):
        md = MultiDeg.multilinear(5)
        cons = consequences(BASE_SET, md)
        rng = random.Random(42)
        for _ in range(8):
            p = LiePoly.of(*rng.sample(monomials_of(md), 2))
            c = lie_poly_from_vector(md, rng.choice(cons.basis_vectors()))
            assert is_identity_gl2(p) == is_identity_gl2(p + c)


# sha256 of the hex RREF basis of identities(md), one line per row, at every
# canonical multidegree of total degree <= 7, recorded from the evaluation of
# every left-normalized monomial at full four-entry generic matrices
IDENTITY_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "identity_digests.json").read_text())
SLOW_DIGESTS = ("1,1,1,1,1,1,1", "2,1,1,1,1,1")


def _check_identity_digest(key):
    md = MultiDeg({i + 1: int(m) for i, m in enumerate(key.split(","))})
    ids = identities(md)
    text = "\n".join(format(v, "x") for v in ids.basis_vectors())
    assert ids.dim == IDENTITY_DIGESTS[key]["dim"]
    assert hashlib.sha256(text.encode()).hexdigest() == IDENTITY_DIGESTS[key]["sha256"]


class TestIdentityDigests:
    def test_every_canonical_multidegree_is_recorded(self):
        keys = {",".join(str(m) for _, m in md.items())
                for md in canonical_multidegrees(1, 7)}
        assert set(IDENTITY_DIGESTS) == keys

    @pytest.mark.parametrize(
        "key", [k for k in IDENTITY_DIGESTS if k not in SLOW_DIGESTS])
    def test_identities_match_recorded_digest(self, key):
        _check_identity_digest(key)

    @pytest.mark.slow
    @pytest.mark.parametrize("key", SLOW_DIGESTS)
    def test_largest_identities_match_recorded_digest(self, key):
        _check_identity_digest(key)


def _load_bench_oracle():
    """``bench/oracle.py``, the benchmark's identity oracle: dimensions by
    random evaluation at 2x2 matrices over GF(2^31), sharing no code or
    data structure with lieid."""
    path = Path(__file__).parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_ORACLE = _load_bench_oracle()


class TestIdentityOracle:
    """Identity dimensions against the independent oracle, non-multilinear
    components included.  Random evaluation is one-sided: the oracle never
    reports less than the true dimension, and one seed fixes its points."""

    @pytest.mark.parametrize("md", canonical_multidegrees(1, 6) + [
        pytest.param(md, marks=pytest.mark.slow)
        for md in canonical_multidegrees(7, 7)], ids=str)
    def test_identity_dim_matches_the_oracle(self, md):
        mults = tuple(m for _, m in md.items())
        assert BENCH_ORACLE.Oracle(1).identity_dim(mults) == identities(md).dim


class TestTripleIdentity:
    def test_smallest_member(self):
        assert triple_identity(4) == parse(
            "(x1 x2)(x3 x4) + (x1 x3)(x2 x4) + (x1 x4)(x2 x3)"
        )

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_shape(self, n):
        fn = triple_identity(n)
        assert len(fn.monomials) == 3
        assert fn.multidegree() == MultiDeg.multilinear(n)

    def test_is_identity(self):
        assert is_identity_gl2(triple_identity(5))

    def test_below_four_rejected(self):
        with pytest.raises(ValueError):
            triple_identity(3)


class TestQuotient:
    def test_tail_move_is_zero(self):
        p = LiePoly.of(
            pair(word_monomial([1, 2, 5]), pair(leaf(3), leaf(4))),
            pair(pair(leaf(1), leaf(2)), word_monomial([3, 4, 5])),
        )
        assert zero_in_quotient(p)

    def test_word_pair_elements_are_nonzero(self):
        assert not zero_in_quotient(word_pair_element(3))
        assert not zero_in_quotient(word_pair_element(4))

    def test_formal_zero_is_zero(self):
        assert zero_in_quotient(LiePoly.ZERO)
        assert zero_in_quotient(parse("x1 x2 + x1 x2"))

    def test_rewrite_difference_instance(self):
        diff = tail_rewrite_difference(1, 2, [3, 4], 5, 6, 1, [0, 1])
        assert zero_in_quotient(diff)

    def test_non_multihomogeneous_rejected(self):
        p = LiePoly.of(word_monomial([1, 2]), word_monomial([1, 3]))
        with pytest.raises(ValueError):
            zero_in_quotient(p)

    def test_rewrite_validates_sigma(self):
        with pytest.raises(ValueError):
            tail_rewrite_difference(1, 2, [3, 4], 5, 6, 1, [0, 0])
        with pytest.raises(ValueError):
            tail_rewrite_difference(1, 2, [3], 5, 6, 2, [0])


class TestBaseConsequences:
    """The quotient by the base relation in closed form, [[L', L'], L],
    against the enumerated T-ideal of the base relation, the reference."""

    @pytest.mark.parametrize(
        "md", canonical_multidegrees(1, 6)
        + [MultiDeg({2: 1, 4: 2, 7: 1, 9: 1}), MultiDeg({1: 1, 3: 2, 5: 2})],
        ids=repr,
    )
    def test_equals_the_enumerated_consequences(self, md):
        assert base_consequences(md) == consequences(BASE_SET, md)

    @pytest.mark.slow
    @pytest.mark.parametrize("md", canonical_multidegrees(7, 7), ids=repr)
    def test_equals_the_enumerated_consequences_at_total_seven(self, md):
        assert base_consequences(md) == consequences(BASE_SET, md)

    def test_components_built_only_up_to_total_minus_three(self, monkeypatch):
        # |nu2| >= 2 and |nu3| >= 1 leave at most total - 3 to each factor
        md = MultiDeg.multilinear(6)
        built = []
        real = tideal.component

        def counted(mu):
            built.append(mu)
            return real(mu)

        monkeypatch.setattr(tideal, "component", counted)
        clear_caches()
        base_consequences(md)
        assert max(mu.total for mu in built) == md.total - 3

    @pytest.mark.parametrize("md", [
        MultiDeg({1: 3, 2: 2}), MultiDeg({1: 4, 2: 2}),
        MultiDeg({1: 2, 2: 2, 3: 2}), MultiDeg({1: 2, 2: 4, 3: 1}),
        MultiDeg({1: 3, 2: 3, 3: 1}),
    ], ids=repr)
    def test_positions_route_where_words_coincide(self, md):
        # with letters repeated, one word can come from two pairs of words
        # (u, w) of one bracket; it must cancel over GF(2)
        repeats = 0
        for l in md.indices():
            for p, q in tideal._derived_brackets(md - MultiDeg({l: 1})):
                words = Counter(t for u in p for w in q
                                for t in (u + w + (l,), (l,) + u + w,
                                          w + u + (l,), (l,) + w + u))
                assert words == Counter(tideal._bracket_words(p, q, l))
                repeats += sum(c > 1 for c in words.values())
        assert repeats or md == MultiDeg({1: 3, 2: 2})  # T(a) is 0 there
        assert base_consequences(md) == consequences(BASE_SET, md)

    @pytest.mark.parametrize("n", [3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_word_pair_span_without_the_member(self, n):
        # the base quotient alone, against the enumeration of the base
        # relation and the other members at once
        md = word_pair_element(n).multidegree()
        others = tuple(Generator(f"wp{k}", word_pair_element(k))
                       for k in range(3, md.total + 1) if k != n)
        assert base_consequences(md) == consequences(
            GeneratorSet(BASE_SET.generators + others), md)

    @pytest.mark.parametrize("n,k", [
        (4, 3),
        pytest.param(5, 3, marks=pytest.mark.slow),
        pytest.param(5, 4, marks=pytest.mark.slow),
    ])
    def test_lower_word_pair_member_lies_in_the_base_quotient(self, n, k):
        # every instance of the k-th member at the n-th member's
        # multidegree, enumerated with no T(a) shortcut
        md = word_pair_element(n).multidegree()
        member = GeneratorSet((Generator(f"wp{k}", word_pair_element(k)),))
        assert consequences(member, md).subset(base_consequences(md))


MD5 = MultiDeg.multilinear(5)
# every memoized function of tideal, with arguments for one call; the last
# takes no multidegree, so no degree cap applies to it
MEMOIZED = [pytest.param(name, args, id=name) for name, args in [
    ("component", (MD5,)),
    ("consequences", (BASE_SET, MD5)),
    ("identities", (MD5,)),
    ("base_consequences", (MD5,)),
    ("word_index", (MD5,)),
    ("monomials_of", (MD5,)),
    ("_normal_form_frame", (MD5,)),
    ("_derived_sides", (MD5,)),
    ("_polarization_closure", (as_poly(parse("x1 x2 x1 x3")),)),
]]


class TestMemo:
    """The one memo behind tideal's caches and its degree-cap check."""

    def test_every_memo_is_listed(self):
        assert len(tideal._MEMOS) == len(MEMOIZED)

    @pytest.mark.parametrize("name,args", MEMOIZED[:-1])
    def test_cap_checked_before_the_memo(self, name, args, degree_cap_guard):
        fn = getattr(tideal, name)
        fn(*args)
        degree_cap_guard(4)
        with pytest.raises(DegreeCapError):
            fn(*args)

    @pytest.mark.parametrize("name,args", MEMOIZED)
    def test_clear_caches_empties_the_memo(self, name, args):
        fn = getattr(tideal, name)
        first = fn(*args)
        assert fn(*args) is first
        clear_caches()
        again = fn(*args)
        assert again is not first
        assert again == first

    def test_generation_check_caches_the_whole_span(self, monkeypatch):
        # the rank-target run is memoized under the plain key
        md = MultiDeg.multilinear(5)
        clear_caches()
        rep = check_generation(md)

        def no_enumeration(*args):
            raise AssertionError("the consequence span was enumerated again")

        monkeypatch.setattr(tideal, "_consequence_vectors", no_enumeration)
        cached = consequences(theorem_generators(5), md)
        assert consequences(theorem_generators(5), md) is cached
        assert cached.dim == rep.dim_consequences

    def test_word_pair_independence_over_the_cap(self, degree_cap_guard,
                                                 monkeypatch):
        # refused before the other members of the family are built
        built = []
        real = tideal.word_pair_element

        def counted(k):
            built.append(k)
            return real(k)

        monkeypatch.setattr(tideal, "word_pair_element", counted)
        degree_cap_guard(4)
        with pytest.raises(DegreeCapError):
            word_pair_independence(3)  # total degree 5
        assert set(built) == {3}


class TestCoefficientCalculus:
    def test_dimension_and_basis_at_four(self):
        sol = identity_coefficient_space(4)
        assert sol.dim == 1
        labels = sol.index.support(sol.basis_vectors()[0])
        assert set(labels) == {("a2", 4), ("a", 3, 4), ("a", 4, 3)}

    @pytest.mark.parametrize("n,expected", [(4, 1), (5, 3), (6, 6)])
    def test_dimension_is_choose_two(self, n, expected):
        assert identity_coefficient_space(n).dim == expected

    @pytest.mark.parametrize("n", (4, 5))
    def test_conditions_match_identity_kernel(self, n):
        assert identity_coefficient_space(n) == identity_preimage_space(n)

    def test_all_coefficients_zero_gives_zero(self):
        assert normal_form_poly(5, []).is_formal_zero()

    def test_direct_condition_checker_agrees(self):
        sol = identity_coefficient_space(5)
        for row in sol.basis_vectors():
            assert coefficient_conditions_hold(5, sol.index.support(row))
        assert not coefficient_conditions_hold(5, [("a", 3, 4)])

    def test_normal_form_monomials_match_labels(self):
        # (x4 x3)(x2 x1), (x4 x2)(x3 x1), (x3 x2)(x4 x1) at n = 4
        assert normal_form_monomial(4, ("a2", 4)) == pair(
            word_monomial([4, 3]), pair(leaf(2), leaf(1))
        )
        assert normal_form_monomial(4, ("a", 4, 3)) == pair(
            word_monomial([4, 2]), pair(leaf(3), leaf(1))
        )
        assert normal_form_monomial(4, ("a", 3, 4)) == pair(
            word_monomial([3, 2]), pair(leaf(4), leaf(1))
        )

    def test_represent_three_term_identity(self):
        alpha = normal_form_represent(triple_identity(4))
        assert alpha == frozenset({("a2", 4), ("a", 3, 4), ("a", 4, 3)})

    def test_represent_zero(self):
        assert normal_form_represent(LiePoly.ZERO) == frozenset()

    def test_represent_random_identity_combinations(self):
        rng = random.Random(51)
        n = 5
        perms = list(itertools.permutations(range(1, n + 1)))
        f5 = triple_identity(n)
        for _ in range(5):
            p = LiePoly.ZERO
            for sigma in rng.sample(perms, 3):
                p = p + substitute(f5, {k: leaf(sigma[k - 1]) for k in range(1, n + 1)})
            alpha = normal_form_represent(p)
            assert coefficient_conditions_hold(n, alpha)
            assert zero_in_quotient(normal_form_poly(n, alpha) + p)

    @pytest.mark.parametrize("n", [4, 5])
    def test_represent_equals_solving_over_labels_and_base_rows(self, n):
        # the memoized frame against one solve over the same vectors
        md = MultiDeg.multilinear(n)
        idx = word_index(md)
        labels = tideal.normal_form_labels(n)
        vectors = [expansion_vector(idx, normal_form_monomial(n, lab))
                   for lab in labels]
        vectors += base_consequences(md).basis_vectors()
        rows = identities(md).basis_vectors()
        assert rows
        solver = SpanSolver(idx, vectors)
        for row in rows:
            sol = solver.solve(row)
            want = frozenset(labels[i] for i in sol if i < len(labels))
            assert normal_form_represent(lie_poly_from_vector(md, row)) == want
        with pytest.raises(ValueError):
            normal_form_represent(word_pair_element(3))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_vector_check_equals_the_polynomial_round_trip(self, n):
        # identity rows and component basis vectors, some of which have no
        # normal-form representation
        md = MultiDeg.multilinear(n)
        vectors = (identities(md).basis_vectors()
                   + component(md).basis_vectors[:40])
        verdicts = set()
        for vec in vectors:
            poly = lie_poly_from_vector(md, vec)
            try:
                alpha = normal_form_represent(poly)
            except RuntimeError:
                want = False
            else:
                want = zero_in_quotient(normal_form_poly(n, alpha) + poly)
            assert tideal.normal_form_check(n, vec) == want
            verdicts.add(want)
        assert verdicts == {False, True}

    def test_represent_rejects_wrong_multidegree(self):
        with pytest.raises(ValueError):
            normal_form_represent(word_pair_element(3))

    def test_sr_identity_equals_family_member_in_quotient(self):
        assert zero_in_quotient(sr_basis_identity(5, 3, 4) + triple_identity(5))

    def test_variable_swap_reproduces_sr_identity(self):
        f5 = triple_identity(5)
        swapped = substitute(f5, {1: leaf(1), 2: leaf(2), 3: leaf(3),
                                  4: leaf(5), 5: leaf(4)})
        assert zero_in_quotient(swapped + sr_basis_identity(5, 3, 5))


class TestSpanChecks:
    def test_multilinear_span_at_four(self):
        rep = multilinear_span_check(4)
        assert rep.equal
        assert rep.dim_span == 1
        assert rep.dim_identities == 1
        assert rep.dim_base_consequences == 0

    def test_multilinear_span_at_five_needs_the_quotient(self):
        rep = multilinear_span_check(5)
        assert rep.equal
        assert rep.dim_span < rep.dim_identities  # raw spans differ at n >= 5
        assert rep.dim_span_mod_base == rep.dim_identities_mod_base

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_report_equals_the_adjoined_spans(self, n):
        # every field by spans with the base rows adjoined to both sides,
        # the three-term span from every renaming
        md = MultiDeg.multilinear(n)
        idx = word_index(md)
        sp = span(idx, reference_renamed_vectors(triple_identity(n), n))
        ids = identities(md)
        rows = list(base_consequences(md).basis_vectors())
        sp_mod = span(idx, list(sp.basis_vectors()) + rows)
        ids_mod = span(idx, list(ids.basis_vectors()) + rows)
        want = tideal.SpanReport(n, sp.dim, ids.dim, len(rows),
                                 sp_mod.dim - len(rows),
                                 ids_mod.dim - len(rows), sp_mod == ids_mod)
        assert multilinear_span_check(n) == want

    @pytest.mark.parametrize("n", [4, 5])
    def test_renamed_words_equal_expanded_substitutions(self, n):
        idx = word_index(MultiDeg.multilinear(n))
        base = triple_identity(n)
        want = [expansion_vector(idx, substitute(
                    base, {k: leaf(perm[k - 1]) for k in range(1, n + 1)}))
                for perm in itertools.permutations(range(1, n + 1))]
        assert reference_renamed_vectors(base, n) == want

    @pytest.mark.parametrize(
        "n,dim", [(4, 1), (5, 11), (6, 56),
                  pytest.param(7, 392, marks=pytest.mark.slow)])
    def test_spun_span_is_the_span_of_every_renaming(self, n, dim):
        idx = word_index(MultiDeg.multilinear(n))
        p = triple_identity(n)
        spun = tideal._spin(idx, [expansion_vector(idx, p)],
                            _generating_renamings(n))
        assert spun == span(idx, reference_renamed_vectors(p, n))
        assert spun.dim == dim

    @pytest.mark.parametrize("n,seed", [(5, None), (5, 1), (6, 2)],
                             ids=["base_relation", "random_5", "random_6"])
    def test_spin_of_other_seeds(self, n, seed):
        # the base relation, and two random Lie elements at once
        md = MultiDeg.multilinear(n)
        idx = word_index(md)
        if seed is None:
            polys = [as_poly(BASE_RELATION)]
        else:
            rng = random.Random(seed)
            polys = [LiePoly.of(*rng.sample(monomials_of(md), 5))
                     for _ in range(2)]
        spun = tideal._spin(idx, [expansion_vector(idx, p) for p in polys],
                            _generating_renamings(n))
        want = span(idx, [v for p in polys
                          for v in reference_renamed_vectors(p, n)])
        assert spun == want

    def test_spin_closes_under_the_generated_group_only(self):
        # under (1 2) alone the span is that of p and its swap
        idx = word_index(MultiDeg.multilinear(5))
        p = triple_identity(5)
        swap = _generating_renamings(5)[0]
        swapped = substitute(p, {k: leaf(v) for k, v in swap.items()})
        spun = tideal._spin(idx, [expansion_vector(idx, p)], [swap])
        assert spun == span(idx, [expansion_vector(idx, p),
                                  expansion_vector(idx, swapped)])

    @pytest.mark.parametrize(
        "md",
        [
            MultiDeg.multilinear(4),
            MultiDeg.multilinear(5),
            MultiDeg({1: 2, 2: 2, 3: 1}),
        ],
    )
    def test_generation(self, md):
        assert check_generation(md).equal


def _word_pair_family(polarize_closure=True):
    polys = [BASE_RELATION] + [word_pair_element(k) for k in (3, 4, 5)]
    return generator_set(polys, polarize_closure)


def _cubic_set(polarize_closure):
    return generator_set([parse("x2 x1 x1 x1")], polarize_closure)


def _plain_consequence_vectors(gens, md, idx):
    """The consequence vectors of the plain recursion, which rebuilds a
    slot's choices on every visit and expands every filler afresh."""
    letters = {i: assoc_expand(leaf(i)) for i in md.indices()}
    out = []

    def rec(L, slots, k, remaining, assignment):
        if k == len(slots):
            value = Evaluator(assignment, commutator, AssocPoly.ZERO).poly(L)
            for seq in tideal._arrangements(remaining):
                tail = value
                for letter in seq:
                    tail = commutator(tail, letters[letter])
                if not tail.is_zero():
                    out.append(idx.vector(tail.words))
            return
        v, d = slots[k]
        for mu in remaining.floor_div(d).sub_multidegrees():
            rest_total = remaining.total - d * mu.total
            if mu.total == 0 or rest_total < sum(m for _, m in slots[k + 1:]):
                continue
            fillers = component(mu).basis if d == 1 else monomials_of(mu)
            for w in fillers:
                assignment[v] = assoc_expand(w)
                rec(L, slots, k + 1, remaining - mu.scaled(d), assignment)

    for gen in sorted(gens.generators, key=lambda g: -g.total_degree):
        if gen.total_degree > md.total:
            continue
        forms = (tideal._polarization_closure(gen.poly) if gens.polarize_closure
                 else (tideal._canonical_variables(gen.poly),))
        for L in forms:
            rec(L, L.multidegree().items(), 0, md, {})
    return out


class TestFastPaths:
    """Each shortcut of the consequence layer against the slow path."""

    @pytest.mark.parametrize(
        "md", canonical_multidegrees(1, 5) + [MultiDeg.multilinear(6)],
        ids=repr,
    )
    def test_early_exit_equals_full_enumeration(self, md):
        gens = theorem_generators(max(md.total, 4))
        clear_caches()
        rep = check_generation(md)
        early = consequences(gens, md)  # the span check_generation cached
        ids = identities(md)
        clear_caches()
        full = consequences(gens, md)
        assert early == full
        assert rep.dim_consequences == full.dim
        assert rep.equal == (full == ids)

    def test_early_exit_stops_before_the_last_vector(self, monkeypatch):
        md = MultiDeg.multilinear(5)
        gens = theorem_generators(5)
        drawn = []
        vectors = tideal._consequence_vectors

        def counted(*args):
            for vec in vectors(*args):
                drawn.append(vec)
                yield vec

        monkeypatch.setattr(tideal, "_consequence_vectors", counted)
        clear_caches()
        check_generation(md)
        early = len(drawn)
        drawn.clear()
        clear_caches()
        consequences(gens, md)
        assert 0 < early < len(drawn)

    @pytest.mark.parametrize(
        "gens,mds",
        [(gs, canonical_multidegrees(1, 5) + [MultiDeg({1: 2, 2: 2, 3: 2})])
         for gs in (BASE_SET, theorem_generators(5), _word_pair_family(),
                    _cubic_set(True))]
        # x1 takes degree-2 fillers in a repeated slot and x2 in a linear one
        + [(generator_set([parse("x1 x2 x1")], False),
            [MultiDeg({1: 2, 2: 2, 3: 2, 4: 1})])],
        ids=["base", "theorem", "word_pairs", "cubic", "linear_and_repeated"],
    )
    def test_instance_vectors_come_in_the_order_of_the_plain_walk(self, gens,
                                                                  mds):
        # the rank-target exit stops at a point in this order
        for md in mds:
            idx = word_index(md)
            got = list(tideal._consequence_vectors(gens, md, idx))
            assert got == _plain_consequence_vectors(gens, md, idx), md

    @pytest.mark.slow
    def test_vector_stream_matches_recorded_digest(self):
        # the stream check_generation draws on, pinned vector by vector:
        # each vector in lowercase hex, one per line, set by set, and in
        # each set multidegree by multidegree
        sets = [BASE_SET, theorem_generators(6), _word_pair_family(),
                _word_pair_family(False), _cubic_set(True), _cubic_set(False)]
        mds = canonical_multidegrees(1, 6) + [MultiDeg({1: 2, 2: 2, 3: 2, 4: 1})]
        digest = hashlib.sha256()
        count = 0
        for gens in sets:
            for md in mds:
                for vec in tideal._consequence_vectors(gens, md, word_index(md)):
                    digest.update(b"%x\n" % vec)
                    count += 1
        assert count == 116_956
        assert digest.hexdigest() == (
            "5a6357993a0218463a3b53e9cf45ac3b94e57ed07cb6fa3a340843fbf79452d8")

    def test_component_looked_up_once_per_slot_and_sub_multidegree(
            self, monkeypatch):
        md = MultiDeg.multilinear(6)
        (L,) = tideal._polarization_closure(as_poly(BASE_RELATION))
        n_slots = len(L.multidegree().items())
        calls = Counter()
        real = tideal.component

        def counted(mu):
            calls[mu] += 1
            return real(mu)

        monkeypatch.setattr(tideal, "component", counted)
        vectors = list(tideal._instance_vectors(
            L, md, word_index(md), tideal._Fillers(md)))
        assert vectors
        assert calls and max(calls.values()) <= n_slots, calls.most_common(3)

    def test_rank_target_outside_the_span_is_an_error(self):
        md = MultiDeg.multilinear(5)
        idx = word_index(md)
        clear_caches()
        wrong = span(idx, [idx.unit(idx.labels[0])])
        with pytest.raises(ValueError):
            consequences(BASE_SET, md, within=wrong)

    def test_non_identity_generator_disables_the_early_exit(self, monkeypatch):
        md = MultiDeg.multilinear(4)
        real = theorem_generators

        def with_non_identity(maxgen):
            gens = real(maxgen)
            bad = Generator("bad", as_poly(word_monomial([1, 2, 3, 4])))
            return GeneratorSet(gens.generators + (bad,))

        monkeypatch.setattr(tideal, "theorem_generators", with_non_identity)
        clear_caches()
        rep = check_generation(md)
        assert rep.dim_consequences == component(md).dim
        assert rep.dim_identities == 1
        assert not rep.equal
        assert rep.witness is None  # every identity is a consequence

    def test_failed_check_names_its_witness(self, monkeypatch):
        # without d6 the span at 1^6 falls one short of the identities
        md = MultiDeg.multilinear(6)
        assert check_generation(md).witness is None
        real = theorem_generators

        def without_d6(maxgen):
            return GeneratorSet(tuple(g for g in real(maxgen).generators
                                      if g.name != "d6"))

        monkeypatch.setattr(tideal, "theorem_generators", without_d6)
        rep = check_generation(md)
        assert not rep.equal
        cons = consequences(without_d6(6), md)
        ids = identities(md)
        outside = [row for row in ids.basis_vectors() if not cons.contains(row)]
        assert outside
        assert expansion_vector(ids.index, rep.witness) == outside[0]
        assert is_identity_gl2(rep.witness)

    @pytest.mark.parametrize(
        "name,gens",
        [
            ("base", lambda md: BASE_SET),
            ("theorem", lambda md: theorem_generators(max(md.total, 4))),
            ("word_pairs", lambda md: _word_pair_family()),
            ("word_pairs_unpolarized", lambda md: _word_pair_family(False)),
            ("cubic", lambda md: _cubic_set(True)),
            ("cubic_unpolarized", lambda md: _cubic_set(False)),
        ],
    )
    def test_basis_slots_equal_every_monomial_in_every_slot(self, name, gens):
        for md in canonical_multidegrees(1, 5):
            self._assert_equals_reference(gens(md), md)

    @pytest.mark.parametrize(
        "polarize_closure", [False, pytest.param(True, marks=pytest.mark.slow)]
    )
    def test_repeated_slot_takes_every_monomial(self, polarize_closure):
        # Below total degree 7 every repeated slot of these sets holds a
        # letter or a degree-2 monomial, where basis and monomials agree;
        # here x1 takes degree-3 monomials, whose basis is smaller.  The
        # closed set is slow only for the reference enumerator.
        gs = generator_set([parse("x1 x2 x1")], polarize_closure)
        self._assert_equals_reference(gs, MultiDeg({1: 2, 2: 2, 3: 2, 4: 1}))

    @staticmethod
    def _assert_equals_reference(gs, md):
        cons = consequences(gs, md)
        ref = [set(words) for words in reference_consequence_words(gs, md)]
        rows = [set(cons.index.support(v)) for v in cons.basis_vectors()]
        assert naive_rank(ref) == cons.dim, md
        assert naive_rank(rows + ref) == cons.dim, md


MODULO_BASE_SETS = {
    "theorem": lambda: theorem_generators(6),
    "word_pairs": _word_pair_family,
    "renamed_base": lambda: load_generator_file(
        str(Path(__file__).parent / "data" / "gens_renamed_base.txt")),
}


def _left_normed(a, letters):
    for i in letters:
        a = bracket(a, leaf(i))
    return a


class TestModuloBase:
    """Consequence spans and word-pair instances modulo
    T(a) = base_consequences."""

    @pytest.mark.parametrize("name", sorted(MODULO_BASE_SETS))
    def test_equals_every_instance_vector(self, name):
        # T(a) extended by every instance vector of gens is the union's
        # consequence span, the span word_pair_independence builds for one
        # member
        gens = MODULO_BASE_SETS[name]()
        union = GeneratorSet(BASE_SET.generators + gens.generators,
                             gens.polarize_closure)
        for md in canonical_multidegrees(1, 6):
            idx = word_index(md)
            seeded = span(idx, list(base_consequences(md).basis_vectors())
                          + list(tideal._consequence_vectors(gens, md, idx)))
            assert seeded == consequences(union, md), md

    @pytest.mark.parametrize("heavy,tailed,inside", [
        ((), False, False),
        ((), True, True),      # the root is below the tail's bracket
        ((3,), False, True),   # [[x1, x2], x3] with x3 of degree >= 2
        ((1,), False, False),  # x2 is a letter in both [x1, x2]
        ((1, 2), False, True),
    ])
    def test_word_pair_member_lies_in_base(self, heavy, tailed, inside,
                                           degree_cap_guard):
        # the 3rd member with x_i -> [x_i, x4] for i in heavy, then
        # bracketed with x4 when tailed; inside, every such instance lies
        # in T(a) (steps 3 and 4 of word_pair_independence's proof), and
        # outside, this one is a witness that not all of them do
        degree_cap_guard(9)  # two heavy slots reach total 9
        w = word_pair_element(3)
        p = substitute(w, {i: bracket(leaf(i), leaf(4)) if i in heavy
                           else leaf(i) for i in (1, 2, 3)})
        if tailed:
            p = bracket(p, leaf(4))
        assert not assoc_expand(p).is_zero()
        assert zero_in_quotient(p) == inside

    @pytest.mark.parametrize("a,b,letters", [
        ((1, 2), (3, 4), (5,)),
        ((1, 2), (3, 4), (5, 6)),
        ((1, 2), (1, 3), (4, 5)),
    ], ids=str)
    def test_bracket_form_is_symmetric(self, a, b, letters):
        # steps 1 and 2 of word_pair_independence's proof: modulo T(a),
        # B(a, b) = [[a, l3, ..., lk], b] = [a, [b, lk, ..., l3]] = B(b, a)
        a, b = (bracket(leaf(i), leaf(j)) for i, j in (a, b))
        form = bracket(_left_normed(a, letters), b)
        assert not zero_in_quotient(form)
        moved = bracket(a, _left_normed(b, reversed(letters)))
        assert zero_in_quotient(form + moved)
        assert zero_in_quotient(form + bracket(_left_normed(b, letters), a))

    def test_base_relation_instances_are_never_evaluated(self, monkeypatch):
        # T(a) is built in closed form, and word_pair_independence walks
        # only the n-th member's instances on top of it
        walked = []
        real = tideal._instance_vectors

        def recorded(L, *args):
            walked.append(L)
            return real(L, *args)

        monkeypatch.setattr(tideal, "_instance_vectors", recorded)
        clear_caches()
        for md in canonical_multidegrees(1, 6):
            base_consequences(md)
        assert not walked
        for n in (3, 4):
            word_pair_independence(n)
        base_forms = tideal._polarization_closure(as_poly(BASE_RELATION))
        assert walked and set(walked).isdisjoint(base_forms)


def renamed(space, renaming, md2):
    """The image of a subspace under the renaming x_i -> x_renaming[i], in
    the frame of md2, the renamed multidegree."""
    target = word_index(md2)
    rows = [target.vector(tuple(renaming[i] for i in w)
                          for w in space.index.support(v))
            for v in space.basis_vectors()]
    return span(target, rows)


# the canonical multidegrees of total <= 5 with a nonzero identity space
IDENTITY_DEGREES = [MultiDeg.multilinear(4), MultiDeg({1: 3, 2: 2}),
                    MultiDeg({1: 3, 2: 1, 3: 1}), MultiDeg({1: 2, 2: 2, 3: 1}),
                    MultiDeg({1: 2, 2: 1, 3: 1, 4: 1}), MultiDeg.multilinear(5)]


class TestRenamingAndInclusion:
    """Properties every T-ideal component has, on random inputs."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(canonical_multidegrees(2, 5)),
           st.permutations(range(1, 7)),
           st.sampled_from(["base", "theorem", "cubic"]))
    def test_renaming_commutes_with_the_spans(self, md, image, which):
        # a renaming of variables is an invertible substitution, so it maps
        # the T-ideal and the identity ideal onto themselves
        gens = {"base": BASE_SET, "theorem": theorem_generators(5),
                "cubic": generator_set([parse("x1 x2 x1")])}[which]
        renaming = dict(zip(md.indices(), image))
        md2 = MultiDeg({renaming[i]: m for i, m in md.items()})
        assert renamed(identities(md), renaming, md2) == identities(md2)
        assert (renamed(consequences(gens, md), renaming, md2)
                == consequences(gens, md2))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_consequences_of_identities_are_identities(self, data):
        polys = []
        for _ in range(data.draw(st.integers(1, 2))):
            md = data.draw(st.sampled_from(IDENTITY_DEGREES))
            rows = identities(md).basis_vectors()
            picks = data.draw(st.lists(st.sampled_from(rows), min_size=1,
                                       unique=True))
            vec = 0
            for row in picks:
                vec ^= row
            polys.append(lie_poly_from_vector(md, vec))
        assert all(is_identity_gl2(p) for p in polys)
        gens = generator_set(polys, data.draw(st.booleans()))
        target = data.draw(st.sampled_from(canonical_multidegrees(4, 6)))
        assert consequences(gens, target).subset(identities(target))


class TestAssociativeInstances:
    """Consequence instances are evaluated in the free associative algebra,
    the slots taking the expansions of their fillers; that must equal the
    expansion of the substituted Lie element."""

    def test_equals_expanding_the_substitution(self, degree_cap_guard):
        # every slot in turn takes each monomial of degree 2 and 3 on x1, x2,
        # which the other slots' letters repeat; the largest instance has
        # degree 12 (b6, of degree 8, with a cubic filler in a double slot)
        degree_cap_guard(12)
        polys = [g.poly for g in theorem_generators(6).generators]
        polys += [g.poly for g in _word_pair_family().generators]
        polys.append(parse("x2 x1 x1 x1"))
        fillers = (monomials_of(MultiDeg({1: 1, 2: 1}))
                   + monomials_of(MultiDeg({1: 2, 2: 1})))
        checked = zero = 0
        for L in {L for p in polys for L in tideal._polarization_closure(p)}:
            slots = L.support()
            for v in slots:
                for w in fillers:
                    assign = {u: leaf(u) for u in slots}
                    assign[v] = w
                    expanded = {u: assoc_expand(f) for u, f in assign.items()}
                    direct = Evaluator(expanded, commutator,
                                       AssocPoly.ZERO).poly(L)
                    assert direct == assoc_expand(substitute(L, assign)), (
                        L, assign)
                    checked += 1
                    zero += direct.is_zero()
        assert checked > 1000
        assert 0 < zero < checked


class TestIndependence:
    def test_excluded_member_is_independent(self):
        rep = word_pair_independence(3)
        assert not rep.in_span_without
        assert rep.in_span_with

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            word_pair_independence(2)

    @pytest.mark.parametrize("n", [3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_extended_span_is_the_whole_family(self, n):
        # "without", the base quotient, plus every instance vector of the
        # n-th member
        w = word_pair_element(n)
        md = w.multidegree()
        without = base_consequences(md)
        ech = Echelon(without.index)
        for vec in without.basis_vectors():
            ech.insert(vec)
        member = GeneratorSet((Generator(f"wp{n}", w),))
        for vec in tideal._consequence_vectors(member, md, ech.index):
            ech.insert(vec)
        with_n = GF2Subspace(ech)
        family = generator_set([BASE_RELATION] + [word_pair_element(k)
                                                  for k in range(3, md.total + 1)])
        assert with_n == consequences(family, md)
        assert without.subset(with_n) and without != with_n
        # the family spans T(a) plus the n-th member itself
        assert with_n.dim == without.dim + 1
        vec = expansion_vector(ech.index, w)
        rep = word_pair_independence(n)
        assert rep.in_span_without == without.contains(vec)
        assert rep.in_span_with == with_n.contains(vec)

    @pytest.mark.parametrize("n", [3, 4])
    def test_membership_stops_once_answered(self, monkeypatch, n):
        # one instance vector of the n-th member settles it
        drawn = Counter()
        real = tideal._instance_vectors

        def counted(L, *args):
            for vec in real(L, *args):
                drawn[L.multidegree().total] += 1
                yield vec

        monkeypatch.setattr(tideal, "_instance_vectors", counted)
        clear_caches()
        assert word_pair_independence(n).in_span_with
        assert drawn[n + 2] == 1


class TestDerivedSpans:
    def test_part_one_at_multilinear_three(self):
        rep = derived_span_check(MultiDeg.multilinear(3), 1)
        assert rep.spans

    def test_part_two_at_mixed_multidegree(self):
        rep = derived_span_check(MultiDeg({1: 1, 2: 2}), 2)
        assert rep.spans

    def test_part_three_at_multilinear_six(self):
        rep = derived_span_check(MultiDeg.multilinear(6), 3)
        assert rep.spans

    def test_bad_part_rejected(self):
        with pytest.raises(ValueError):
            derived_span_check(MultiDeg.multilinear(3), 4)
        with pytest.raises(ValueError):
            derived_span_check(MultiDeg({1: 1}), 1)

    @pytest.mark.parametrize("md", canonical_multidegrees(4, 6), ids=repr)
    def test_pair_walk_spans_every_monomial_bracket(self, md):
        # one bracket per unordered pair of basis elements against [m1, m2]
        # over every ordered pair of monomials
        got = [set(word_index(md).support(v))
               for v in tideal._second_derived_vectors(md)]
        ref = [set(words) for words in reference_second_derived_words(md)]
        rank = naive_rank(ref)
        assert naive_rank(got) == rank == naive_rank(got + ref), md

    @pytest.mark.parametrize("md", canonical_multidegrees(2, 6), ids=repr)
    def test_parts_one_and_two_match_the_two_span_route(self, md):
        # the target span is the whole component, so its dimension is dim
        for part in (1, 2):
            rep = derived_span_check(md, part)
            got = (rep.spans, rep.dim_filtered, rep.dim_target)
            assert got == reference_derived_span(md, part), (md, part)

    @pytest.mark.parametrize("md", canonical_multidegrees(2, 6), ids=repr)
    def test_part_three_matches_the_two_span_route(self, md):
        rep = derived_span_check(md, 3)
        got = (rep.spans, rep.dim_filtered, rep.dim_target)
        assert got == reference_derived_span(md, 3), md

    @pytest.mark.parametrize("md", canonical_multidegrees(2, 6), ids=repr)
    def test_letter_pairs_match_the_sub_multidegree_scan(self, md):
        assert (tideal._filtered_product_vectors(md)
                == reference_filtered_product_vectors(md))


class TestBatchRelease:
    """A batch's filler owner and its evaluator are freed when the batch
    ends, by reference counting alone."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: check_generation(MultiDeg.multilinear(6)),
            lambda: word_pair_independence(3),
        ],
        ids=["check_generation", "word_pair_independence"],
    )
    def test_owner_and_evaluator_die_with_the_batch(self, monkeypatch, run):
        made = []
        real_evaluator = tideal.assoc_evaluator

        def recorded_evaluator(indices):
            evaluator = real_evaluator(indices)
            made.append(weakref.ref(evaluator))
            return evaluator

        class Recorded(tideal._Fillers):
            def __init__(self, md):
                super().__init__(md)
                made.append(weakref.ref(self))

        monkeypatch.setattr(tideal, "assoc_evaluator", recorded_evaluator)
        monkeypatch.setattr(tideal, "_Fillers", Recorded)
        clear_caches()
        gc.collect()
        # with the cycle collector off, anything caught in a reference
        # cycle outlives the call
        gc.disable()
        try:
            run()
            alive = [ref() for ref in made if ref() is not None]
        finally:
            gc.enable()
        assert made
        assert not alive, alive

    @pytest.mark.parametrize(
        "run",
        [
            lambda: [base_consequences(md)
                     for md in canonical_multidegrees(1, 6)],
            lambda: [derived_span_check(md, part)
                     for md in canonical_multidegrees(2, 6)
                     for part in (1, 2, 3)],
            lambda: [multilinear_span_check(n) for n in (4, 5, 6)],
            lambda: [tideal.normal_form_check(n, row) for n in (4, 5)
                     for row in identities(
                         MultiDeg.multilinear(n)).basis_vectors()],
        ],
        ids=["base_consequences", "derived_span_check",
             "multilinear_span_check", "normal_form_check"],
    )
    def test_lemma_side_builds_no_fillers(self, monkeypatch, run):
        # the lemma side writes words into positions: no batch owner and
        # no evaluator of tideal's is made
        def refuse(*args):
            raise AssertionError("a batch owner or evaluator was built")

        monkeypatch.setattr(tideal, "_Fillers", refuse)
        monkeypatch.setattr(tideal, "assoc_evaluator", refuse)
        clear_caches()
        assert run()


class TestMultidegreeIteration:
    def test_enumerations_leave_no_reference_cycle(self):
        gc.collect()
        # with the cycle collector off, a cycle left by a call stays for
        # gc.collect() to find
        gc.disable()
        try:
            for md in canonical_multidegrees(1, 6):
                list(tideal._arrangements(md))
            canonical_multidegrees(1, 6)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_partition_representatives(self):
        mds = canonical_multidegrees(1, 3)
        assert mds == [
            MultiDeg({1: 1}),
            MultiDeg({1: 2}),
            MultiDeg({1: 1, 2: 1}),
            MultiDeg({1: 3}),
            MultiDeg({1: 2, 2: 1}),
            MultiDeg.multilinear(3),
        ]


class TestGeneratorFiles:
    def test_load_with_comments_and_toggle(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text(
            "# generating set\n"
            "(x1 x2)(x3 x4) x5\n"
            "polarize: off\n"
            "(x1 x2 x3)(x1 x2)  # a family member\n"
        )
        gens = load_generator_file(str(path))
        assert len(gens.generators) == 2
        assert gens.polarize_closure is False
        assert gens.generators[0].poly == as_poly(BASE_RELATION)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x1 x2\nx1 +\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_generator_file(str(path))

    def test_mixed_degrees_rejected(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("x1 x2 + x1 x2 x3\n")
        with pytest.raises(ValueError, match="multihomogeneous"):
            load_generator_file(str(path))

    def test_bad_toggle_rejected(self, tmp_path):
        path = tmp_path / "toggle.txt"
        path.write_text("polarize: maybe\n")
        with pytest.raises(ValueError, match="polarize"):
            load_generator_file(str(path))

    def test_generators_must_be_multihomogeneous(self):
        with pytest.raises(ValueError):
            Generator("bad", parse("x1 x2 + x1 x2 x3"))
        with pytest.raises(ValueError):
            Generator("zero", LiePoly.ZERO)
