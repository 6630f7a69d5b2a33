import hashlib
import itertools
import json
import math
import random
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
    commutator,
    leaf,
    pair,
    substitute,
    word_monomial,
)
from lieid import tideal
from lieid.gf2linalg import solve_in_span, span
from lieid.tideal import (
    BASE_RELATION,
    BASE_SET,
    Generator,
    GeneratorSet,
    canonical_multidegrees,
    check_generation,
    clear_caches,
    coefficient_conditions_hold,
    component,
    consequences,
    derived_cube_zero_check,
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

from oracles import distinct_permutations, naive_rank, reference_consequence_words


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

    def test_single_variable_component_vanishes(self):
        assert component(MultiDeg({1: 2})).dim == 0
        assert component(MultiDeg({1: 1})).dim == 1

    def test_monomial_enumeration_matches_bruteforce(self):
        md = MultiDeg({1: 2, 2: 1, 3: 1})
        seqs = [tuple(m.leaves()) for m in monomials_of(md)]
        assert seqs == distinct_permutations((1, 1, 2, 3))

    def test_word_index_is_all_arrangements(self):
        md = MultiDeg({1: 2, 2: 2})
        assert word_index(md).labels == tuple(distinct_permutations((1, 1, 2, 2)))

    def test_cap_guard(self, degree_cap_guard):
        degree_cap_guard(3)
        with pytest.raises(DegreeCapError):
            component(MultiDeg.multilinear(4))

    def test_lie_poly_from_vector_roundtrip(self):
        md = MultiDeg.multilinear(4)
        comp = component(md)
        vectors = [expansion_vector(comp.index, m) for m in comp.monomials]
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
        vectors = [expansion_vector(comp.index, m) for m in comp.monomials]
        space = span(comp.index, vectors)
        for vec in space.basis_vectors() + identities(md).basis_vectors():
            sol = solve_in_span(comp.index, vectors, vec)
            expected = LiePoly.of(*(comp.monomials[i] for i in sol))
            assert lie_poly_from_vector(md, vec) == expected

    def test_lie_poly_from_vector_rejects_non_members(self):
        md = MultiDeg({1: 1, 2: 1})
        idx = word_index(md)
        outside = idx.unit((1, 2))  # a single word is not an expansion
        with pytest.raises(ValueError):
            lie_poly_from_vector(md, outside)


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
        comp = component(md)
        cons = consequences(BASE_SET, md)
        rng = random.Random(42)
        for _ in range(8):
            p = LiePoly.of(*rng.sample(comp.monomials, 2))
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

    def test_cube_vanishes_at_degree_six_instance(self):
        rep = derived_cube_zero_check(6)
        assert rep.all_zero
        assert rep.instances > 0

    @pytest.mark.parametrize("total", [0, 3, 5])
    def test_cube_check_below_degree_six_rejected(self, total):
        # no bracket [[m1, m2], m3] of degree-2 monomials has total < 6, so
        # the check would pass over zero instances
        with pytest.raises(ValueError, match="6"):
            derived_cube_zero_check(total)


class TestMultidegreeIteration:
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
