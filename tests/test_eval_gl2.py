import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lieid.eval_gl2 import (
    A_MAT,
    B_MAT,
    BC_MAT,
    C_MAT,
    ZERO,
    evaluate,
    field_width,
    generic_matrix,
    generic_matrix_sl2,
    is_identity_gl2,
    is_identity_sl2,
    lie_mat,
    poly_mul,
    sub_ij,
    variable,
)
from lieid.expr import parse
from lieid.lie_core import (
    DegreeCapError,
    LiePoly,
    bracket,
    get_degree_cap,
    leaf,
    substitute,
    word_monomial,
)
from lieid.tideal import (
    BASE_RELATION,
    normal_form_labels,
    normal_form_poly,
    triple_identity,
    word_pair_element,
)

import oracles


def _exponents(packed, width):
    """The exponent vector of a packed monomial, as {field: exponent}."""
    mask = (1 << width) - 1
    out = {}
    field = 0
    while packed:
        if packed & mask:
            out[field] = packed & mask
        packed >>= width
        field += 1
    return out


class TestLieMat:
    def test_relations_of_the_standard_basis(self):
        assert lie_mat(B_MAT, A_MAT) == B_MAT
        assert lie_mat(C_MAT, A_MAT) == C_MAT
        assert lie_mat(B_MAT, C_MAT) == BC_MAT

    def test_bc_is_central(self):
        for x in (A_MAT, B_MAT, C_MAT, BC_MAT, generic_matrix(3)):
            assert lie_mat(BC_MAT, x).is_zero()

    def test_alternating(self):
        for x in (A_MAT, generic_matrix(1)):
            assert lie_mat(x, x).is_zero()


class TestGenericMatrix:
    def test_entries_are_zero_and_three_fresh_variables(self):
        g = generic_matrix(1, width=3)
        assert g.e11 == ZERO  # the central part is dropped
        fields = set()
        for e in (g.e12, g.e21, g.e22):
            assert len(e) == 1
            (mono,) = e
            exps = _exponents(mono, 3)
            assert list(exps.values()) == [1]  # degree-one, no constant
            fields.update(exps)
        assert len(fields) == 3

    def test_distinct_indices_share_no_variables(self):
        w = field_width(get_degree_cap())
        vars_of = lambda g: {
            var for e in g for mono in e for var in _exponents(mono, w)
        }
        assert vars_of(generic_matrix(1)) & vars_of(generic_matrix(2)) == set()

    def test_sl2_variant_has_equal_diagonal(self):
        g = generic_matrix_sl2(2)
        assert g.e11 == g.e22
        assert g.e11 != g.e12 and g.e12 != g.e21


class TestEvaluate:
    def test_single_bracket_on_basis(self):
        assert evaluate(parse("x1 x2"), {1: B_MAT, 2: A_MAT}) == B_MAT

    def test_jacobi_vanishes_at_generic_assignment(self):
        jac = parse("x1 x2 x3 + x2 x3 x1 + x3 x1 x2")
        assign = {i: generic_matrix(i) for i in (1, 2, 3)}
        assert evaluate(jac, assign).is_zero()

    def test_paper_substitution_of_the_three_term_identity(self):
        out = evaluate(triple_identity(4), {1: B_MAT, 2: C_MAT, 3: A_MAT, 4: A_MAT})
        assert out.is_zero()

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="x2"):
            evaluate(parse("x1 x2"), {1: A_MAT})

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
    )
    def test_bracket_homomorphism(self, s1, s2):
        p, q = LiePoly.of(word_monomial(s1)), LiePoly.of(word_monomial(s2))
        assign = {i: generic_matrix(i) for i in (1, 2, 3)}
        lhs = evaluate(bracket(p, q), assign)
        rhs = lie_mat(evaluate(p, assign), evaluate(q, assign))
        assert lhs == rhs


class TestIdentityGl2:
    def test_base_relation(self):
        assert is_identity_gl2(BASE_RELATION)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_word_pair_family(self, n):
        assert is_identity_gl2(word_pair_element(n))

    def test_single_bracket_is_not(self):
        assert not is_identity_gl2(parse("x1 x2"))

    def test_degree_three_word_is_not(self):
        p = parse("x1 x2 x3")
        # witness hunt with the independent plain-matrix oracle
        witness = None
        for tup in itertools.product(oracles.BASIS, repeat=3):
            if any(oracles.eval_poly(p, {i + 1: tup[i] for i in range(3)})):
                witness = tup
                break
        assert witness is not None
        assert not is_identity_gl2(p)

    def test_degree_cap(self, degree_cap_guard):
        degree_cap_guard(4)
        with pytest.raises(DegreeCapError):
            is_identity_gl2(word_pair_element(3))

    def test_multiplicity_sixteen_matches_tuple_evaluator(self, degree_cap_guard):
        # exponents of 16 need five bits a field; a fixed four-bit field
        # would carry into the next indeterminate
        degree_cap_guard(24)
        cases = [
            (parse("x2 " + " ".join(["x1"] * 16)), False),
            (LiePoly.of(word_monomial([2] + [1] * 8 + [3] + [1] * 8)), False),
            # instances of (a) and (b) with x1 sixteen times
            (substitute(BASE_RELATION, {1: word_monomial([2] + [1] * 8),
                                        2: word_monomial([3] + [1] * 8),
                                        3: leaf(3), 4: leaf(4), 5: leaf(5)}),
             True),
            (substitute(word_pair_element(3),
                        {1: leaf(1), 2: leaf(2),
                         3: word_monomial([3] + [1] * 14)}), True),
        ]
        for p, expected in cases:
            assert max(m for _, m in p.multidegree().items()) >= 16
            assert oracles.is_identity_generic(p) is expected
            assert is_identity_gl2(p) is expected
            n = max(p.support())
            w = field_width(get_degree_cap())
            value = evaluate(p, {i: generic_matrix(i, w) for i in range(1, n + 1)})
            reference = oracles.eval_generic(p, centre=False)
            decoded = tuple(
                frozenset(oracles.tuple_monomial(_exponents(mono, w)) for mono in e)
                for e in value
            )
            assert decoded == reference


@pytest.mark.parametrize("text", [
    "x1", "x1 + x1 x2", "x1 x2 x3 + x2 x3 x1 + x3 x1 x2",
    "x1 x2 x3 + x2 x3 x1 + x3 x1 x2 + x2", "x1 x2 x3", "x1 x2 x3 + x3",
    "(x1 x2)(x3 x4) + (x1 x3)(x2 x4) + (x1 x4)(x2 x3)",
    "(x1 x2)(x3 x4) + (x1 x3)(x2 x4) + (x1 x4)(x2 x3) + x4",
    "(x1 x2)(x3 x4) x5 + x5 + x1 x2", "(x1 x2)(x1 x2 x3)",
])
def test_centre_free_verdicts_match_full_generic_matrices(text):
    # the centre-free matrices rest on the degree-one terms, so mix them in
    p = parse(text)
    assert is_identity_gl2(p) == oracles.is_identity_generic(p)
    assert is_identity_sl2(p) == oracles.is_identity_generic(p, trace_zero=True)


class TestSubIj:
    def test_single_bracket_value(self):
        assert sub_ij(parse("x1 x2"), 1, 2, 2) == BC_MAT

    def test_three_term_identity_vanishes(self):
        assert sub_ij(triple_identity(4), 1, 2, 4).is_zero()

    def test_bad_index_order(self):
        with pytest.raises(ValueError):
            sub_ij(parse("x1 x2"), 2, 1, 2)

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError):
            sub_ij(parse("x1 x2 x3"), 1, 2, 2)

    @pytest.mark.parametrize("n", (4, 5))
    def test_pairwise_criterion_matches_generic_oracle(self, n):
        rng = random.Random(21)
        labels = normal_form_labels(n)
        seen_identity = seen_non_identity = False
        for _ in range(60):
            chosen = frozenset(l for l in labels if rng.random() < 0.4)
            p = normal_form_poly(n, chosen)
            if p.is_formal_zero():
                continue
            generic = is_identity_gl2(p)
            pairwise = all(
                sub_ij(p, i, j, n).is_zero()
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            assert generic == pairwise
            seen_identity |= generic
            seen_non_identity |= not generic
        assert seen_non_identity  # the sample must exercise both outcomes


class TestIdentitySl2:
    def test_left_normalized_triple(self):
        assert is_identity_sl2(parse("x1 x2 x3"))

    def test_single_bracket_is_not(self):
        assert not is_identity_sl2(parse("x1 x2"))

    def test_gl2_identity_restricts(self):
        assert is_identity_sl2(triple_identity(4))


class TestPolyGF2:
    def test_char_two_addition(self):
        v = variable(0, 2)
        assert not (v ^ v)

    def test_multiplication_merges_exponents(self):
        v = variable(0, 2)
        (vv,) = poly_mul(v, v)
        assert _exponents(vv, 2) == {0: 2}
        (mixed,) = poly_mul(poly_mul(v, variable(1, 2)), v)
        assert _exponents(mixed, 2) == {0: 2, 1: 1}

    def test_distributive(self):
        a, b, c = (variable(i, 2) for i in range(3))
        assert poly_mul(a ^ b, c) == poly_mul(a, c) ^ poly_mul(b, c)


def test_multilinear_oracle_agreement_sample():
    # a small in-module version; the 100-sample run is acceptance criterion 10
    from lieid.tideal import monomials_of
    from lieid.lie_core import MultiDeg

    rng = random.Random(22)
    monos = monomials_of(MultiDeg.multilinear(4))
    for _ in range(25):
        p = LiePoly.of(*rng.sample(monos, rng.randint(1, 3)))
        assert is_identity_gl2(p) == oracles.is_identity_multilinear(p, 4)
