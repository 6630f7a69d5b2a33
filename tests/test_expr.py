import random

import pytest
from hypothesis import given, settings, strategies as st

from lieid.expr import (
    MAX_NESTING,
    ParseError,
    format_monomial,
    format_poly,
    parse,
)
from lieid.lie_core import (
    LiePoly,
    assoc_expand,
    leaf,
    pair,
    word_monomial,
)


class TestParse:
    def test_juxtaposition_is_left_normalized(self):
        assert parse("x1 x2 x3") == LiePoly.of(word_monomial([1, 2, 3]))

    def test_parentheses_shape_the_tree(self):
        got = parse("x1 (x2 x3)")
        assert got == LiePoly.of(pair(leaf(1), pair(leaf(2), leaf(3))))

    def test_three_term_sum(self):
        got = parse("(x1 x2)(x3 x4) + (x1 x3)(x2 x4) + (x1 x4)(x2 x3)")
        assert len(got.monomials) == 3
        assert got == LiePoly.of(
            pair(pair(leaf(1), leaf(2)), pair(leaf(3), leaf(4))),
            pair(pair(leaf(1), leaf(3)), pair(leaf(2), leaf(4))),
            pair(pair(leaf(1), leaf(4)), pair(leaf(2), leaf(3))),
        )

    def test_formal_cancellation(self):
        assert parse("x1 x2 + x1 x2").is_formal_zero()

    def test_zero_literal(self):
        assert parse("0").is_formal_zero()
        assert parse("  0  ").is_formal_zero()

    def test_multidigit_indices(self):
        p = parse("x12 x3")
        assert p == LiePoly.of(pair(leaf(12), leaf(3)))

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("x1 +", 4),        # empty product at end
            ("+ x1", 0),        # empty product at start
            ("()", 1),          # empty parentheses
            ("x0", 0),          # index zero
            ("x", 1),           # missing digits
            ("x1 y2", 3),       # stray character
            ("x1 (x2", 6),      # unclosed parenthesis, reported at end
            ("x1 ) x2", 3),     # unexpected close
            ("0 + x1", 0),      # zero only stands alone
            ("x1 0", 3),        # zero inside a term
            ("(x1 + x2)", 4),   # no sums inside parentheses
        ],
    )
    def test_errors_carry_positions(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == offset

    def test_nesting_at_the_limit_parses(self):
        text = "(" * MAX_NESTING + "x1 x2" + ")" * MAX_NESTING
        assert parse(text) == LiePoly.of(pair(leaf(1), leaf(2)))

    def test_deep_nesting_is_a_parse_error(self):
        text = "(" * 3000 + "x1 x2" + ")" * 3000
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == MAX_NESTING

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")


class TestFormat:
    def test_zero(self):
        assert format_poly(LiePoly.ZERO) == "0"

    def test_flat_left_normalized_run(self):
        assert format_poly(LiePoly.of(word_monomial([1, 2, 3]))) == "x1 x2 x3"

    def test_minimal_parentheses(self):
        # the left-normalized run extends through the first factor, so the
        # leading pair needs no parentheses
        m = pair(pair(pair(leaf(1), leaf(2)), pair(leaf(3), leaf(4))), leaf(5))
        assert format_monomial(m) == "x1 x2 (x3 x4) x5"
        assert parse(format_monomial(m)) == LiePoly.of(m)
        right_nested = pair(leaf(1), pair(leaf(2), pair(leaf(3), leaf(4))))
        assert format_monomial(right_nested) == "x1 (x2 (x3 x4))"

    def test_terms_in_canonical_order(self):
        jac = parse("x2 x3 x1 + x3 x1 x2 + x1 x2 x3")
        assert format_poly(jac) == "x1 x2 x3 + x2 x3 x1 + x3 x1 x2"


# --- round-tripping ---------------------------------------------------------

indices = st.integers(min_value=1, max_value=12)
lie_monomials = st.recursive(
    indices.map(leaf),
    lambda kids: st.tuples(kids, kids).map(lambda lr: pair(*lr)),
    max_leaves=6,
)
lie_polys = st.lists(lie_monomials, max_size=5).map(
    lambda ms: LiePoly.of(*ms)
)


@settings(max_examples=150, deadline=None)
@given(lie_polys)
def test_round_trip_is_syntactic_identity(p):
    assert parse(format_poly(p)) == p


@settings(max_examples=60, deadline=None)
@given(lie_polys)
def test_round_trip_preserves_expansion(p):
    assert assoc_expand(parse(format_poly(p))) == assoc_expand(p)


def random_poly(rng, max_index=9, max_terms=4, max_leaves=6):
    def mono(budget):
        if budget == 1 or rng.random() < 0.4:
            return leaf(rng.randint(1, max_index))
        cut = rng.randint(1, budget - 1)
        return pair(mono(cut), mono(budget - cut))

    terms = [mono(rng.randint(1, max_leaves)) for _ in range(rng.randint(0, max_terms))]
    return LiePoly.of(*terms)


def test_round_trip_seeded_sample():
    rng = random.Random(4)
    for _ in range(300):
        p = random_poly(rng)
        assert parse(format_poly(p)) == p
