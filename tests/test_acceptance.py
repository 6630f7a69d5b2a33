"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass; the two multi-minute extensions carry the ``slow`` marker.  Criteria
that are lemma statements run the suites of ``lieid lemmas`` through
``LEMMAS``, so each statement is written once.
"""

import math
import random
from contextlib import contextmanager

import pytest

from lieid import cli
from lieid.cli import LEMMAS, generation_check
from lieid.eval_gl2 import is_identity_gl2, sub_ij
from lieid.expr import format_poly, parse
from lieid.lie_core import (
    LiePoly,
    MultiDeg,
    as_poly,
    assoc_expand,
    leaf,
    pair,
    word_monomial,
)
from lieid.tideal import (
    BASE_RELATION,
    BASE_SET,
    all_linearizations,
    base_consequences,
    canonical_multidegrees,
    component,
    consequences,
    identities,
    identity_coefficient_space,
    lie_poly_from_vector,
    monomials_of,
    normal_form_labels,
    normal_form_poly,
    triple_identity,
    word_pair_element,
    word_pair_independence,
)

import oracles
from test_expr import random_poly


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>3} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:>3} {name}: PASS")


def test_01_generating_set_members_are_identities():
    with criterion(1, "generating-set members are gl2 identities"):
        assert is_identity_gl2(BASE_RELATION)
        for k in range(3, 7):
            poly = as_poly(pair(pair(leaf(1), leaf(2)),
                                word_monomial(range(1, k + 1))))
            assert is_identity_gl2(poly)
        assert is_identity_gl2(triple_identity(4))
        for m in range(5, 9):
            assert is_identity_gl2(triple_identity(m))


def test_02_base_and_word_pair_families_hold():
    with criterion(2, "base relation and word-pair family hold on gl2"):
        assert is_identity_gl2(parse("(x1 x2)(x3 x4) x5"))
        details, ok = LEMMAS["L1e2"]()
        assert ok, details
        assert sorted(details["word_pair_identity"]) == ["2", "3", "4", "5", "6"]


def test_03_multilinear_kernel_at_four_is_exactly_the_three_term_identity():
    with criterion(3, "identity space at 1^4 is one-dimensional, = f_4"):
        md = MultiDeg.multilinear(4)
        ids = identities(md)
        assert ids.dim == 1
        basis_poly = lie_poly_from_vector(md, ids.basis_vectors()[0])
        assert assoc_expand(basis_poly) == assoc_expand(triple_identity(4))


def test_04_permuted_triple_identities_span_the_multilinear_identities():
    with criterion(4, "permuted f_n span identities(1^n) mod base, n=4,5,6"):
        details, ok = LEMMAS["Lmultlin"]()
        assert ok, details
        assert sorted(details) == ["n4", "n5", "n6"]
        for n in (4, 5, 6):
            expected = math.comb(n - 2, 2)
            assert identity_coefficient_space(n).dim == expected, (
                f"coefficient space at n={n}"
            )


def test_05_consequence_spans_equal_identity_spaces_up_to_degree_six():
    with criterion(5, "generation check at every multidegree, total <= 6"):
        details, ok = LEMMAS["theorem"](6)
        assert ok, details["failures"]
        assert len(details["dim_identities"]) == 29


@pytest.mark.slow
def test_05b_generation_check_at_multilinear_seven():
    with criterion("5b", "generation check at 1^7 (slow)"):
        (row,), ok = generation_check([MultiDeg.multilinear(7)])
        assert ok, row
        assert row["dim_identities"] == 700


def test_06_tail_rewriting_holds_in_the_quotient(monkeypatch):
    monkeypatch.setattr(cli, "TAIL_REWRITING_SEED", 60)
    with criterion(6, "tail rewriting: fixed and five random instances"):
        details, ok = LEMMAS["LFid"]()
        assert ok, details
        assert details == {"fixed_instance": True, "random_instances": True}


def test_07_derived_subalgebra_spanning_sets():
    with criterion(7, "derived-subalgebra spans, totals 2..5; "
                      "[[L', L'], L] = T(a) at 6"):
        details, ok = LEMMAS["LF"]()
        assert ok, details
        assert all(details[str(part)]["pass"] for part in (1, 2, 3))
        # the triple products vanish in the quotient because it is built
        # from them; that it is the quotient is checked on the enumeration
        for md in canonical_multidegrees(6, 6):
            assert base_consequences(md) == consequences(BASE_SET, md), md


def test_08_word_pair_members_are_independent():
    with criterion(8, "word-pair member not a consequence of the rest, n=3,4"):
        details, ok = LEMMAS["LFid2"]()
        assert ok, details
        assert details["independent_3"] and details["independent_4"]


@pytest.mark.slow
def test_08b_word_pair_independence_at_five():
    with criterion("8b", "word-pair independence at n=5 (slow)"):
        rep = word_pair_independence(5)
        assert not rep.in_span_without
        assert rep.in_span_with


def test_09_linearizations_of_word_pair_elements_vanish():
    with criterion(9, "all linearizations of word-pair elements are 0 in the quotient"):
        for n in (3, 4):
            assert all_linearizations(word_pair_element(n)), (
                f"n={n} produced no linearizations")
        details, ok = LEMMAS["LFid2"]()
        assert ok, details
        assert details["linearizations_zero_3"]
        assert details["linearizations_zero_4"]


def test_10_oracle_agreement_on_random_multilinear_inputs():
    with criterion(10, "generic-matrix vs basis-tuple verdicts, 100 random each n"):
        rng = random.Random(61)
        for n in (4, 5):
            monos = monomials_of(MultiDeg.multilinear(n))
            for _ in range(100):
                p = LiePoly.of(*rng.sample(monos, rng.randint(1, 4)))
                assert is_identity_gl2(p) == oracles.is_identity_multilinear(p, n)
        # the pairwise-substitution criterion agrees on normal-form inputs
        for n in (4, 5):
            labels = normal_form_labels(n)
            for _ in range(50):
                chosen = frozenset(l for l in labels if rng.random() < 0.4)
                p = normal_form_poly(n, chosen)
                if p.is_formal_zero():
                    continue
                pairwise = all(
                    sub_ij(p, i, j, n).is_zero()
                    for i in range(1, n + 1)
                    for j in range(i + 1, n + 1)
                )
                assert is_identity_gl2(p) == pairwise


def test_11_structural_sanity():
    with criterion(11, "component dims are (n-1)! and the parser round-trips"):
        for n in range(2, 7):
            md = MultiDeg.multilinear(n)
            assert component(md).dim == math.factorial(n - 1)
        rng = random.Random(62)
        for _ in range(1000):
            p = random_poly(rng)
            assert parse(format_poly(p)) == p
