"""Pins the benchmark's oracle to hand-computed and known values.

    python3 -m pytest -q bench/test_oracle.py
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def _poly_mulmod(a: int, b: int, f: int) -> int:
    """a * b mod f over GF(2), written out bit by bit for the test only."""
    deg = f.bit_length() - 1
    r = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            r ^= a << i
    for i in range(r.bit_length() - 1, deg - 1, -1):
        if r >> i & 1:
            r ^= f << (i - deg)
    return r


def test_modulus_is_irreducible():
    # deg f = 31 is prime, so f is irreducible when it has no root in GF(2)
    # and divides x^(2^31) - x.
    f = oracle.MODULUS
    assert f & 1 and bin(f).count("1") % 2 == 1
    x = 0b10
    for _ in range(31):
        x = _poly_mulmod(x, x, f)
    assert x == 0b10


@pytest.mark.parametrize("a,b", [(1, 7), (3, 3), (0x7FFFFFFF, 0x12345678),
                                 (1 << 30, 1 << 30), (0, 5)])
def test_field_product_matches_reference(a, b):
    assert oracle.gf_mul(a, b) == _poly_mulmod(a, b, oracle.MODULUS)
    assert oracle.gf_mul(a, b) == oracle.gf_mul(b, a)


@pytest.mark.parametrize("md,dim", [
    ((1,), 1), ((2,), 0), ((1, 1), 1), ((2, 1), 1), ((1, 1, 1), 2),
    ((2, 2), 1), ((3, 1), 1), ((1, 1, 1, 1), 6), ((2, 1, 1), 3),
    ((2, 2, 2), 14), ((1,) * 6, 120), ((1,) * 7, 720), ((6,), 0),
])
def test_witt_formula(md, dim):
    # (2,2): words x1x1x2x2 arranged, 6 in all, minus the 2 of period two,
    # over 4 rotations: 1; (1^n): (n-1)!; a single letter only in degree 1.
    assert oracle.witt_dim(md) == dim


@pytest.mark.parametrize("md,dim", [
    ((1, 1, 1), 0), ((2, 1), 0), ((1, 1, 1, 1), 1), ((1,) * 5, 15),
    ((1,) * 6, 106), ((2, 2, 1, 1), 24), ((3, 1, 1, 1, 1), 110),
    ((2, 2, 2, 1), 84), ((2, 2, 1, 1, 1), 170),
])
def test_identity_dimensions(md, dim):
    assert oracle.Oracle(seed=1).identity_dim(md) == dim


def test_vanishing_separates_identities_from_non_identities():
    orc = oracle.Oracle(seed=2)
    md = (1, 1, 1, 1, 1)

    def bracket(left, right):
        return [u + v for u in left for v in right] + \
               [v + u for u in left for v in right]

    x = {i: [(i,)] for i in range(1, 6)}
    base = bracket(bracket(bracket(x[1], x[2]), bracket(x[3], x[4])), x[5])
    assert orc.vanishes(md, base)
    left_normed = bracket(bracket(bracket(bracket(x[1], x[2]), x[3]), x[4]), x[5])
    assert not orc.vanishes(md, left_normed)
    # the standard polynomial s4 vanishes on 2x2 matrices (Amitsur-Levitzki);
    # it is an associative identity, which random evaluation also sees
    import itertools
    s4 = list(itertools.permutations((1, 2, 3, 4)))
    assert orc.vanishes((1, 1, 1, 1), s4)
    assert not orc.vanishes((1, 1, 1, 1), s4[:1])
