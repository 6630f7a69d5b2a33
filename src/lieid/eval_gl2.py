"""Evaluation of Lie polynomials on 2x2 matrices over polynomial rings of
characteristic two.

Matrix entries live in GF(2)[v_0, v_1, ...].  A polynomial is a frozenset of
packed monomials (Monagan & Pearce, ISSAC 2009): the exponent of v_j sits in
bits [j*w, (j+1)*w) of one int, for a field width w fixed per evaluation, so
the product of two monomials is the sum of their ints and the sum of two
polynomials is the symmetric difference of their sets.  Packing is exact as
long as no exponent exceeds 2^w - 1; every entry of a monomial's value has,
in the indeterminates of x_i, degree at most the multiplicity of x_i, so
``field_width`` of the largest multiplicity suffices.

A Lie polynomial is an identity for gl2 exactly when its evaluation at
generic matrices is the zero matrix; over an infinite base field of
characteristic two this criterion is exact in both directions.  The generic
matrices here are centre-free, X_i = [[0, q_i], [r_i, s_i]]: see
``generic_matrix`` for why that changes no verdict.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from .lie_core import (
    Evaluator,
    PolyLike,
    as_poly,
    check_degree_cap,
    get_degree_cap,
    multidegree,
)

__all__ = [
    "ZERO",
    "ONE",
    "variable",
    "poly_mul",
    "field_width",
    "GMat2",
    "ZERO_MAT",
    "A_MAT",
    "B_MAT",
    "C_MAT",
    "BC_MAT",
    "lie_mat",
    "generic_matrix",
    "generic_matrix_sl2",
    "evaluate",
    "is_identity_gl2",
    "sub_ij",
    "is_identity_sl2",
]

ZERO: frozenset[int] = frozenset()
ONE: frozenset[int] = frozenset((0,))


def variable(j: int, width: int) -> frozenset[int]:
    """The indeterminate v_j, in fields of the given width."""
    return frozenset((1 << (j * width),))


def poly_mul(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    if not a or not b:
        return ZERO
    if len(a) > len(b):
        a, b = b, a
    acc: set[int] = set()
    for x in a:
        # distinct monomials of b give distinct products with x
        acc.symmetric_difference_update({x + y for y in b})
    return frozenset(acc)


def field_width(max_multiplicity: int) -> int:
    """Bits per exponent field, enough for exponents up to the multiplicity."""
    return max(max_multiplicity, 1).bit_length()


class GMat2(NamedTuple):
    """2x2 matrix of packed polynomials; entries in row-major order."""

    e11: frozenset[int]
    e12: frozenset[int]
    e21: frozenset[int]
    e22: frozenset[int]

    @classmethod
    def from_bits(cls, e11: int, e12: int, e21: int, e22: int) -> "GMat2":
        pick = lambda b: ONE if b else ZERO
        return cls(pick(e11), pick(e12), pick(e21), pick(e22))

    def __add__(self, other: "GMat2") -> "GMat2":
        return GMat2(*(x ^ y for x, y in zip(self, other)))

    def is_zero(self) -> bool:
        return not any(self)


ZERO_MAT = GMat2.from_bits(0, 0, 0, 0)
# The standard basis used throughout: a = E22, b = E12, c = E21, and the
# central element bc = [b, c] = E11 + E22.
A_MAT = GMat2.from_bits(0, 0, 0, 1)
B_MAT = GMat2.from_bits(0, 1, 0, 0)
C_MAT = GMat2.from_bits(0, 0, 1, 0)
BC_MAT = GMat2.from_bits(1, 0, 0, 1)


def lie_mat(a: GMat2, b: GMat2) -> GMat2:
    """Matrix commutator AB + BA, expanded with commuting entries.

    In characteristic two the diagonal products cancel, leaving
    [A, B] = [[t, a12 d_B + b12 d_A], [a21 d_B + b21 d_A, t]] with
    t = a12 b21 + a21 b12 and d the trace: six products instead of sixteen.
    """
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    da, db = a11 ^ a22, b11 ^ b22
    t = poly_mul(a12, b21) ^ poly_mul(a21, b12)
    return GMat2(t, poly_mul(a12, db) ^ poly_mul(b12, da),
                 poly_mul(a21, db) ^ poly_mul(b21, da), t)


def _default_width(width: Optional[int]) -> int:
    return field_width(get_degree_cap()) if width is None else width


def generic_matrix(i: int, width: Optional[int] = None) -> GMat2:
    """Centre-free generic matrix for variable index i: [[0, q], [r, s]] with
    q, r, s the fresh indeterminates v_{3(i-1)}, v_{3(i-1)+1}, v_{3(i-1)+2}.
    The default width fits every multiplicity allowed by the degree cap.

    The full generic matrix p I + [[0, q], [r, s]] gives the same identity
    verdict for every Lie polynomial f.  I is central, so a bracket monomial
    of degree >= 2 takes the same value at both.  Every entry of such a
    value has degree >= 2 in the indeterminates, so the (1,2) entry of
    f(centre-free) has degree-1 part sum_i c_i q_i, where c_i is the
    coefficient of x_i in f; the full value adds sum_i c_i p_i I.  Either
    value vanishes only if every c_i is 0, and then the two values are
    equal.
    """
    base = 3 * (i - 1)
    w = _default_width(width)
    return GMat2(ZERO, variable(base, w), variable(base + 1, w),
                 variable(base + 2, w))


def generic_matrix_sl2(i: int, width: Optional[int] = None) -> GMat2:
    """Centre-free generic trace-zero matrix: [[0, q], [r, 0]].

    In characteristic two a trace-zero matrix has equal diagonal entries,
    t I + [[0, q], [r, 0]], and t I is central; the argument of
    ``generic_matrix``, with q still free in degree 1, shows that dropping
    t changes no verdict.
    """
    base = 2 * (i - 1)
    w = _default_width(width)
    return GMat2(ZERO, variable(base, w), variable(base + 1, w), ZERO)


def evaluate(p: PolyLike, assign: Mapping[int, GMat2]) -> GMat2:
    """Evaluate with bracket nodes mapped to lie_mat and sums entrywise."""
    return Evaluator(assign, lie_mat, ZERO_MAT).poly(p)


def _vanishes_generically(p: PolyLike,
                          matrix: Callable[[int, int], GMat2]) -> bool:
    """Evaluate at generic matrices, the variables renumbered 1, 2, ... in
    index order so that the packed ints stay short."""
    pp = as_poly(p)
    check_degree_cap(pp.max_degree())
    width = field_width(max((d for m in pp.monomials
                             for _, d in multidegree(m).items()), default=1))
    assign = {i: matrix(k + 1, width)
              for k, i in enumerate(sorted(pp.support()))}
    return evaluate(pp, assign).is_zero()


def is_identity_gl2(p: PolyLike) -> bool:
    """Exact identity test for gl2 over any infinite field of characteristic
    two, via evaluation at generic matrices."""
    return _vanishes_generically(p, generic_matrix)


def is_identity_sl2(p: PolyLike) -> bool:
    """Identity test for the trace-zero subalgebra, via generic trace-zero
    matrices."""
    return _vanishes_generically(p, generic_matrix_sl2)


def sub_ij(p: PolyLike, i: int, j: int, n: int) -> GMat2:
    """Evaluate p at x_i -> b, x_j -> c and x_k -> a for the other k <= n."""
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    pp = as_poly(p)
    out_of_range = [k for k in pp.support() if not (1 <= k <= n)]
    if out_of_range:
        raise ValueError(f"variable indices {sorted(out_of_range)} exceed n={n}")
    assign: dict[int, GMat2] = {k: A_MAT for k in range(1, n + 1)}
    assign[i] = B_MAT
    assign[j] = C_MAT
    return evaluate(pp, assign)
