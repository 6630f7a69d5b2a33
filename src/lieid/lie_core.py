"""Lie monomials and GF(2) Lie polynomials.

Monomials are plain binary bracket trees over positive generator indices;
no normalization happens at the tree level.  Equality of Lie elements is
decided by expanding brackets into the free associative algebra
([u, v] -> uv + vu in characteristic two), where the free Lie algebra
embeds faithfully.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Generic, TypeVar, Union

__all__ = [
    "DegreeCapError",
    "LieMonomial",
    "LiePoly",
    "MultiDeg",
    "AssocPoly",
    "leaf",
    "pair",
    "left_norm",
    "word_monomial",
    "as_poly",
    "bracket",
    "Evaluator",
    "multidegree",
    "commutator",
    "assoc_evaluator",
    "assoc_expand",
    "is_zero",
    "substitute",
    "polarize",
    "get_degree_cap",
    "set_degree_cap",
    "check_degree_cap",
]

DEFAULT_DEGREE_CAP = 8

_degree_cap = DEFAULT_DEGREE_CAP


class DegreeCapError(RuntimeError):
    """Raised when an operation would enumerate words beyond the degree cap."""


def get_degree_cap() -> int:
    return _degree_cap


def set_degree_cap(cap: int) -> None:
    """Set the global total-degree cap guarding word enumeration."""
    if cap < 1:
        raise ValueError(f"degree cap must be >= 1, got {cap}")
    global _degree_cap
    _degree_cap = cap


def check_degree_cap(total: int) -> None:
    if total > _degree_cap:
        raise DegreeCapError(
            f"total degree {total} exceeds the degree cap {_degree_cap}"
        )


class LieMonomial:
    """A bracket tree: either a leaf generator x_i or a pair (left, right).

    Instances are immutable and interned by structure via their sort key.
    The canonical order compares leaves by index and trees by
    (degree, left, right) lexicographically; since only leaves have degree
    one, the nested-tuple keys never compare int against tuple.
    """

    __slots__ = ("index", "left", "right", "degree", "key", "_hash")

    def __init__(self, index=None, left=None, right=None):
        self.index = index
        self.left = left
        self.right = right
        if index is not None:
            if index < 1:
                raise ValueError(f"generator index must be >= 1, got {index}")
            self.degree = 1
            self.key = (1, index)
        else:
            self.degree = left.degree + right.degree
            self.key = (self.degree, left.key, right.key)
        self._hash = hash(self.key)

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieMonomial):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "LieMonomial") -> bool:
        return self.key < other.key

    def __le__(self, other: "LieMonomial") -> bool:
        return self.key <= other.key

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"x{self.index}"
        return f"({self.left!r} {self.right!r})"

    def leaves(self) -> Iterator[int]:
        """Yield generator indices left to right."""
        stack = [self]
        out = []
        while stack:
            m = stack.pop()
            if m.is_leaf:
                out.append(m.index)
            else:
                stack.append(m.right)
                stack.append(m.left)
        return iter(out)

    def spine(self) -> list["LieMonomial"]:
        """Factors of the maximal left-normalized run ending at this node."""
        factors = []
        m = self
        while not m.is_leaf:
            factors.append(m.right)
            m = m.left
        factors.append(m)
        factors.reverse()
        return factors


def leaf(index: int) -> LieMonomial:
    return LieMonomial(index=index)


def pair(left: LieMonomial, right: LieMonomial) -> LieMonomial:
    return LieMonomial(left=left, right=right)


MonomialLike = Union[LieMonomial, int]


def _as_monomial(m: MonomialLike) -> LieMonomial:
    return leaf(m) if isinstance(m, int) else m


def left_norm(ms: Sequence[MonomialLike]) -> LieMonomial:
    """Fold a nonempty list left to right with the bracket constructor."""
    if not ms:
        raise ValueError("left_norm requires a nonempty list")
    acc = _as_monomial(ms[0])
    for m in ms[1:]:
        acc = pair(acc, _as_monomial(m))
    return acc


def word_monomial(indices: Sequence[int]) -> LieMonomial:
    """Left-normalized monomial on a sequence of generator indices."""
    return left_norm([leaf(i) for i in indices])


class MultiDeg:
    """Occurrence counts of generator indices; immutable and hashable."""

    __slots__ = ("_items", "total", "_hash")

    def __init__(self, counts: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = counts.items() if isinstance(counts, Mapping) else counts
        cleaned = []
        for idx, mult in items:
            if mult < 0:
                raise ValueError(f"negative multiplicity for index {idx}")
            if mult > 0:
                if idx < 1:
                    raise ValueError(f"generator index must be >= 1, got {idx}")
                cleaned.append((idx, mult))
        cleaned.sort()
        self._items = tuple(cleaned)
        self.total = sum(m for _, m in cleaned)
        self._hash = hash(self._items)

    @classmethod
    def multilinear(cls, n: int) -> "MultiDeg":
        return cls({i: 1 for i in range(1, n + 1)})

    @classmethod
    def of_leaves(cls, indices: Iterable[int]) -> "MultiDeg":
        counts: dict[int, int] = {}
        for i in indices:
            counts[i] = counts.get(i, 0) + 1
        return cls(counts)

    def __getitem__(self, index: int) -> int:
        for idx, mult in self._items:
            if idx == index:
                return mult
        return 0

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiDeg):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{m}" for i, m in self._items)
        return "{" + inner + "}"

    def __add__(self, other: "MultiDeg") -> "MultiDeg":
        counts = dict(self._items)
        for i, m in other._items:
            counts[i] = counts.get(i, 0) + m
        return MultiDeg(counts)

    def __sub__(self, other: "MultiDeg") -> "MultiDeg":
        counts = dict(self._items)
        for i, m in other._items:
            counts[i] = counts.get(i, 0) - m
            if counts[i] < 0:
                raise ValueError(f"{self!r} does not contain {other!r}")
        return MultiDeg(counts)

    def scaled(self, factor: int) -> "MultiDeg":
        return MultiDeg({i: m * factor for i, m in self._items})

    def floor_div(self, divisor: int) -> "MultiDeg":
        return MultiDeg({i: m // divisor for i, m in self._items})

    def sub_multidegrees(self) -> Iterator["MultiDeg"]:
        """All componentwise-smaller multidegrees, the empty one included."""
        indices = [i for i, _ in self._items]
        ranges = [range(m + 1) for _, m in self._items]
        for mults in itertools.product(*ranges):
            yield MultiDeg(zip(indices, mults))


def multidegree(m: LieMonomial) -> MultiDeg:
    """Leaf occurrence counts of a monomial."""
    return MultiDeg.of_leaves(m.leaves())


class AssocPoly:
    """GF(2) sum of associative words; words are tuples of generator indices."""

    __slots__ = ("words", "_hash")

    def __init__(self, words: frozenset[tuple[int, ...]]):
        self.words = words
        self._hash = hash(words)

    ZERO: "AssocPoly"

    @classmethod
    def from_words(cls, words: Iterable[tuple[int, ...]]) -> "AssocPoly":
        acc: set[tuple[int, ...]] = set()
        for w in words:
            acc.symmetric_difference_update((w,))
        return cls(frozenset(acc))

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        return AssocPoly(self.words.symmetric_difference(other.words))

    def is_zero(self) -> bool:
        return not self.words

    def sorted_words(self) -> list[tuple[int, ...]]:
        return sorted(self.words, key=lambda w: (len(w), w))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssocPoly):
            return NotImplemented
        return self.words == other.words

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.words:
            return "AssocPoly(0)"
        return "AssocPoly(" + " + ".join(
            "".join(map(str, w)) for w in self.sorted_words()
        ) + ")"


AssocPoly.ZERO = AssocPoly(frozenset())


class LiePoly:
    """Formal GF(2) sum of Lie monomials; addition is symmetric difference."""

    __slots__ = ("monomials", "_hash")

    def __init__(self, monomials: frozenset[LieMonomial]):
        self.monomials = monomials
        self._hash = hash(monomials)

    ZERO: "LiePoly"

    @classmethod
    def of(cls, *monomials: MonomialLike) -> "LiePoly":
        acc: set[LieMonomial] = set()
        for m in monomials:
            acc.symmetric_difference_update((_as_monomial(m),))
        return cls(frozenset(acc))

    def __add__(self, other: "LiePoly") -> "LiePoly":
        return LiePoly(self.monomials.symmetric_difference(other.monomials))

    def is_formal_zero(self) -> bool:
        """No monomials left after formal cancellation (stronger than is_zero)."""
        return not self.monomials

    def sorted_monomials(self) -> list[LieMonomial]:
        return sorted(self.monomials)

    def support(self) -> set[int]:
        out: set[int] = set()
        for m in self.monomials:
            out.update(m.leaves())
        return out

    def max_degree(self) -> int:
        return max((m.degree for m in self.monomials), default=0)

    def multidegree(self) -> MultiDeg:
        """Common multidegree of all monomials; error if mixed or zero."""
        it = iter(self.monomials)
        try:
            md = multidegree(next(it))
        except StopIteration:
            raise ValueError("the zero polynomial has no multidegree") from None
        for m in it:
            if multidegree(m) != md:
                raise ValueError("polynomial is not multihomogeneous")
        return md

    def is_multihomogeneous(self) -> bool:
        mds = {multidegree(m) for m in self.monomials}
        return len(mds) <= 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiePoly):
            return NotImplemented
        return self.monomials == other.monomials

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.monomials:
            return "LiePoly(0)"
        return "LiePoly(" + " + ".join(repr(m) for m in self.sorted_monomials()) + ")"


LiePoly.ZERO = LiePoly(frozenset())

PolyLike = Union[LiePoly, LieMonomial, int]


def as_poly(p: PolyLike) -> LiePoly:
    if isinstance(p, LiePoly):
        return p
    return LiePoly.of(_as_monomial(p))


def bracket(p: PolyLike, q: PolyLike) -> LiePoly:
    """Bilinear extension of the pair constructor, reduced over GF(2)."""
    pp, qq = as_poly(p), as_poly(q)
    acc: set[LieMonomial] = set()
    for m in pp.monomials:
        for n in qq.monomials:
            acc.symmetric_difference_update((pair(m, n),))
    return LiePoly(frozenset(acc))


T = TypeVar("T")


class Evaluator(Generic[T]):
    """Evaluate bracket trees under one fixed assignment of the generators:
    leaves take ``assign[i]``, bracket nodes ``bracket(left, right)`` and
    sums start from ``zero``.  Monomial values are cached, so subtrees
    shared within and across the evaluated monomials are computed once.

    Substitution (values in the free Lie algebra), generic-matrix evaluation,
    associative expansion and the evaluation of consequence instances all
    use it.  The cache belongs to the instance, so it is freed with it.
    """

    def __init__(self, assign: Mapping[int, T], bracket: Callable[[T, T], T],
                 zero: T):
        self.assign = assign
        self.bracket = bracket
        self.zero = zero
        self._cache: dict[LieMonomial, T] = {}

    def monomial(self, m: LieMonomial) -> T:
        got = self._cache.get(m)
        if got is not None:
            return got
        if m.is_leaf:
            try:
                result = self.assign[m.index]
            except KeyError:
                raise ValueError(f"no value assigned to x{m.index}") from None
        else:
            result = self.bracket(self.monomial(m.left), self.monomial(m.right))
        self._cache[m] = result
        return result

    def poly(self, p: PolyLike) -> T:
        acc = self.zero
        for m in as_poly(p).monomials:
            acc = acc + self.monomial(m)
        return acc


def _concat(a: AssocPoly, b: AssocPoly) -> frozenset[tuple[int, ...]]:
    acc: set[tuple[int, ...]] = set()
    for u in a.words:
        for v in b.words:
            acc.symmetric_difference_update((u + v,))
    return frozenset(acc)


def commutator(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """The associative commutator ab + ba, reduced over GF(2)."""
    return AssocPoly(_concat(a, b) ^ _concat(b, a))


def assoc_evaluator(indices: Iterable[int]) -> Evaluator[AssocPoly]:
    """A fresh evaluator expanding bracket trees on the letters ``indices``
    as [u, v] -> uv + vu.

    Its subtree cache lives as long as the evaluator: a caller expanding a
    batch of related monomials owns one for the batch and drops it with the
    batch, so no expansion outlives the work that needed it.
    """
    letters = {i: AssocPoly(frozenset(((i,),))) for i in indices}
    return Evaluator(letters, commutator, AssocPoly.ZERO)


def assoc_expand(p: PolyLike) -> AssocPoly:
    """Expand every bracket node as [u, v] -> uv + vu and cancel over GF(2).

    The result is zero exactly when p is zero in the free Lie algebra.
    """
    pp = as_poly(p)
    for m in pp.monomials:
        check_degree_cap(m.degree)
    return assoc_evaluator(pp.support()).poly(pp)


def is_zero(p: PolyLike) -> bool:
    """True exactly when p vanishes in the free Lie algebra."""
    return assoc_expand(p).is_zero()


def substitute(p: PolyLike, s: Mapping[int, PolyLike]) -> LiePoly:
    """Simultaneous substitution x_i -> s[i], expanded multilinearly."""
    polys = {i: as_poly(v) for i, v in s.items()}
    return Evaluator(polys, bracket, LiePoly.ZERO).poly(p)


def _degree_in(p: LiePoly, v: int) -> int:
    """Degree of p in variable v; error unless homogeneous in v."""
    degs = set()
    for m in p.monomials:
        degs.add(sum(1 for i in m.leaves() if i == v))
    if len(degs) != 1:
        raise ValueError(f"polynomial is not homogeneous in x{v}")
    return degs.pop()


def polarize(
    p: PolyLike,
    v: int,
    parts: Sequence[int],
    target: Mapping[int, int],
) -> LiePoly:
    """Replace x_v by a sum of fresh variables and keep one multihomogeneous
    component.

    ``target`` prescribes, for every part, its multiplicity in the kept
    component; the multiplicities must be >= 1 and sum to the degree of p in
    x_v.  Over GF(2) the component is extracted by filtering the expanded
    substitution by multidegree.
    """
    pp = as_poly(p)
    d = _degree_in(pp, v)
    if d < 1:
        raise ValueError(f"x{v} does not occur in the polynomial")
    if len(parts) < 2:
        raise ValueError("polarization needs at least two parts")
    if len(set(parts)) != len(parts):
        raise ValueError("parts must be distinct")
    used = pp.support()
    stale = [q for q in parts if q in used]
    if stale:
        raise ValueError(f"parts {stale} already occur in the polynomial")
    missing = [q for q in parts if q not in target]
    if missing:
        raise ValueError(f"target omits parts {missing}")
    if any(target[q] < 1 for q in parts):
        raise ValueError("target multiplicities must be >= 1")
    if sum(target[q] for q in parts) != d:
        raise ValueError(
            f"target multiplicities must sum to the degree {d} in x{v}"
        )

    replacement = LiePoly.of(*parts)
    subs: dict[int, PolyLike] = {i: leaf(i) for i in used}
    subs[v] = replacement
    expanded = substitute(pp, subs)

    kept = []
    part_set = set(parts)
    for m in expanded.monomials:
        counts = {q: 0 for q in part_set}
        for i in m.leaves():
            if i in counts:
                counts[i] += 1
        if all(counts[q] == target[q] for q in parts):
            kept.append(m)
    return LiePoly.of(*kept)
