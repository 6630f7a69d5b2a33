"""Vector spaces over GF(2) indexed by a fixed ordered list of labels.

Vectors are Python ints used as bitsets: bit i corresponds to position i of
the index.  Subspaces store a reduced row-echelon basis, which is canonical,
so equality of subspaces reduces to equality of bases.
"""

from __future__ import annotations

import bisect
from typing import Hashable, Iterable, Optional, Sequence

__all__ = [
    "WordIndex",
    "GF2Subspace",
    "Echelon",
    "span",
    "contains",
    "equal",
    "subset",
    "dim",
    "kernel",
    "solve_in_span",
]


def _lowest_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


class WordIndex:
    """Ordered, duplicate-free list of hashable labels with positions."""

    __slots__ = ("labels", "positions")

    def __init__(self, labels: Sequence[Hashable]):
        self.labels = tuple(labels)
        self.positions = {w: i for i, w in enumerate(self.labels)}
        if len(self.positions) != len(self.labels):
            raise ValueError("duplicate labels in index")

    @classmethod
    def from_words(cls, words: Iterable[tuple[int, ...]]) -> "WordIndex":
        """Canonical word index: length-then-lex order, duplicates dropped."""
        return cls(sorted(set(words), key=lambda w: (len(w), w)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def vector(self, support: Iterable[Hashable]) -> int:
        """Bitset of the given labels; unknown labels are an error."""
        v = 0
        for w in support:
            try:
                v ^= 1 << self.positions[w]
            except KeyError:
                raise ValueError(f"label {w!r} is not in the index") from None
        return v

    def unit(self, label: Hashable) -> int:
        return self.vector((label,))

    def support(self, v: int) -> list[Hashable]:
        """Labels of the set bits, in index order."""
        out = []
        i = 0
        while v:
            if v & 1:
                out.append(self.labels[i])
            v >>= 1
            i += 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WordIndex):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"WordIndex(size={self.size})"


class Echelon:
    """Mutable RREF accumulator over an index: rows sorted by pivot, fully
    back-reduced.  ``insert`` refuses a vector that does not fit the index."""

    __slots__ = ("index", "pivots", "rows", "_limit")

    def __init__(self, index: WordIndex):
        self.index = index
        self.pivots: list[int] = []
        self.rows: list[int] = []
        self._limit = 1 << index.size

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        for p, row in zip(self.pivots, self.rows):
            if (v >> p) & 1:
                v ^= row
        return v

    def insert(self, v: int) -> bool:
        """Reduce v and add it to the basis; False when already in the span."""
        if v < 0 or v >= self._limit:
            raise ValueError("vector does not fit the index length")
        v = self.reduce(v)
        if not v:
            return False
        p = _lowest_bit(v)
        for i, row in enumerate(self.rows):
            if (row >> p) & 1:
                self.rows[i] = row ^ v
        at = bisect.bisect_left(self.pivots, p)
        self.pivots.insert(at, p)
        self.rows.insert(at, v)
        return True


class GF2Subspace:
    """Immutable subspace with a reduced row-echelon basis: a frozen copy of
    the span an ``Echelon`` has reached."""

    __slots__ = ("index", "rows", "pivots")

    def __init__(self, ech: Echelon):
        self.index = ech.index
        self.rows = tuple(ech.rows)
        self.pivots = tuple(ech.pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_index(self, other: "GF2Subspace") -> None:
        if self.index is not other.index and self.index != other.index:
            raise ValueError("subspaces are indexed by different word lists")

    def reduce(self, v: int) -> int:
        for p, row in zip(self.pivots, self.rows):
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def subset(self, other: "GF2Subspace") -> bool:
        self._check_index(other)
        return all(other.contains(row) for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Subspace):
            return NotImplemented
        self._check_index(other)
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.index, self.rows))

    def basis_vectors(self) -> tuple[int, ...]:
        return self.rows

    def __repr__(self) -> str:
        return f"GF2Subspace(dim={self.dim}, ambient={self.index.size})"


def span(index: WordIndex, vectors: Iterable[int]) -> GF2Subspace:
    """Reduced row-echelon basis of the span of the given bitset vectors."""
    ech = Echelon(index)
    for v in vectors:
        ech.insert(v)
    return GF2Subspace(ech)


def contains(s: GF2Subspace, v: int) -> bool:
    return s.contains(v)


def equal(s: GF2Subspace, t: GF2Subspace) -> bool:
    return s == t


def subset(s: GF2Subspace, t: GF2Subspace) -> bool:
    return s.subset(t)


def dim(s: GF2Subspace) -> int:
    return s.dim


def kernel(index: WordIndex, rows: Iterable[int]) -> GF2Subspace:
    """Null space of a constraint matrix, in the coordinates of ``index``.

    Each row is a linear condition on an unknown vector x: parity(row & x)
    must vanish.  The result is the RREF basis of all solutions.
    """
    width = index.size
    ech = Echelon(index)
    for r in rows:
        ech.insert(r)
    pivot_set = set(ech.pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    solutions = []
    for f in free_cols:
        x = 1 << f
        # pivot variable p is determined by its (back-reduced) row
        for p, row in zip(ech.pivots, ech.rows):
            if (row >> f) & 1:
                x ^= 1 << p
        solutions.append(x)
    return span(index, solutions)


def solve_in_span(
    index: WordIndex, vectors: Sequence[int], target: int
) -> Optional[list[int]]:
    """Positions i with target = XOR of vectors[i], or None when unsolvable.

    The particular solution is the one produced by Gaussian elimination in
    the given vector order, which makes it deterministic.
    """
    ech_rows: list[tuple[int, int]] = []  # (row, combination) sorted by pivot
    pivots: list[int] = []

    def reduce_tracked(v: int, combo: int) -> tuple[int, int]:
        for p, (row, rcombo) in zip(pivots, ech_rows):
            if (v >> p) & 1:
                v ^= row
                combo ^= rcombo
        return v, combo

    for i, v in enumerate(vectors):
        v, combo = reduce_tracked(v, 1 << i)
        if v:
            p = _lowest_bit(v)
            at = bisect.bisect_left(pivots, p)
            pivots.insert(at, p)
            ech_rows.insert(at, (v, combo))

    residual, combo = reduce_tracked(target, 0)
    if residual:
        return None
    return [i for i in range(len(vectors)) if (combo >> i) & 1]
