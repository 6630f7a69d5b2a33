"""An independent oracle for gl2 identities in characteristic two.

Nothing here imports ``lieid`` or mirrors its data structures.  Matrices are
4-tuples of field elements of GF(2^31), each a plain int read as a polynomial
over GF(2) modulo x^31 + x^3 + 1; brackets are matrix commutators, words are
matrix products.  A multidegree is a tuple of multiplicities (m_1, m_2, ...)
for the variables 1, 2, ...; a word is a tuple of variable numbers.

Random evaluation is one-sided.  A gl2 identity vanishes at every point, so
``vanishes`` never rejects one, and ``identity_dim`` never reports less than
the true dimension.  A polynomial of degree d that is not an identity
vanishes at one uniform point with probability at most d / 2^31
(Schwartz-Zippel), and at all of ``POINTS`` independent points with
probability at most (d / 2^31) ** POINTS.
"""

from __future__ import annotations

import math
import random

FIELD_BITS = 31
MODULUS = (1 << 31) | (1 << 3) | 1
POINTS = 2


def gf_mul(a: int, b: int) -> int:
    """Product in GF(2^31): carry-less multiplication, then reduction."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    while r >> FIELD_BITS:
        high = r >> FIELD_BITS
        r = (r & ((1 << FIELD_BITS) - 1)) ^ high ^ (high << 3)
    return r


def mat_mul(x: tuple, y: tuple) -> tuple:
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (gf_mul(x11, y11) ^ gf_mul(x12, y21),
            gf_mul(x11, y12) ^ gf_mul(x12, y22),
            gf_mul(x21, y11) ^ gf_mul(x22, y21),
            gf_mul(x21, y12) ^ gf_mul(x22, y22))


def commutator(x: tuple, y: tuple) -> tuple:
    """[x, y] = xy + yx; in characteristic two the sign does not matter."""
    a = mat_mul(x, y)
    b = mat_mul(y, x)
    return (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3])


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt_dim(md: tuple[int, ...]) -> int:
    """dim L_md of the free Lie algebra, by Witt's formula:
    (1/n) * sum over d | gcd(md) of mu(d) (n/d)! / prod (m_i/d)!."""
    parts = [m for m in md if m]
    n = sum(parts)
    if n == 0:
        raise ValueError("the empty multidegree has no component")
    g = math.gcd(*parts)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        count = math.factorial(n // d)
        for m in parts:
            count //= math.factorial(m // d)
        total += _mobius(d) * count
    return total // n


def arrangements(md: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every word with md[i - 1] letters i, in lexicographic order."""
    out: list[tuple[int, ...]] = []
    counts = list(md)
    word: list[int] = []
    n = sum(md)

    def walk():
        if len(word) == n:
            out.append(tuple(word))
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                word.append(i + 1)
                walk()
                word.pop()
                counts[i] += 1

    walk()
    return out


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bitsets, by elimination on leading bits."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = v
                break
            v ^= row
    return len(pivots)


class Oracle:
    """Random points chosen from one seed, and the values computed at them.

    Values are memoised per multidegree, so checking many vectors of one
    component evaluates each word once.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._points: dict[tuple, list[dict[int, tuple]]] = {}
        self._words: dict[tuple, list[dict[tuple, tuple]]] = {}
        self._dims: dict[tuple, int] = {}

    def _at(self, md: tuple[int, ...]) -> list[dict[int, tuple]]:
        got = self._points.get(md)
        if got is None:
            rng = random.Random(f"{self.seed}:{md}")
            got = [{i + 1: tuple(rng.getrandbits(FIELD_BITS) for _ in range(4))
                    for i in range(len(md))}
                   for _ in range(POINTS)]
            self._points[md] = got
        return got

    def identity_dim(self, md: tuple[int, ...]) -> int:
        """dim I_md: Witt(md) minus the GF(2)-rank of the left-normed
        brackets of all arrangements, evaluated at the random points."""
        md = tuple(md)
        if md in self._dims:
            return self._dims[md]
        images: dict[tuple, int] = {}
        for point in self._at(md):
            brackets: dict[tuple, tuple] = {}
            for word in arrangements(md):
                value = None
                for k in range(1, len(word) + 1):
                    prefix = word[:k]
                    got = brackets.get(prefix)
                    if got is None:
                        letter = point[word[k - 1]]
                        got = letter if k == 1 else commutator(value, letter)
                        brackets[prefix] = got
                    value = got
                bits = images.get(word, 0)
                for entry in value:
                    bits = (bits << FIELD_BITS) | entry
                images[word] = bits
        self._dims[md] = witt_dim(md) - gf2_rank(images.values())
        return self._dims[md]

    def _word_value(self, md: tuple, p: int, word: tuple) -> tuple:
        table = self._words.setdefault(md, [{} for _ in range(POINTS)])[p]
        got = table.get(word)
        if got is None:
            letter = self._at(md)[p][word[-1]]
            got = letter if len(word) == 1 else mat_mul(
                self._word_value(md, p, word[:-1]), letter)
            table[word] = got
        return got

    def vanishes(self, md: tuple[int, ...], words) -> bool:
        """True when the GF(2) sum of the given words, each read as a
        product of matrices, is zero at every random point."""
        md = tuple(md)
        for p in range(POINTS):
            acc = (0, 0, 0, 0)
            for w in words:
                value = self._word_value(md, p, tuple(w))
                acc = (acc[0] ^ value[0], acc[1] ^ value[1],
                       acc[2] ^ value[2], acc[3] ^ value[3])
            if any(acc):
                return False
        return True
