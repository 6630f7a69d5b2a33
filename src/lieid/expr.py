"""Textual syntax for Lie expressions.

Grammar::

    expr   := term { "+" term }
    term   := factor { factor }
    factor := VAR | "(" term ")"
    VAR    := "x" DIGITS

Juxtaposition of two or more factors denotes the left-normalized bracket
product; "0" alone denotes the zero polynomial.  There is no unary minus:
over GF(2) it would be redundant.
"""

from __future__ import annotations

from .lie_core import LieMonomial, LiePoly, leaf, left_norm

__all__ = ["ParseError", "parse", "format_poly", "format_monomial", "MAX_NESTING"]

# Deeper parentheses are rejected rather than parsed: the parser and the
# tree walks downstream recurse once per level.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error with the 0-based character offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_VAR, _PLUS, _LPAREN, _RPAREN, _ZERO = "var", "+", "(", ")", "0"


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Return (kind, value, position) triples; value is the index for VAR."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+()":
            kind = {"+": _PLUS, "(": _LPAREN, ")": _RPAREN}[ch]
            tokens.append((kind, 0, i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected digits after 'x'", i + 1)
            index = int(text[i + 1 : j])
            if index == 0:
                raise ParseError("variable index 0 is not allowed", i)
            tokens.append((_VAR, index, i))
            i = j
            continue
        if ch == "0":
            tokens.append((_ZERO, 0, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, 0, len(self.text))

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> LiePoly:
        if len(self.tokens) == 1 and self.tokens[0][0] == _ZERO:
            return LiePoly.ZERO
        poly = LiePoly.of(self.term())
        while True:
            kind, _, pos = self.peek()
            if kind is None:
                return poly
            if kind == _PLUS:
                self.advance()
                poly = poly + LiePoly.of(self.term())
                continue
            raise ParseError("expected '+' or end of input", pos)

    def term(self) -> LieMonomial:
        factors = []
        while True:
            kind, value, pos = self.peek()
            if kind == _VAR:
                self.advance()
                factors.append(leaf(value))
            elif kind == _LPAREN:
                if self.depth == MAX_NESTING:
                    raise ParseError(
                        f"parentheses nested deeper than {MAX_NESTING} levels",
                        pos)
                self.advance()
                self.depth += 1
                inner = self.term()
                self.depth -= 1
                kind2, _, pos2 = self.advance()
                if kind2 != _RPAREN:
                    raise ParseError("expected ')'", pos2)
                factors.append(inner)
            else:
                break
        if not factors:
            _, _, pos = self.peek()
            raise ParseError("empty product", pos)
        return left_norm(factors)


def parse(text: str) -> LiePoly:
    """Parse an expression; terms are summed with GF(2) cancellation."""
    return _Parser(text).parse()


def _format_factor(m: LieMonomial) -> str:
    if m.is_leaf:
        return f"x{m.index}"
    return "(" + format_monomial(m) + ")"


def format_monomial(m: LieMonomial) -> str:
    """Print a monomial with left-normalized runs flattened."""
    return " ".join(_format_factor(f) for f in m.spine())


def format_poly(p: LiePoly) -> str:
    """Deterministic text form; terms in the canonical monomial order."""
    if p.is_formal_zero():
        return "0"
    return " + ".join(format_monomial(m) for m in p.sorted_monomials())
