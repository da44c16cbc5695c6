"""Knot expressions: parsing and printing.

Grammar (whitespace ignored):

    expr := term ('#' term)*
    term := '-'? atom
    atom := 'T(' int ',' int ')' | name | '@' path
    int  := ASCII digits 0-9, one or more

'-' mirrors a single atom. `involutive.realize_with_iota` realizes
connected sum as the tensor product, mirroring as the dual complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Tuple, Union

from .errors import ParseError

# The largest (p - 1)(q - 1) of a torus knot the program builds (`TorusKnot.problem`).
MAX_TORUS_DEGREE = 30_000


@dataclass(frozen=True)
class TorusKnot:
    p: int
    q: int

    @property
    def problem(self) -> Optional[str]:
        """Why (p, q) names no torus knot here, or None: p, q >= 2, coprime, and not too large.

        (p - 1)(q - 1) is the degree of the Alexander polynomial, and the
        staircase has at most one generator more. The exponent table, the
        signature lattice and the hull pass are linear in it, and the
        staircase's column masks take about n^2 / 16 bytes for n
        generators. So the degree may be at most `MAX_TORUS_DEGREE`, where
        the masks take about 56 MB, and it is checked here, from p and q
        alone, before anything is allocated.
        """
        if self.p < 2 or self.q < 2:
            return f"torus parameters must be >= 2, got ({self.p},{self.q})"
        if gcd(self.p, self.q) != 1:
            return f"torus parameters ({self.p},{self.q}) are not coprime"
        if (self.p - 1) * (self.q - 1) > MAX_TORUS_DEGREE:
            return f"torus parameters ({self.p},{self.q}) are too large: (p-1)(q-1) must be at most {MAX_TORUS_DEGREE}"
        return None


@dataclass(frozen=True)
class Mirror:
    child: "KnotExpr"


@dataclass(frozen=True)
class Sum:
    children: Tuple["KnotExpr", ...]


@dataclass(frozen=True)
class Named:
    name: str


@dataclass(frozen=True)
class FileRef:
    path: str


KnotExpr = Union[TorusKnot, Mirror, Sum, Named, FileRef]


def expr_to_string(e: KnotExpr) -> str:
    if isinstance(e, TorusKnot):
        return f"T({e.p},{e.q})"
    if isinstance(e, Mirror):
        return "-" + expr_to_string(e.child)
    if isinstance(e, Sum):
        return "#".join(expr_to_string(ch) for ch in e.children)
    if isinstance(e, Named):
        return e.name
    if isinstance(e, FileRef):
        return "@" + e.path
    raise TypeError(f"not a knot expression: {e!r}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise self.error("integer too long") from None

    def parse_atom(self) -> KnotExpr:
        ch = self.peek()
        if ch == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and not self.text[self.pos].isspace() and self.text[self.pos] != "#":
                self.pos += 1
            if self.pos == start:
                raise self.error("expected a file path after '@'")
            return FileRef(self.text[start : self.pos])
        if ch == "T" and self._lookahead_torus():
            self.pos += 1
            self.expect("(")
            p = self.parse_int()
            self.expect(",")
            q = self.parse_int()
            close_at = self.pos
            self.expect(")")
            knot = TorusKnot(p, q)
            if knot.problem:
                self.pos = close_at
                raise self.error(knot.problem)
            return knot
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return Named(self.text[start : self.pos])
        raise self.error("expected a torus knot, a name, or '@path'")

    def _lookahead_torus(self) -> bool:
        save = self.pos
        self.pos += 1
        ok = self.peek() == "("
        self.pos = save
        return ok

    def parse_term(self) -> KnotExpr:
        if self.peek() == "-":
            self.pos += 1
            return Mirror(self.parse_atom())
        return self.parse_atom()

    def parse_expr(self) -> KnotExpr:
        terms = [self.parse_term()]
        while self.peek() == "#":
            self.pos += 1
            terms.append(self.parse_term())
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))


def parse_knot_expr(text: str) -> KnotExpr:
    return _Parser(text).parse_expr()


def torus_terms(e: KnotExpr) -> Optional[List[Tuple[int, int, int]]]:
    """The (sign, p, q) of each summand of a torus-knot sum, in order.

    sign is -1 for a mirrored summand. Nested sums and mirrors, which the
    API can build though the parser does not, are flattened. None when
    the expression has an atom other than a torus knot.
    """
    if isinstance(e, TorusKnot):
        return [(1, e.p, e.q)]
    if isinstance(e, Mirror):
        inner = torus_terms(e.child)
        return None if inner is None else [(-sign, p, q) for sign, p, q in inner]
    if isinstance(e, Sum):
        out: List[Tuple[int, int, int]] = []
        for child in e.children:
            inner = torus_terms(child)
            if inner is None:
                return None
            out.extend(inner)
        return out
    return None
