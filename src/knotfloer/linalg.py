"""Bit-packed exact linear algebra over GF(2).

A vector is a Python int (bit i = coordinate i); a matrix is a list of
column ints. The pivot is always the highest set bit and input order is
preserved, so every routine is deterministic.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


def iter_bits(mask: int) -> List[int]:
    """Indices of the set bits of mask, in ascending order.

    The one walk over a mask's bits. It splits off the top bit first and
    reverses: on sparse masks that is faster than splitting off the
    lowest bit.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def flag_mask(flags: Iterable[object]) -> int:
    """The mask with bit j set where the j-th flag is true.

    The one way to build an index mask: one binary string, read in time
    linear in the number of flags, where a sum of 1 << j is quadratic.
    """
    return int("".join(["1" if f else "0" for f in flags])[::-1] or "0", 2)


def image(cols: Sequence[int], mask: int) -> int:
    """XOR of the columns that mask selects: the matrix times the vector mask.

    Applies a map to a vector that is not one of its columns, as a
    composite does. The d^2 and d f = f d checks do not call it: they XOR
    over the lists of `ChainMap.targets`, which walk each column once for
    every reader.
    """
    acc = 0
    for j in iter_bits(mask):
        acc ^= cols[j]
    return acc


def spread(mask: int, width: int) -> int:
    """mask with each set bit k moved to bit k * width."""
    out = 0
    for k in iter_bits(mask):
        out |= 1 << (k * width)
    return out


def kron(left: Sequence[int], right: Sequence[int]) -> List[int]:
    """Kronecker product of square matrices: column and row (i, j) at i * len(right) + j.

    The shifted copies of a right column fill disjoint blocks of bits, so
    their XOR is an integer product.
    """
    spreads = [spread(lcol, len(right)) for lcol in left]
    return [rcol * s for s in spreads for rcol in right]


def transpose(targets: Sequence[Sequence[int]], nrows: int) -> Tuple[List[int], List[List[int]]]:
    """(columns, target lists) of the transpose of an nrows-row matrix given by its target lists.

    Reads each list once and walks no bits; the lists of the transpose
    come out in ascending order.
    """
    cols, lists = [0] * nrows, [[] for _ in range(nrows)]
    for j, row in enumerate(targets):
        bit = 1 << j
        for i in row:
            cols[i] |= bit
            lists[i].append(j)
    return cols, lists


class LinearSystem:
    """Affine system over GF(2), assembled equation by equation.

    Variables are allocated through :meth:`new_vars`; an equation is a
    (coefficient bitmask, rhs bit) pair. :meth:`solve` returns one solution
    as a bitmask (free variables zero) or None. Only the test oracles
    assemble such systems.
    """

    __slots__ = ("nvars", "rows")

    def __init__(self):
        self.nvars = 0
        self.rows: List[Tuple[int, int]] = []

    def new_vars(self, n: int) -> range:
        out = range(self.nvars, self.nvars + n)
        self.nvars += n
        return out

    def add_equation(self, mask: int, rhs: int) -> None:
        self.rows.append((mask, rhs & 1))

    def solve(self) -> Optional[int]:
        pivots: dict = {}
        for mask, rhs in self.rows:
            while mask:
                p = mask.bit_length() - 1
                hit = pivots.get(p)
                if hit is None:
                    break
                mask ^= hit[0]
                rhs ^= hit[1]
            if mask == 0:
                if rhs:
                    return None
                continue
            pivots[mask.bit_length() - 1] = (mask, rhs)
        # Back-substitute in ascending pivot order; free variables stay 0,
        # and bit p of the solution is still 0 when its row is read.
        solution = 0
        for p in sorted(pivots):
            mask, rhs = pivots[p]
            if rhs ^ ((mask & solution).bit_count() & 1):
                solution |= 1 << p
        return solution
