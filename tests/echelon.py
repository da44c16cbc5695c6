"""GF(2) elimination for the test oracles: a Gauss-Jordan subspace basis
and a column echelon that solves systems and collects kernels.

Vectors are bitmask ints, as in `knotfloer.linalg`. `set_bits` is the
oracles' walk over a mask's bits, so they share no walk with the
program's `iter_bits`, which they check.
"""

from typing import Iterable, List, Optional


def set_bits(mask: int) -> List[int]:
    """Indices of the set bits of mask, in ascending order, read off its binary digits."""
    return [j for j, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


class Echelon:
    """Fully reduced (Gauss-Jordan) basis of a subspace of GF(2)^n.

    Every stored row contains exactly one pivot bit, its own, so
    :meth:`reduce` is the canonical linear projection onto a complement
    of the subspace: reduce(a ^ b) == reduce(a) ^ reduce(b). The test
    oracles build quotient functionals from per-basis-vector reductions,
    which is only sound with this linearity.
    """

    __slots__ = ("pivots", "pivot_mask")

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: dict = {}
        self.pivot_mask = 0
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        pivots = self.pivots
        while True:
            hit = v & self.pivot_mask
            if not hit:
                return v
            v ^= pivots[hit.bit_length() - 1]

    def add(self, v: int) -> bool:
        """Insert v; returns True when the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        p = v.bit_length() - 1
        bit = 1 << p
        for q, row in self.pivots.items():
            if row & bit:
                self.pivots[q] = row ^ v
        self.pivots[p] = v
        self.pivot_mask |= bit
        return True

    def copy(self) -> "Echelon":
        """Independent copy; cheaper than re-adding the reduced rows."""
        out = Echelon()
        out.pivots = dict(self.pivots)
        out.pivot_mask = self.pivot_mask
        return out

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self.pivots)


class ColumnSolver:
    """Echelon of a column family that remembers combinations.

    Solves ``sum_j x_j col_j = b`` and collects a kernel basis (the
    combinations reducing to zero). Combinations are bitmasks over the
    column indices in insertion order.
    """

    __slots__ = ("pivots", "kernel", "ncols")

    def __init__(self, cols: Iterable[int] = ()):
        self.pivots: dict = {}
        self.kernel: List[int] = []
        self.ncols = 0
        for c in cols:
            self.append(c)

    def append(self, col: int) -> None:
        combo = 1 << self.ncols
        self.ncols += 1
        vec = col
        while vec:
            p = vec.bit_length() - 1
            hit = self.pivots.get(p)
            if hit is None:
                self.pivots[p] = (vec, combo)
                return
            vec ^= hit[0]
            combo ^= hit[1]
        self.kernel.append(combo)

    def solve(self, b: int) -> Optional[int]:
        """Combination hitting b, or None; free choices are left at zero."""
        combo = 0
        while b:
            p = b.bit_length() - 1
            hit = self.pivots.get(p)
            if hit is None:
                return None
            b ^= hit[0]
            combo ^= hit[1]
        return combo

    @property
    def rank(self) -> int:
        return len(self.pivots)
