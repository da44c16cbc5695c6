"""Gauss-Jordan subspace basis over GF(2), for the test oracles.

Vectors are bitmask ints, as in `knotfloer.linalg`.
"""

from typing import Iterable


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
