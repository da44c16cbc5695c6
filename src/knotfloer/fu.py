"""Graded free complexes over GF(2)[T] and their tower invariants.

A `FUComplex` is a finitely generated free graded GF(2)[T]-module
(T homogeneous of degree -2) with a differential dropping the grading
by one. Homogeneity pins the T-power of every matrix entry: an entry
from basis element j into basis element i must be T^k with
k = (r_i - r_j + 1) / 2, so the differential is stored as one bitmask
of row indices per column and all T-powers are implied.

`tower_reduce` computes the homology towers by a column reduction
along the grading filtration, with clearing. Unpaired basis elements are
the free homology generators; their gradings give the tower tops. The
test suite checks it against a Smith-normal-form oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .linalg import iter_bits


class FUComplex:
    """Free graded GF(2)[T]-complex with implied-power differential."""

    def __init__(self, labels: Sequence[str], gradings: Sequence[int], cols: Sequence[int]):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.gradings: Tuple[int, ...] = tuple(gradings)
        self.cols: Tuple[int, ...] = tuple(cols)
        if not (len(self.labels) == len(self.gradings) == len(self.cols)):
            raise ValidationError("basis, grading, and column lists differ in length")

    def __len__(self) -> int:
        return len(self.labels)

    def validate(self) -> List[str]:
        out: List[str] = []
        for j, col in enumerate(self.cols):
            for i in iter_bits(col):
                k2 = self.gradings[i] - self.gradings[j] + 1
                if k2 % 2 or k2 < 0:
                    out.append(
                        f"entry {self.labels[j]} -> {self.labels[i]}: grading gap "
                        f"{self.gradings[j]} -> {self.gradings[i]} admits no T-power"
                    )
        # d^2 = 0; implied powers agree per (source, final) pair, so the
        # composite reduces to XOR of child columns.
        for j, col in enumerate(self.cols):
            acc = 0
            for q in iter_bits(col):
                acc ^= self.cols[q]
            if acc:
                out.append(f"d^2 != 0 on basis element {self.labels[j]}")
        return out

    def require_valid(self) -> "FUComplex":
        violations = self.validate()
        if violations:
            raise ValidationError(violations)
        return self


# --- reduction along the grading filtration --------------------------------


@dataclass
class Reduction:
    """Result of the filtration reduction.

    unpaired: (label, grading) of the free homology generators, sorted by
    descending grading; reps: for each unpaired generator, a homogeneous
    cycle in the original basis as a list of (basis index, T-power) pairs
    (only when requested).
    """

    unpaired: List[Tuple[str, int]]
    reps: Optional[List[List[Tuple[int, int]]]] = None

    @property
    def rank(self) -> int:
        return len(self.unpaired)

    def top_grading(self) -> int:
        return self.unpaired[0][1]


def tower_reduce(fu: FUComplex, *, with_reps: bool = False) -> Reduction:
    n = len(fu)
    order = sorted(range(n), key=lambda i: (-fu.gradings[i], fu.labels[i]))
    pos_of = {idx: p for p, idx in enumerate(order)}

    def to_positions(mask: int) -> int:
        out = 0
        for q in iter_bits(mask):
            out |= 1 << pos_of[q]
        return out

    cols = [to_positions(fu.cols[idx]) for idx in order]
    combos = [1 << p for p in range(n)] if with_reps else None

    pivot_of: Dict[int, int] = {}
    killed_rows = set()
    reduced = [0] * n
    for p in range(n):
        if p in killed_rows:
            # Clearing: the column of a paired row reduces to zero.
            reduced[p] = 0
            if combos is not None:
                combos[p] = 0  # representative not needed for dead rows
            continue
        vec = cols[p]
        combo = combos[p] if combos is not None else 0
        while vec:
            low = vec.bit_length() - 1
            hit = pivot_of.get(low)
            if hit is None:
                break
            vec ^= reduced[hit]
            if combos is not None:
                combo ^= combos[hit]
        reduced[p] = vec
        if combos is not None:
            combos[p] = combo
        if vec:
            low = vec.bit_length() - 1
            pivot_of[low] = p
            killed_rows.add(low)

    unpaired = []
    reps = [] if with_reps else None
    paired_cols = set(pivot_of.values())
    for p in range(n):
        if p in killed_rows or p in paired_cols or reduced[p] != 0:
            continue
        idx = order[p]
        unpaired.append((fu.labels[idx], fu.gradings[idx]))
        if reps is not None:
            rep = []
            for q in iter_bits(combos[p]):
                src = order[q]
                power = (fu.gradings[src] - fu.gradings[idx]) // 2
                rep.append((src, power))
            rep.sort()
            reps.append((fu.gradings[idx], rep))
    unpaired_sorted = sorted(unpaired, key=lambda t: (-t[1], t[0]))
    if reps is not None:
        reps = [r for _g, r in sorted(reps, key=lambda t: -t[0])]
    return Reduction(unpaired_sorted, reps)
