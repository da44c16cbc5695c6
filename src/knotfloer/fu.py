"""Graded free complexes over GF(2)[T] and their tower invariants.

A `FUComplex` is a finitely generated free graded GF(2)[T]-module
(T homogeneous of degree -2) with a differential dropping the grading
by one. Homogeneity pins the T-power of every matrix entry: an entry
from basis element j into basis element i must be T^k with
k = (r_i - r_j + 1) / 2, so the differential is stored as one bitmask
of row indices per column and all T-powers are implied. A `FUComplex`
is a plain value and checks nothing: every one the program builds is
valid by construction (see `a_level_complex`, `reduce_complex` and
`ai0_cone`).

`tower_reduce` computes the homology towers by a column reduction
along the grading filtration, with clearing. A column is moved into
filtration order only when the reduction reaches it, so a column that
clearing zeroes is never moved. Unpaired basis elements are the free
homology generators; their gradings give the tower tops. The test suite
checks it against a Smith-normal-form oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import iter_bits, value_masks


class FUComplex:
    """Free graded GF(2)[T]-complex with implied-power differential."""

    def __init__(self, labels: Sequence[str], gradings: Sequence[int], cols: Sequence[int]):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.gradings: Tuple[int, ...] = tuple(gradings)
        self.cols: Tuple[int, ...] = tuple(cols)

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def grading_masks(self) -> Dict[int, int]:
        """grading -> bitmask of the basis elements in it."""
        return value_masks(self.gradings)


# --- reduction along the grading filtration --------------------------------


@dataclass
class Reduction:
    """Result of the filtration reduction.

    unpaired: (label, grading) of the free homology generators, sorted by
    descending grading, then label; indices: the basis index of each
    (labels of a tensor may repeat); reps: for each, a homogeneous cycle
    in the original basis as a list of (basis index, T-power) pairs (only
    when requested).
    """

    unpaired: List[Tuple[str, int]]
    indices: List[int]
    reps: Optional[List[List[Tuple[int, int]]]] = None

    @property
    def rank(self) -> int:
        return len(self.unpaired)

    def top_grading(self) -> int:
        return self.unpaired[0][1]


def tower_reduce(fu: FUComplex, *, with_reps: bool = False) -> Reduction:
    labels, gradings, cols = fu.labels, fu.gradings, fu.cols
    n = len(cols)
    # Position p holds basis index order[p], in (-grading, label) order:
    # two stable sorts with C-level keys.
    order = sorted(range(n), key=labels.__getitem__)
    order.sort(key=gradings.__getitem__, reverse=True)
    pos = [0] * n
    for p, idx in enumerate(order):
        pos[idx] = p

    # pivot row -> the reduced column with that lowest row (and, for reps,
    # the positions it combines).
    pivots: Dict[int, int] = {}
    combos: Dict[int, int] = {}
    cycles: List[Tuple[int, int]] = []
    for p, idx in enumerate(order):
        if p in pivots:
            # Clearing: the column of a paired row reduces to zero, so it
            # is never moved into position space.
            continue
        mask, vec = cols[idx], 0
        while mask:
            low = mask & -mask
            vec |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        combo = 1 << p if with_reps else 0
        while vec:
            low = vec.bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = vec
                if with_reps:
                    combos[low] = combo
                break
            vec ^= hit
            if with_reps:
                combo ^= combos[low]
        else:
            cycles.append((p, combo))

    # Positions ascend in (-grading, label) order, so the unpaired
    # generators come out sorted.
    free = [(order[p], combo) for p, combo in cycles if p not in pivots]
    indices = [idx for idx, _combo in free]
    unpaired = [(labels[idx], gradings[idx]) for idx in indices]
    reps = None
    if with_reps:
        reps = [
            sorted((order[q], (gradings[order[q]] - gradings[idx]) // 2) for q in iter_bits(combo))
            for idx, combo in free
        ]
    return Reduction(unpaired, indices, reps)
