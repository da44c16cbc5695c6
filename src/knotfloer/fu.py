"""Graded free complexes over GF(2)[T] and their tower invariants.

A `FUComplex` is a finitely generated free graded GF(2)[T]-module
(T homogeneous of degree -2) with a differential dropping the grading
by one. Homogeneity pins the T-power of every matrix entry: an entry
from basis element j into basis element i must be T^k with
k = (r_i - r_j + 1) / 2, so the differential is stored as one bitmask
of row indices per column and all T-powers are implied. A `FUComplex`
is a plain value and checks nothing: every one the program builds is
valid by construction (see `a_level_complex`, `reduce_complex`, `Split`,
the model cones of `invariants` and `ai0_cone`).

`tower_reduce` computes the homology towers by a column reduction
along the grading filtration, with clearing. A column is moved into
filtration order only when the reduction reaches it, so a column that
clearing zeroes is never moved. Unpaired basis elements are the free
homology generators; their gradings give the tower tops. With reps the
same loop also gives a basis in which the complex splits into towers and
pairs, and `Split` reads the minimal model off it. The
test suite checks both against a Smith-normal-form oracle.
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

    With reps the reduction also keeps the basis it found, for `Split`.
    order[p] is the basis index at position p, and vectors[p] the position
    mask of the basis vector led by position p: z_i = R_j / T^k at a pivot
    row i, where the reduced column R_j = d V_j has its lowest row i with
    power T^k, and the column combination V_p at every other position.
    pairs maps each pivot row i to its column j.
    """

    unpaired: List[Tuple[str, int]]
    indices: List[int]
    reps: Optional[List[List[Tuple[int, int]]]] = None
    order: Optional[List[int]] = None
    vectors: Optional[List[int]] = None
    pairs: Optional[Dict[int, int]] = None

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
    # the positions it combines and its own position).
    pivots: Dict[int, int] = {}
    combos: Dict[int, int] = {}
    pairs: Dict[int, int] = {}
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
                    pairs[low] = p
                break
            vec ^= hit
            if with_reps:
                combo ^= combos[low]
        else:
            cycles.append((p, combo))

    # Positions ascend in (-grading, label) order, so the unpaired
    # generators come out sorted.
    free = [p for p, _combo in cycles if p not in pivots]
    indices = [order[p] for p in free]
    unpaired = [(labels[idx], gradings[idx]) for idx in indices]
    if not with_reps:
        return Reduction(unpaired, indices)
    vectors = [0] * n
    for p, combo in cycles:
        vectors[p] = combo
    for row, col in pairs.items():
        vectors[row] = pivots[row]
        vectors[col] = combos[row]
    reps = [
        sorted((order[q], (gradings[order[q]] - gradings[order[p]]) // 2) for q in iter_bits(vectors[p]))
        for p in free
    ]
    return Reduction(unpaired, indices, reps, order, vectors, pairs)


# --- the split into towers and pairs ------------------------------------------


class Split:
    """A complex L as towers plus pairs, read off one `tower_reduce` with reps.

    Each basis vector of the reduction (`Reduction.vectors`) leads at its
    own position with coefficient 1, so they are unitriangular in position
    order and form a homogeneous basis of L. In it d V_j = T^k z_i for each
    pair and every other vector is a cycle, so L is the direct sum of the
    towers, the pairs with k > 0 and the pairs with k = 0, the last
    contractible (Zomorodian-Carlsson, Computing persistent homology,
    2005). The minimal model M keeps the towers and the pairs with k > 0:
    its differential is one entry T^k per kept pair, so M has the towers
    and the torsion of L, and its T = 0 differential vanishes.

    `fu` is L and `reduction` that reduction. `inc` is the inclusion
    iota: M -> L, one index mask of L per generator of M; `project` is the
    projection pi: L -> M along the contractible pairs. Both are chain
    maps, pi iota = 1, and iota pi is homotopic to 1. Both are homogeneous,
    so their T-powers stay implied by the gradings.
    """

    def __init__(self, fu: FUComplex):
        red = tower_reduce(fu, with_reps=True)
        order, vectors, gradings = red.order, red.vectors, fu.gradings
        n = len(order)
        contractible = set()
        for row, col in red.pairs.items():
            if gradings[order[row]] == gradings[order[col]] - 1:  # k = 0
                contractible.update((row, col))
        kept = [p for p in range(n) if p not in contractible]
        coord = [-1] * n
        for m, p in enumerate(kept):
            coord[p] = m
        cols = [0] * len(kept)
        for row, col in red.pairs.items():
            if row not in contractible:
                cols[coord[col]] = 1 << coord[row]
        self.fu = fu
        self.reduction = red
        self.model = FUComplex([fu.labels[order[p]] for p in kept], [gradings[order[p]] for p in kept], cols)
        self.inc = [sum(1 << order[q] for q in iter_bits(vectors[p])) for p in kept]
        self._pos = [0] * n
        for p, idx in enumerate(order):
            self._pos[idx] = p
        self._vectors = vectors
        self._coord = coord

    def project(self, mask: int) -> int:
        """pi of a homogeneous vector of L, given as an index mask: a generator mask of M.

        Reduces the vector against the leading positions of the basis, one
        XOR per basis vector it contains, and keeps the coordinates of the
        kept ones.
        """
        pos, vectors, coord = self._pos, self._vectors, self._coord
        vec = out = 0
        while mask:
            low = mask & -mask
            vec |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        while vec:
            p = vec.bit_length() - 1
            if coord[p] >= 0:
                out |= 1 << coord[p]
            vec ^= vectors[p]
        return out
