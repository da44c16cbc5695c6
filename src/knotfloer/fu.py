"""Graded free complexes over GF(2)[T] and their tower invariants.

A `FUComplex` is a finitely generated free graded GF(2)[T]-module
(T homogeneous of degree -2) with a differential dropping the grading
by one. Homogeneity pins the T-power of every matrix entry: an entry
from basis element j into basis element i must be T^k with
k = (r_i - r_j + 1) / 2, so the differential is stored as one list of
row indices per column and all T-powers are implied: gradings and
target lists, no labels. A `FUComplex` is a plain value and checks
nothing: every one the program builds is valid by construction (see
`a_level_complex`, `reduce_complex`, the minimal model of a `Reduction`,
and `cone`).

Grading ties go in a complex's tie order, index order unless it carries
one. Ties pick the pivots, so the basis and tower cycle, never a tower
grading. Levels and quotients break them by label
(`BigradedComplex.label_order`), as a report's level-0 tower cycle
needs; a model's generators already stand in that order.

`tower_reduce` computes the homology towers by a column reduction
along the grading filtration, one stable sort of the tie order, with
clearing (Chen and Kerber, Persistent homology computation with a
twist, 2011): when a reduced column has its pivot in row i, column i
reduces to zero, so it is skipped. A column is moved into filtration
order from its target list (`FUComplex.targets`), only when the
reduction reaches it, with no walk over its bits: on a full-size level
that move, not the XORs, takes the time (as in Bauer, Kerber,
Reininghaus and Wagner, Phat, 2017). A level shares its complex's lists
(`BigradedComplex.targets`), a quotient keeps those it filters, and a
model or a cone builds its own.
Unpaired basis elements are the free homology generators; their
gradings give the tower tops. The same loop gives a basis in which the
complex splits into towers and pairs. The `Reduction` keeps it and
reads off it, on demand, the minimal model, built from the pairs it
keeps, with its inclusion and projection, and the tower cycle and the
cocycle that detects it, which the test suite checks against a
Smith-normal-form oracle. Both are index masks: the cycle is homogeneous
at its tower's top, so its T-powers, like the differential's, are implied
by the gradings.

Clearing skips only the rows that are pivots before the loop reaches
them. In filtration order that happens in a level, at the rows of its
T^0 entries, which come after their columns. In a one-variable quotient
of a complex without unit entries every entry is T^k with k >= 1, so
its row comes before its column, and filtration order clears nothing.
But a quotient has a homological degree, its dropped grading, which d
lowers by exactly one (`FUComplex.degrees`). Its columns are then reduced
class by class in descending degree, and in filtration order within a
class. The columns of degree g have their rows in degree g - 1, and only
they do, so each class reduces as in filtration order, independently of
the others: the pivots, pairs and basis are the same. And every pivot
row of degree g - 1 is found before class g - 1 is reached, so its
column is cleared.

Level 0 of C tensor St*_n and the involutive complex are mapping cones
Cone(f: E -> O) of split complexes, built on their models as
Cone(pi_O f iota_E): `transfer` gives the arrow, `cone` lays out the
blocks. That is exact and needs no check. pi iota = 1 and iota pi is
homotopic to 1, so (x, y) -> (iota_E x, iota_O y + H f iota_E x), with
H a homotopy from iota_O pi_O to 1, is a homotopy equivalence onto
Cone(f). d^2 = 0 on the model cone is the chain-map condition of
pi_O f iota_E, and its T-powers are natural when f's are: a model's
entries are its level's, and pi_O f iota_E composes homogeneous maps
with natural T-powers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, ValidationError
from .linalg import image, iter_bits


class FUComplex:
    """Free graded GF(2)[T]-complex with implied-power differential: gradings and target lists.

    targets[j] lists the row indices of column j, in any order; they are
    the one stored form of the differential, which `tower_reduce` reads.
    degrees, when given, is a homological degree per basis element that d
    lowers by exactly one, as the dropped grading of a one-variable
    quotient is (`complexes.reduce_complex`); `tower_reduce` clears by it.
    ties, when given, lists the indices in the order that breaks grading ties.
    """

    def __init__(
        self,
        gradings: Sequence[int],
        targets: Sequence[Sequence[int]],
        degrees: Optional[Sequence[int]] = None,
        ties: Optional[Sequence[int]] = None,
    ):
        self.gradings: Tuple[int, ...] = tuple(gradings)
        self.targets = targets
        self.degrees: Optional[Tuple[int, ...]] = None if degrees is None else tuple(degrees)
        self.ties = ties

    def __len__(self) -> int:
        return len(self.gradings)


def _moved(mask: int, table: Sequence[int]) -> int:
    """mask with each set bit i moved to bit table[i]: indices to positions by `pos`, back by `order`."""
    out = 0
    for i in iter_bits(mask):
        out |= 1 << table[i]
    return out


# --- reduction along the grading filtration --------------------------------


@dataclass
class Reduction:
    """Result of the filtration reduction: the towers, and the split of `fu` into towers and pairs.

    unpaired: the tower tops, the gradings of the free homology
    generators, descending; indices: the basis index of each, whose basis
    vector is a homogeneous cycle at that grading.

    order[p] is the basis index at position p, by descending grading and
    then the tie order of `fu`, and pos its inverse, and
    vectors[p] the position mask of the basis vector led by position p:
    z_i = R_j / T^k at a pivot row i, where the reduced column R_j = d V_j
    has its lowest row i with power T^k, and the column combination V_p
    at every other position. pairs maps each pivot row i to its column j.

    Each basis vector leads at its own position with coefficient 1, so
    they are unitriangular in position order and form a homogeneous basis
    of L = `fu`. In it d V_j = T^k z_i for each pair and every other
    vector is a cycle, so L is the direct sum of the towers, the pairs
    with k > 0 and the pairs with k = 0, the last contractible
    (Zomorodian-Carlsson, Computing persistent homology, 2005). The
    minimal model M keeps the towers and the pairs with k > 0: its
    differential is one entry T^k per kept pair, so M has the towers and
    the torsion of L, and its T = 0 differential vanishes. M is built
    from the kept pairs alone, its generators at their positions and the
    towers', in position order.

    `inc` is the inclusion iota: M -> L, one index mask of L per generator
    of M; `project` is the projection pi: L -> M along the contractible
    pairs. Both are chain maps, pi iota = 1, and iota pi is homotopic to
    1. Both are homogeneous, so their T-powers stay implied by the
    gradings. The model and iota are built on first read.

    `drop_basis` keeps only the towers (unpaired, indices), the model
    and iota, and drops the basis, n vectors of up to n bits and
    the bulk of a reduction; `project`, `cocycle` and `cycle` raise
    `ConsistencyError` from then on.
    """

    fu: Optional[FUComplex]
    unpaired: List[int]
    indices: List[int]
    order: List[int]
    pos: List[int]
    vectors: List[int]
    pairs: Dict[int, int]

    @property
    def rank(self) -> int:
        return len(self.unpaired)

    def top_grading(self) -> int:
        """The top of the one tower; raises `ValidationError` unless there is exactly one."""
        if self.rank != 1:
            raise ValidationError(f"d-invariant undefined: localized homology has rank {self.rank}")
        return self.unpaired[0]

    def _basis(self) -> List[int]:
        if self.vectors is None:
            raise ConsistencyError("the basis of this reduction was read after it was dropped")
        return self.vectors

    def drop_basis(self) -> None:
        """Build the model and iota, then drop `fu`, the basis and the tables read off it."""
        self.model, self.inc  # both cached on first read
        self.fu = self.order = self.pos = self.vectors = self.pairs = None
        for key in ("_torsion", "_kept", "_coord"):
            self.__dict__.pop(key, None)

    def reflected(self, shift: int) -> "Reduction":
        """The split of `fu` under sigma: i -> n - 1 - i, ties too, raised by shift.

        Precondition: sigma maps fu's target lists onto themselves, as it
        does on a level of a reversal-symmetric complex, whose lists are
        the complex's. Then the reflected complex has the same columns at
        the same positions, so `tower_reduce` of it finds the same pairs,
        basis vectors and model positions, which the two splits share, at
        the reflected indices, with every tower raised by shift.
        """
        fu = self.fu
        n = len(fu)
        reflected = FUComplex(
            [g + shift for g in reversed(fu.gradings)], fu.targets, ties=[n - 1 - i for i in fu.ties]
        )
        out = Reduction(
            reflected,
            [g + shift for g in self.unpaired],
            [n - 1 - i for i in self.indices],
            [n - 1 - i for i in self.order],
            self.pos[::-1],
            self.vectors,
            self.pairs,
        )
        out._torsion, out._kept, out._coord = self._torsion, self._kept, self._coord
        return out

    def cocycle(self) -> int:
        """The coordinate functional of the first tower vector at T = 1, as an index mask.

        It is 1 on that vector and 0 on every other basis vector. A basis
        vector meets only positions at or before its own, so the
        functional is found in one pass: start at the tower's position t,
        and for each later position q add q when the functional so far is
        odd on vectors[q]. The image of d lies in the span of the z_i,
        none of them the tower vector, so with T = 1 it is a cocycle:
        even against every column, odd on the tower vector (`cycle`).
        """
        vectors = self._basis()
        t = self.pos[self.indices[0]]
        phi = 1 << t
        for q in range(t + 1, len(vectors)):
            if (phi & vectors[q]).bit_count() & 1:
                phi |= 1 << q
        return _moved(phi, self.order)

    def cycle(self) -> int:
        """The first tower vector at T = 1, as an index mask: a cycle at its tower's top, on which `cocycle` is odd."""
        return _moved(self._basis()[self.pos[self.indices[0]]], self.order)

    @functools.cached_property
    def _torsion(self) -> List[Tuple[int, int]]:
        """The (row, column) positions of the pairs M keeps, those with k > 0."""
        order, gradings = self.order, self.fu.gradings
        return [(row, col) for row, col in self.pairs.items() if gradings[order[row]] != gradings[order[col]] - 1]

    @functools.cached_property
    def _kept(self) -> List[int]:
        """The positions of M, ascending: the towers' and those of the kept pairs."""
        return sorted([self.pos[i] for i in self.indices] + [p for pair in self._torsion for p in pair])

    @functools.cached_property
    def _coord(self) -> List[int]:
        """The generator of M at each position, -1 where none is."""
        coord = [-1] * len(self.order)
        for m, p in enumerate(self._kept):
            coord[p] = m
        return coord

    @functools.cached_property
    def model(self) -> FUComplex:
        gradings, order, kept, coord = self.fu.gradings, self.order, self._kept, self._coord
        targets = [[] for _ in kept]
        for row, col in self._torsion:
            targets[coord[col]].append(coord[row])
        return FUComplex([gradings[order[p]] for p in kept], targets)

    @functools.cached_property
    def inc(self) -> List[int]:
        return [_moved(self.vectors[p], self.order) for p in self._kept]

    def project(self, mask: int) -> int:
        """pi of a homogeneous vector of L, given as an index mask: a generator mask of M.

        Reduces the vector against the leading positions of the basis, one
        XOR per basis vector it contains, and keeps the coordinates of the
        kept ones. Raises `ConsistencyError` once the basis is dropped.
        """
        vectors, coord = self._basis(), self._coord
        vec, out = _moved(mask, self.pos), 0
        while vec:
            p = vec.bit_length() - 1
            if coord[p] >= 0:
                out |= 1 << coord[p]
            vec ^= vectors[p]
        return out


def tower_reduce(fu: FUComplex) -> Reduction:
    gradings, targets = fu.gradings, fu.targets
    n = len(gradings)
    # Position p holds basis index order[p]: one stable sort of the tie order by descending grading.
    order = sorted(range(n) if fu.ties is None else fu.ties, key=gradings.__getitem__, reverse=True)
    pos = [0] * n
    for p, idx in enumerate(order):
        pos[idx] = p
    # The columns are reduced in position order, or with degrees, class by
    # class in descending degree and in position order within a class.
    sweep = order if fu.degrees is None else sorted(order, key=fu.degrees.__getitem__, reverse=True)

    # pivot row -> its column. The basis vector of a pivot row is the
    # reduced column, that of a column the positions it combines.
    pairs: Dict[int, int] = {}
    vectors = [0] * n
    cycles: List[int] = []
    for idx in sweep:
        p = pos[idx]
        if p in pairs:
            # Clearing: the column of a paired row reduces to zero, so it
            # is never moved into position space.
            continue
        vec, combo = 0, 1 << p  # vec: the column moved into position space
        for row in targets[idx]:
            vec |= 1 << pos[row]
        while vec:
            low = vec.bit_length() - 1
            col = pairs.get(low)
            if col is None:
                pairs[low] = p
                vectors[low] = vec
                break
            vec ^= vectors[low]
            combo ^= vectors[col]
        else:
            cycles.append(p)
        vectors[p] = combo

    free = sorted(p for p in cycles if p not in pairs)
    indices = [order[p] for p in free]
    unpaired = [gradings[idx] for idx in indices]
    return Reduction(fu, unpaired, indices, order, pos, vectors, pairs)


# --- cones of models ---------------------------------------------------------


def transfer(source: Reduction, target: Reduction, cols: Optional[Sequence[int]] = None) -> List[int]:
    """pi_target f iota_source, as masks of the target's model; f has these columns, or is the identity."""
    return [target.project(inc if cols is None else image(cols, inc)) for inc in source.inc]


def cone(blocks: Sequence[Tuple[FUComplex, int]], arrows: Sequence[Tuple[int, int, Sequence[int]]]) -> FUComplex:
    """The complex of (block, grading shift) pairs side by side, ties by index.

    An arrow (a, b, masks) adds masks[m], a mask of block b, to the column
    of generator m of block a, appended to its list: a sum, since no
    target is listed twice when a != b and each (a, b) pair occurs once,
    as in both callers (a Y_n cone and the involutive cone).
    """
    offsets, gradings, targets = [0], [], []
    for fu, shift in blocks:
        offset = offsets[-1]
        gradings.extend(r + shift for r in fu.gradings)
        targets.extend([j + offset for j in row] for row in fu.targets)
        offsets.append(len(targets))
    for a, b, masks in arrows:
        for m, mask in enumerate(masks):
            targets[offsets[a] + m].extend(j + offsets[b] for j in iter_bits(mask))
    return FUComplex(gradings, targets)
