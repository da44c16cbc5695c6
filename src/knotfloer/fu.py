"""Graded free complexes over GF(2)[T] and their tower invariants.

A `FUComplex` is a finitely generated free graded GF(2)[T]-module
(T homogeneous of degree -2) with a differential dropping the grading
by one. Homogeneity pins the T-power of every matrix entry: an entry
from basis element j into basis element i must be T^k with
k = (r_i - r_j + 1) / 2, so the differential is stored as one bitmask
of row indices per column and all T-powers are implied.

Two independent routes compute the homology towers:

* `tower_reduce` - a column reduction along the grading filtration,
  with clearing. Unpaired basis elements are the free homology
  generators; their gradings give the tower tops.
* `oracle_rank_and_top` - Smith normal form over GF(2)[T]: kernel basis,
  image expressed in the kernel, invariant factors, and a rank test for
  the non-torsion homogeneous component. Small inputs only; this is the
  oracle the reduction is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, ValidationError
from .linalg import iter_bits
from .rings import t_exps, t_mul
from .snf import smith_normal_form, solve_in_column_span, t_mat_rank


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

    def power(self, row: int, col: int) -> int:
        """Implied T-power of the (row, col) entry."""
        k2 = self.gradings[row] - self.gradings[col] + 1
        if k2 % 2 or k2 < 0:
            raise ValidationError(
                f"entry {self.labels[col]} -> {self.labels[row]} has no legal T-power"
            )
        return k2 // 2

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

    # -- grading slices -------------------------------------------------

    def slice_basis(self, rho: int) -> List[Tuple[int, int]]:
        """Elements T^k e_i of grading rho, as (index, power) pairs."""
        out = []
        for i, r in enumerate(self.gradings):
            k2 = r - rho
            if k2 >= 0 and k2 % 2 == 0:
                out.append((i, k2 // 2))
        return out

    def boundary_columns(self, src_slice: List[Tuple[int, int]], tgt_slice: List[Tuple[int, int]]):
        """Boundary matrix between adjacent slices, columns as bitmasks."""
        pos = {pair: n for n, pair in enumerate(tgt_slice)}
        cols = []
        for i, k in src_slice:
            mask = 0
            for m in iter_bits(self.cols[i]):
                mask |= 1 << pos[(m, k + self.power(m, i))]
            cols.append(mask)
        return cols


# --- reduction along the grading filtration --------------------------------


@dataclass
class Reduction:
    """Result of the filtration reduction.

    unpaired: (label, grading) of the free homology generators, sorted by
    descending grading; pairs: (birth grading, death grading) of the torsion
    summands; reps: for each unpaired generator, a homogeneous cycle in the
    original basis as a list of (basis index, T-power) pairs (only when
    requested).
    """

    unpaired: List[Tuple[str, int]]
    pairs: List[Tuple[int, int]]
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
    pairs = []
    for low, p in sorted(pivot_of.items()):
        pairs.append((fu.gradings[order[low]], fu.gradings[order[p]]))
    if reps is not None:
        reps = [r for _g, r in sorted(reps, key=lambda t: -t[0])]
    return Reduction(unpaired_sorted, pairs, reps)


# --- Smith-form oracle ------------------------------------------------------


def _t_matrix(fu: FUComplex) -> List[List[int]]:
    n = len(fu)
    mat = [[0] * n for _ in range(n)]
    for j, col in enumerate(fu.cols):
        for i in iter_bits(col):
            mat[i][j] = 1 << fu.power(i, j)
    return mat


def oracle_rank_and_top(fu: FUComplex) -> Tuple[int, Optional[int]]:
    """(free rank of homology, top tower grading) via Smith normal form.

    The top grading is only reported for rank one, which is the case the
    invariants use. Everything here is GF(2)[T]-matrix algebra: kernel from
    the Smith form of the differential, image expressed in the kernel,
    invariant factors of the quotient, and a fraction-field rank test to
    locate the non-torsion homogeneous component of the free generator.
    """
    n = len(fu)
    if n == 0:
        return 0, None
    d = _t_matrix(fu)
    factors, _u, v = smith_normal_form(d)
    rank_d = len(factors)
    # Kernel basis: columns of V past the rank.
    ker: List[List[int]] = []
    for j in range(rank_d, n):
        ker.append([v[i][j] for i in range(n)])
    kdim = len(ker)
    free_rank = kdim - rank_d  # dim ker - dim im
    if free_rank < 0:
        raise ConsistencyError("oracle: negative homology rank")
    if free_rank == 0:
        return 0, None
    # Express the image in the kernel basis.
    kmat = [[ker[c][r] for c in range(kdim)] for r in range(n)]
    im_in_ker: List[List[int]] = [[0] * n for _ in range(kdim)]
    for j in range(n):
        target = [d[i][j] for i in range(n)]
        if not any(target):
            continue
        w = solve_in_column_span(kmat, target)
        if w is None:
            raise ConsistencyError("oracle: image column outside the kernel")
        for r in range(kdim):
            im_in_ker[r][j] = w[r]
    mfac, mu, _mv = smith_normal_form(im_in_ker)
    if kdim - len(mfac) != free_rank:
        raise ConsistencyError("oracle: rank of quotient presentation disagrees")
    if free_rank != 1:
        return free_rank, None
    # Free generator of ker/im: invert the row transform of the presentation.
    muinv = _invert_transform(mu)
    gen_ker = [muinv[r][len(mfac)] for r in range(kdim)]
    # Ambient coordinates of the generator.
    ambient = [0] * n
    for r in range(kdim):
        if gen_ker[r]:
            for i in range(n):
                if ker[r][i]:
                    ambient[i] ^= t_mul(gen_ker[r], ker[r][i])
    # Homogeneous components, graded by r_i - 2k.
    components: Dict[int, List[int]] = {}
    for i in range(n):
        for k in t_exps(ambient[i]):
            g = fu.gradings[i] - 2 * k
            comp = components.setdefault(g, [0] * n)
            comp[i] ^= 1 << k
    tops = []
    for g in sorted(components, reverse=True):
        z = components[g]
        stacked = [[d[i][j] for j in range(n)] + [z[i]] for i in range(n)]
        if t_mat_rank(stacked) == rank_d + 1:
            tops.append(g)
    if len(tops) != 1:
        raise ConsistencyError(
            f"oracle: expected one non-torsion component, found {len(tops)}"
        )
    return 1, tops[0]


def _invert_transform(mat: List[List[int]]) -> List[List[int]]:
    """Inverse of a product of elementary GF(2)[T] operations.

    Gauss-Jordan over the fraction field is unnecessary: the Smith
    transforms are invertible over GF(2)[T], and solving column by column
    against the identity with exact division recovers the inverse.
    """
    n = len(mat)
    out = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        w = solve_in_column_span(mat, e)
        if w is None:
            raise ConsistencyError("transform is not invertible over GF(2)[T]")
        out.append(w)
    # out[j] is the j-th column of the inverse.
    return [[out[j][i] for j in range(n)] for i in range(n)]


