"""Slice-by-slice oracle for the involutive correction terms.

`oracle_d_pair(c, iota)` computes (upper d, lower d) of the cone of
(1 + iota) on the full level-0 subcomplex from the definitions, one
grading slice at a time, independently of the minimal model that
`involutive.ai0_cone` reduces the cone to and of the tower parity
argument that `involutive.involutive_d_pair` uses:

    lower d = max grading of a homogeneous class that stays T-non-torsion
              and outside the image of Q forever;
    upper d = 1 + max grading of a T-non-torsion class eventually landing
              in the image of Q.

Both are decided by affine feasibility per grading slice; the power caps
are exact because slice maps become isomorphisms below the bottom
grading of the basis. It is slow and only meant for the test suite.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from knotfloer.errors import ConsistencyError, ValidationError
from knotfloer.fu import FUComplex, tower_reduce
from knotfloer.invariants import a_level_complex
from knotfloer.linalg import iter_bits

from echelon import ColumnSolver, Echelon, set_bits
from fu_views import fu_cols


def power(fu: FUComplex, row: int, col: int) -> int:
    """Implied T-power of the (row, col) entry."""
    k2 = fu.gradings[row] - fu.gradings[col] + 1
    if k2 % 2 or k2 < 0:
        raise ValidationError(
            f"entry #{col} -> #{row} has no legal T-power"
        )
    return k2 // 2


def slice_basis(fu: FUComplex, rho: int) -> List[Tuple[int, int]]:
    """Elements T^k e_i of grading rho, as (index, power) pairs."""
    out = []
    for i, r in enumerate(fu.gradings):
        k2 = r - rho
        if k2 >= 0 and k2 % 2 == 0:
            out.append((i, k2 // 2))
    return out


def boundary_columns(fu: FUComplex, src_slice, tgt_slice) -> List[int]:
    """Boundary matrix between adjacent slices, columns as bitmasks."""
    pos, columns = {pair: n for n, pair in enumerate(tgt_slice)}, fu_cols(fu)
    cols = []
    for i, k in src_slice:
        mask = 0
        for m in set_bits(columns[i]):
            mask |= 1 << pos[(m, k + power(fu, m, i))]
        cols.append(mask)
    return cols


def _q_image_vectors(level_fu: FUComplex, one_plus, gamma: int, deep_slice) -> List[int]:
    """Q-part vectors at cone grading gamma coming from homology classes.

    Sources are level cycles a with (1 + iota) a a boundary; their images
    Q a span the image of the Q-action on homology at this grading.
    """
    n = len(level_fu)
    a_slice = slice_basis(level_fu, gamma + 1)
    if not a_slice:
        return []
    below = slice_basis(level_fu, gamma)
    bcols = boundary_columns(level_fu, a_slice, below)
    im_same = Echelon(boundary_columns(level_fu, slice_basis(level_fu, gamma + 2), a_slice))
    pos = {pair: m for m, pair in enumerate(a_slice)}
    stacked = []
    for m, (i, k) in enumerate(a_slice):
        acc = 0
        for ti in set_bits(one_plus[i]):
            kk = k + (level_fu.gradings[ti] - level_fu.gradings[i]) // 2
            acc |= 1 << pos[(ti, kk)]
        reduced = im_same.reduce(acc)
        stacked.append(bcols[m] | (reduced << len(below)))
    cycles_with_bounding = ColumnSolver(stacked).kernel
    deep_pos = {pair: m for m, pair in enumerate(deep_slice)}
    out = []
    for combo in cycles_with_bounding:
        vec = 0
        for q in set_bits(combo):
            i, k = a_slice[q]
            vec ^= 1 << deep_pos[(n + i, k)]
        out.append(vec)
    return out


def level_cone(level_fu: FUComplex, one_plus) -> FUComplex:
    """Cone of one_plus on the level, Q of degree -1: Q x is index n + x."""
    n = len(level_fu)
    gradings = list(level_fu.gradings) + [r - 1 for r in level_fu.gradings]
    level_cols = fu_cols(level_fu)
    cols = [col | (op << n) for col, op in zip(level_cols, one_plus)]
    cols += [col << n for col in level_cols]
    return FUComplex(gradings, list(map(iter_bits, cols)))


def oracle_d_pair(c, iota) -> Tuple[int, int]:
    """(upper d, lower d) of the cone of (1 + iota) on level 0, slice by slice."""
    level_fu = a_level_complex(c, 0)
    one_plus = tuple(col ^ (1 << j) for j, col in enumerate(iota.cols))
    fu = level_cone(level_fu, one_plus)
    red = tower_reduce(fu)
    if red.rank != 2:
        raise ValidationError(f"cone localization has rank {red.rank}, expected two towers")
    top = max(fu.gradings)
    bottom = min(fu.gradings)

    @functools.cache
    def analyze(rho: int):
        """dim data for the slice at grading rho; None when empty."""
        keys = slice_basis(fu, rho)
        if not keys:
            return None
        cap = max(1, (rho - bottom) // 2 + 1)
        deep = rho - 2 * cap
        deep_slice = slice_basis(fu, deep)
        deep_pos = {pair: m for m, pair in enumerate(deep_slice)}
        im_only = Echelon(boundary_columns(fu, slice_basis(fu, deep + 1), deep_slice))
        with_q = im_only.copy()
        for vec in _q_image_vectors(level_fu, one_plus, deep, deep_slice):
            with_q.add(vec)
        cycles = ColumnSolver(boundary_columns(fu, keys, slice_basis(fu, rho - 1))).kernel
        shifted = []
        for z in cycles:
            vec = 0
            for q in set_bits(z):
                i, k = keys[q]
                vec ^= 1 << deep_pos[(i, k + cap)]
            shifted.append(vec)
        return shifted, im_only, with_q

    d_under = None
    for rho in range(top, bottom - 1, -1):
        data = analyze(rho)
        if data is None:
            continue
        shifted, _im_only, with_q = data
        if any(not with_q.contains(v) for v in shifted):
            d_under = rho
            break
    if d_under is None:
        raise ConsistencyError("no class found for the lower involutive term")

    d_bar = None
    for rho in range(top, bottom - 1, -1):
        data = analyze(rho)
        if data is None:
            continue
        shifted, im_only, with_q = data
        in_q = ColumnSolver(with_q.reduce(v) for v in shifted).kernel
        if not in_q:
            continue
        vectors = []
        for combo in in_q:
            vec = 0
            for q in set_bits(combo):
                vec ^= shifted[q]
            vectors.append(vec)
        torsion_inside = ColumnSolver(im_only.reduce(v) for v in vectors).kernel
        if len(vectors) > len(torsion_inside):
            d_bar = rho + 1
            break
    if d_bar is None:
        raise ConsistencyError("no class found for the upper involutive term")
    return d_bar, d_under
