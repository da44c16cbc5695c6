"""Skew involutions, their mapping cones, and the involutive corrections.

The involution of a staircase-type complex is the index reflection, the
unique grading-swapping skew chain isomorphism of a symmetric zigzag.
Connected sums compose the factor involutions with a basepoint
correction: with the product map t = iota1 (x) iota2 and the correction
h = id + Phi1 (x) Psi2, the involution of the sum is t after h, the
order pinned by the doubled-trefoil correction-term value.

The involutive corrections come from the cone of (1 + iota) on the
level-0 subcomplex, with the cone variable Q of degree -1:

    lower d = max grading of a homogeneous class that stays T-non-torsion
              and outside the image of Q forever;
    upper d = 1 + max grading of a T-non-torsion class eventually landing
              in the image of Q.

Both are decided by affine feasibility per grading slice; the power caps
are exact because slice maps become isomorphisms below the bottom
grading of the basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

from .complexes import (
    BigradedComplex,
    ChainMap,
    SkewMap,
    basepoint_maps,
    identity_map,
    map_add,
    map_compose,
    tensor_map,
    verify_chain_map,
)
from .errors import ConsistencyError, ValidationError
from .fu import FUComplex, tower_reduce
from .invariants import ALevel, a_level_complex, v_invariant
from .linalg import ColumnSolver, Echelon, iter_bits, transpose


def staircase_iota(c: BigradedComplex) -> SkewMap:
    """Index-reflection involution of a symmetric zigzag complex."""
    count = len(c)
    iota = SkewMap(c, [1 << (count - 1 - k) for k in range(count)], provenance="staircase-reflection")
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(
            f"complex is not a symmetric staircase, reflection fails: {violation}"
        )
    return iota


def mirror_iota(iota: SkewMap, dual_c: BigradedComplex) -> SkewMap:
    """Involution of the dual complex: the transpose, still skew.

    Its implied exponents are those of iota, swapped.
    """
    out = SkewMap(dual_c, transpose(iota.cols, len(dual_c)), provenance=iota.provenance + "-mirror")
    violation = verify_chain_map(out)
    if violation is not None:
        raise ValidationError(f"mirrored involution fails verification: {violation}")
    return out


def connected_sum_iota(
    tensor_c: BigradedComplex,
    iota1: SkewMap,
    iota2: SkewMap,
    phi1: ChainMap,
    psi2: ChainMap,
) -> SkewMap:
    """Involution of a tensor product: (iota1 x iota2) after (id + phi1 x psi2).

    It must be a valid skew chain map.
    """
    product = tensor_map(iota1, iota2, tensor_c, tensor_c)
    twist = map_add(identity_map(tensor_c), tensor_map(phi1, psi2, tensor_c, tensor_c))
    out = map_compose(product, twist)
    out.provenance = "connected-sum"
    violation = verify_chain_map(out)
    if violation is not None:
        raise ValidationError(f"connected-sum involution fails verification: {violation}")
    return out


def realize_with_iota(expr):
    """Build (complex, involution-or-None) for a knot expression.

    Torus knots get the reflection, mirrors the transposed involution,
    sums the connected-sum composition. Named complexes carry no
    canonical involution; files may supply one.
    """
    from .expressions import FileRef, Mirror, Named, Sum, TorusKnot
    from .builders import torus_knot_complex, named_complex

    if isinstance(expr, TorusKnot):
        c = torus_knot_complex(expr.p, expr.q)
        return c, staircase_iota(c)
    if isinstance(expr, Mirror):
        child, child_iota = realize_with_iota(expr.child)
        c = child.dual()
        return c, (mirror_iota(child_iota, c) if child_iota else None)
    if isinstance(expr, Sum):
        acc, acc_iota = realize_with_iota(expr.children[0])
        for part in expr.children[1:]:
            nxt, nxt_iota = realize_with_iota(part)
            tensor_c = acc.tensor(nxt)
            if acc_iota is not None and nxt_iota is not None:
                phi1 = basepoint_maps(acc)[0]
                psi2 = basepoint_maps(nxt)[1]
                acc_iota = connected_sum_iota(tensor_c, acc_iota, nxt_iota, phi1, psi2)
            else:
                acc_iota = None
            acc = tensor_c
        return acc, acc_iota
    if isinstance(expr, Named):
        return named_complex(expr.name), None
    if isinstance(expr, FileRef):
        from .fileio import load_complex

        return load_complex(expr.path)
    raise TypeError(f"not a knot expression: {expr!r}")


# --- the mapping cone -------------------------------------------------------


@dataclass
class Cone:
    """Cone of (1 + iota) on the level-0 subcomplex, Q of degree -1."""

    fu: FUComplex
    level: ALevel
    one_plus_iota_cols: Tuple[int, ...]  # columns over the level basis


def ai0_cone(c: BigradedComplex, iota: SkewMap) -> Cone:
    """Cone of (1 + iota) on the level-0 subcomplex.

    A verified skew map swaps the gradings, so on the level-0 basis it is
    grading-preserving and its T-powers are implied like those of d: its
    matrix there is its own columns.
    """
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(f"involution fails verification: {violation}")
    level = a_level_complex(c, 0)
    n = len(level.fu.labels)
    one_plus = tuple(col ^ (1 << j) for j, col in enumerate(iota.cols))
    labels = list(level.fu.labels) + ["Q|" + lbl for lbl in level.fu.labels]
    gradings = list(level.fu.gradings) + [r - 1 for r in level.fu.gradings]
    cols = [col | (op << n) for col, op in zip(level.fu.cols, one_plus)]
    cols += [col << n for col in level.fu.cols]
    fu = FUComplex(tuple(labels), tuple(gradings), tuple(cols)).require_valid()
    return Cone(fu, level, one_plus)


def _q_image_vectors(cone: Cone, gamma: int, deep_slice) -> List[int]:
    """Q-part vectors at cone grading gamma coming from homology classes.

    Sources are level cycles a with (1 + iota) a a boundary; their images
    Q a span the image of the Q-action on homology at this grading.
    """
    level_fu = cone.level.fu
    n = len(level_fu.labels)
    a_slice = level_fu.slice_basis(gamma + 1)
    if not a_slice:
        return []
    below = level_fu.slice_basis(gamma)
    bcols = level_fu.boundary_columns(a_slice, below)
    im_same = Echelon(
        level_fu.boundary_columns(level_fu.slice_basis(gamma + 2), a_slice)
    )
    pos = {pair: m for m, pair in enumerate(a_slice)}
    stacked = []
    for m, (i, k) in enumerate(a_slice):
        acc = 0
        for ti in iter_bits(cone.one_plus_iota_cols[i]):
            kk = k + (level_fu.gradings[ti] - level_fu.gradings[i]) // 2
            acc |= 1 << pos[(ti, kk)]
        reduced = im_same.reduce(acc)
        stacked.append(bcols[m] | (reduced << len(below)))
    cycles_with_bounding = ColumnSolver(stacked).kernel
    deep_pos = {pair: m for m, pair in enumerate(deep_slice)}
    out = []
    for combo in cycles_with_bounding:
        vec = 0
        for q in iter_bits(combo):
            i, k = a_slice[q]
            vec ^= 1 << deep_pos[(n + i, k)]
        out.append(vec)
    return out


def involutive_d_pair(cone: Cone) -> Tuple[int, int]:
    """(upper d, lower d) of the cone."""
    fu = cone.fu
    red = tower_reduce(fu)
    if red.rank != 2:
        raise ValidationError(
            f"cone localization has rank {red.rank}, expected two towers"
        )
    top = max(fu.gradings)
    bottom = min(fu.gradings)

    @functools.cache
    def analyze(rho: int):
        """dim data for the slice at grading rho; None when empty.

        Both scans below visit the same slices, so each is analyzed once.
        """
        keys = fu.slice_basis(rho)
        if not keys:
            return None
        cap = max(1, (rho - bottom) // 2 + 1)
        deep = rho - 2 * cap
        deep_slice = fu.slice_basis(deep)
        deep_pos = {pair: m for m, pair in enumerate(deep_slice)}
        im_only = Echelon(fu.boundary_columns(fu.slice_basis(deep + 1), deep_slice))
        with_q = im_only.copy()
        for vec in _q_image_vectors(cone, deep, deep_slice):
            with_q.add(vec)
        below = fu.slice_basis(rho - 1)
        cycles = ColumnSolver(fu.boundary_columns(keys, below)).kernel
        shifted = []
        for z in cycles:
            vec = 0
            for q in iter_bits(z):
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
            for q in iter_bits(combo):
                vec ^= shifted[q]
            vectors.append(vec)
        torsion_inside = ColumnSolver(im_only.reduce(v) for v in vectors).kernel
        if len(vectors) > len(torsion_inside):
            d_bar = rho + 1
            break
    if d_bar is None:
        raise ConsistencyError("no class found for the upper involutive term")
    return d_bar, d_under


def v0_bar_under(c: BigradedComplex, iota: SkewMap) -> Tuple[int, int]:
    """(upper, lower) involutive correction terms bracketing V_0."""
    d_bar, d_under = involutive_d_pair(ai0_cone(c, iota))
    if d_bar % 2 or d_under % 2:
        raise ConsistencyError(f"odd involutive gradings ({d_bar}, {d_under})")
    v_bar, v_under = -d_bar // 2, -d_under // 2
    v0 = v_invariant(c, 0)
    if not v_bar <= v0 <= v_under:
        raise ConsistencyError(
            f"involutive pair ({v_bar}, {v_under}) does not bracket V_0 = {v0}"
        )
    return v_bar, v_under
