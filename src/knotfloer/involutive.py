"""Skew involutions, their mapping cones, and the involutive corrections.

The involution of a staircase-type complex is the index reflection, the
unique grading-swapping skew chain isomorphism of a symmetric zigzag.
Connected sums compose the factor involutions with a basepoint
correction: with the product map t = iota1 (x) iota2 and the correction
h = id + Phi1 (x) Psi2, both t.h and h.t are skew chain maps; the
shipped default order is pinned by the doubled-trefoil correction-term
value and the other order stays available for audit.

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
from typing import Dict, List, Tuple

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
from .linalg import ColumnSolver, Echelon

DEFAULT_SUM_ORDER = "twist-first"


def staircase_iota(c: BigradedComplex) -> SkewMap:
    """Index-reflection involution of a symmetric zigzag complex."""
    count = len(c.gens)
    entries = {
        c.gens[k].name: {c.gens[count - 1 - k].name: frozenset({(0, 0)})}
        for k in range(count)
    }
    iota = SkewMap(c, entries, provenance="staircase-reflection")
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(
            f"complex is not a symmetric staircase, reflection fails: {violation}"
        )
    return iota


def mirror_iota(iota: SkewMap, dual_c: BigradedComplex, suffix: str = "*") -> SkewMap:
    """Involution of the dual complex: transpose with swapped exponents."""
    entries: Dict[str, Dict[str, frozenset]] = {}
    for src, row in iota.entries.items():
        for tgt, poly in row.items():
            entries.setdefault(tgt + suffix, {})[src + suffix] = frozenset(
                (b, a) for a, b in poly
            )
    out = SkewMap(dual_c, entries, provenance=iota.provenance + "-mirror")
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
    order: str = DEFAULT_SUM_ORDER,
) -> SkewMap:
    """Involution of a tensor product from the factor involutions.

    order "twist-first": (iota1 x iota2) after (id + phi1 x psi2);
    order "twist-last": the other composition. Both must be valid skew
    chain maps; which one feeds the shipped invariants is pinned by the
    acceptance data, and the alternative stays selectable for audit.
    """
    if order not in ("twist-first", "twist-last"):
        raise ValueError(f"unknown composition order {order!r}")
    product = tensor_map(iota1, iota2, tensor_c, tensor_c)
    twist = map_add(identity_map(tensor_c), tensor_map(phi1, psi2, tensor_c, tensor_c))
    if order == "twist-first":
        out = map_compose(product, twist)
    else:
        out = map_compose(twist, product)
    out = SkewMap(tensor_c, out.entries, provenance="connected-sum")
    violation = verify_chain_map(out)
    if violation is not None:
        raise ValidationError(
            f"connected-sum involution (order {order}) fails verification: "
            f"{violation}; the alternative order is available via `order=`"
        )
    return out


def realize_with_iota(expr, loader=None, order: str = DEFAULT_SUM_ORDER):
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
        child, child_iota = realize_with_iota(expr.child, loader, order)
        c = child.dual()
        return c, (mirror_iota(child_iota, c) if child_iota else None)
    if isinstance(expr, Sum):
        acc, acc_iota = realize_with_iota(expr.children[0], loader, order)
        for part in expr.children[1:]:
            nxt, nxt_iota = realize_with_iota(part, loader, order)
            tensor_c = acc.tensor(nxt)
            if acc_iota is not None and nxt_iota is not None:
                phi1 = basepoint_maps(acc)[0]
                psi2 = basepoint_maps(nxt)[1]
                acc_iota = connected_sum_iota(
                    tensor_c, acc_iota, nxt_iota, phi1, psi2, order
                )
            else:
                acc_iota = None
            acc = tensor_c
        return acc, acc_iota
    if isinstance(expr, Named):
        return named_complex(expr.name), None
    if isinstance(expr, FileRef):
        from .fileio import load_complex

        if loader is not None:
            return loader(expr.path)
        return load_complex(expr.path)
    raise TypeError(f"not a knot expression: {expr!r}")


# --- the mapping cone -------------------------------------------------------


@dataclass
class Cone:
    """Cone of (1 + iota) on the level-0 subcomplex, Q of degree -1."""

    fu: FUComplex
    level: ALevel
    one_plus_iota_cols: Tuple[int, ...]  # columns over the level basis


def _iota_on_level(c: BigradedComplex, iota: SkewMap, level: ALevel) -> List[int]:
    """Matrix of iota on the minimal-monomial basis (implied T-powers).

    The skew rule sends U^i V^j x to U^j V^i iota(x); every resulting
    monomial must rewrite as a T-power times a basis monomial, otherwise
    the involution does not preserve the level and is rejected with a
    witness.
    """
    n = len(level.fu.labels)
    cols = [0] * n
    for jx, label in enumerate(level.fu.labels):
        iu, jv = level.min_monomials[jx]
        for tgt, poly in iota.row(label).items():
            ti = c.index[tgt]
            tu, tv = level.min_monomials[ti]
            for a, b in poly:
                pu, pv = jv + a, iu + b
                k = pu - tu
                if k != pv - tv or k < 0:
                    raise ValidationError(
                        f"involution does not preserve the level-0 subcomplex: "
                        f"image of U^{iu}V^{jv}{label} has term U^{pu}V^{pv}{tgt}"
                    )
                expected = (level.fu.gradings[ti] - level.fu.gradings[jx]) // 2
                if k != expected:
                    raise ValidationError(
                        f"involution is not grading-preserving on the level: "
                        f"{label} -> {tgt}"
                    )
                cols[jx] ^= 1 << ti
    return cols


def ai0_cone(c: BigradedComplex, iota: SkewMap) -> Cone:
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(f"involution fails verification: {violation}")
    level = a_level_complex(c, 0)
    iota_cols = _iota_on_level(c, iota, level)
    n = len(level.fu.labels)
    one_plus = tuple(iota_cols[j] ^ (1 << j) for j in range(n))
    labels = list(level.fu.labels) + ["Q|" + lbl for lbl in level.fu.labels]
    gradings = list(level.fu.gradings) + [r - 1 for r in level.fu.gradings]
    cols: List[int] = []
    for j in range(n):
        mask = level.fu.cols[j]
        shifted = 0
        rest = one_plus[j]
        while rest:
            low = rest & -rest
            shifted |= 1 << (n + low.bit_length() - 1)
            rest ^= low
        cols.append(mask | shifted)
    for j in range(n):
        rest = level.fu.cols[j]
        shifted = 0
        while rest:
            low = rest & -rest
            shifted |= 1 << (n + low.bit_length() - 1)
            rest ^= low
        cols.append(shifted)
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
        rest = cone.one_plus_iota_cols[i]
        acc = 0
        while rest:
            low = rest & -rest
            ti = low.bit_length() - 1
            rest ^= low
            kk = k + (level_fu.gradings[ti] - level_fu.gradings[i]) // 2
            acc |= 1 << pos[(ti, kk)]
        reduced = im_same.reduce(acc)
        stacked.append(bcols[m] | (reduced << len(below)))
    cycles_with_bounding = ColumnSolver(stacked).kernel
    deep_pos = {pair: m for m, pair in enumerate(deep_slice)}
    out = []
    for combo in cycles_with_bounding:
        vec = 0
        rest = combo
        while rest:
            low = rest & -rest
            i, k = a_slice[low.bit_length() - 1]
            rest ^= low
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
            rest = z
            while rest:
                low = rest & -rest
                i, k = keys[low.bit_length() - 1]
                rest ^= low
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
            rest = combo
            while rest:
                low = rest & -rest
                vec ^= shifted[low.bit_length() - 1]
                rest ^= low
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
