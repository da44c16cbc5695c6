"""Skew involutions, their mapping cones, and the involutive corrections.

The involution of a staircase-type complex is the index reflection, the
unique grading-swapping skew chain isomorphism of a symmetric zigzag.
Connected sums compose the factor involutions with a basepoint
correction (Zemke): iota = (iota1 (x) iota2) after (1 + Phi1 (x) Psi2),
the order pinned by the doubled-trefoil correction-term value. It is
built from the factor columns by the mixed-product rule.

The involutive corrections come from the cone of (1 + iota) on the
level-0 subcomplex, with the cone variable Q of degree -1:

    lower d = max grading of a homogeneous class that stays T-non-torsion
              and outside the image of Q forever;
    upper d = 1 + max grading of a T-non-torsion class eventually landing
              in the image of Q.

Once T is inverted, iota fixes the level-0 tower, so the cone has two
towers of opposite parity. The image of Q is torsion in even gradings and
swallows the odd tower, so lower d is the top of the even tower and upper
d is one more than the top of the odd one: one tower reduction of the
cone gives both.
"""

from __future__ import annotations

from typing import Tuple

from .complexes import BigradedComplex, ChainMap, SkewMap, basepoint_map, verify_chain_map
from .errors import ConsistencyError, ValidationError
from .fu import FUComplex, tower_reduce
from .invariants import a_level_complex, v_invariant
from .linalg import image, kron, transpose


def staircase_iota(c: BigradedComplex) -> SkewMap:
    """Index-reflection involution of a symmetric zigzag complex."""
    count = len(c)
    iota = SkewMap(c, [1 << (count - 1 - k) for k in range(count)])
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
    out = SkewMap(dual_c, transpose(iota.cols, len(dual_c)))
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
    """Involution of a tensor product: (iota1 x iota2) after (1 + phi1 x psi2).

    Composition multiplies column matrices (exponents along a path depend
    only on its end points), so the columns are, by the mixed-product
    rule, iota1 (x) iota2 + (iota1 phi1) (x) (iota2 psi2). It must be a
    valid skew chain map.
    """
    twisted1 = [image(iota1.cols, col) for col in phi1.cols]
    twisted2 = [image(iota2.cols, col) for col in psi2.cols]
    cols = map(int.__xor__, kron(iota1.cols, iota2.cols), kron(twisted1, twisted2))
    out = SkewMap(tensor_c, cols)
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
                phi1, psi2 = basepoint_map(acc, "U"), basepoint_map(nxt, "V")
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


def ai0_cone(c: BigradedComplex, iota: SkewMap) -> FUComplex:
    """Cone of (1 + iota) on the level-0 subcomplex, Q of degree -1.

    A verified skew map swaps the gradings, so on the level-0 basis it is
    grading-preserving and its T-powers are implied like those of d: its
    matrix there is its own columns. The cone is valid once
    `verify_chain_map(iota)` passes, so it is not checked again. iota
    restricts to level 0: it swaps U and V, maps level s to -s, and
    T = UV is symmetric. Its level-0 T-powers are natural: an entry
    x -> U^u V^v y sends U^a_x V^b_x x to T^k U^a_y V^b_y y with
    k = b_x + u - a_y = a_x + v - b_y, which min(a_y, b_y) = 0 makes
    b_x + u or a_x + v, as for d in `a_level_complex`. And d_cone^2 = 0
    is d (1 + iota) = (1 + iota) d, the chain-map condition.
    """
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(f"involution fails verification: {violation}")
    level = a_level_complex(c, 0)
    n = len(level)
    labels = list(level.labels) + ["Q|" + lbl for lbl in level.labels]
    gradings = list(level.gradings) + [r - 1 for r in level.gradings]
    one_plus = [col ^ (1 << j) for j, col in enumerate(iota.cols)]
    cols = [col | (op << n) for col, op in zip(level.cols, one_plus)]
    cols += [col << n for col in level.cols]
    return FUComplex(labels, gradings, cols)


def involutive_d_pair(cone: FUComplex) -> Tuple[int, int]:
    """(upper d, lower d) of the cone, read off its two tower tops.

    After T is inverted, iota is the identity on the rank-one tower of the
    level-0 complex, so 1 + iota vanishes there and the cone has exactly
    two towers: the level-0 tower in even gradings and its Q-shift in odd
    gradings. In even gradings the image of Q is torsion, so every
    non-torsion even class stays outside it; every non-torsion odd class
    lands in it after some power of T. Hence lower d is the grading of the
    even unpaired generator and upper d is one more than that of the odd
    one.
    """
    red = tower_reduce(cone)
    if red.rank != 2:
        raise ValidationError(
            f"cone localization has rank {red.rank}, expected two towers"
        )
    even, odd = sorted((g for _label, g in red.unpaired), key=lambda g: g % 2)
    if even % 2 or not odd % 2:
        raise ConsistencyError(
            f"cone towers at gradings {even} and {odd}, expected one of each parity"
        )
    return odd + 1, even


def v0_bar_under(c: BigradedComplex, iota: SkewMap) -> Tuple[int, int]:
    """(upper, lower) involutive correction terms bracketing V_0."""
    d_bar, d_under = involutive_d_pair(ai0_cone(c, iota))
    v_bar, v_under = -d_bar // 2, -d_under // 2
    v0 = v_invariant(c, 0)
    if not v_bar <= v0 <= v_under:
        raise ConsistencyError(
            f"involutive pair ({v_bar}, {v_under}) does not bracket V_0 = {v0}"
        )
    return v_bar, v_under
