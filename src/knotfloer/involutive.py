"""Skew involutions, their mapping cones, and the involutive corrections.

The involution of a staircase-type complex is the index reflection, the
unique grading-swapping skew chain isomorphism of a symmetric zigzag.
Connected sums compose the factor involutions with a basepoint
correction (Zemke): iota = (iota1 (x) iota2) after (1 + Phi1 (x) Psi2),
the order pinned by the doubled-trefoil correction-term value. It is
built from the factor columns by the mixed-product rule.

The constructions check nothing: each keeps a valid skew chain map
valid (the proof is in `realize_with_iota`). An involution is checked
where a number is read from it, once, by `ai0_cone`; a file's is checked
as `load_complex` reads it, and the cone reuses that check.

The involutive corrections are a function of iota alone: they come from
the cone of (1 + iota) on level 0 of iota's complex, `iota.source`, built
on its model M_0 (`ai0_cone`), with the cone variable Q of degree -1:

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

from .builders import named_complex, torus_knot_complex
from .complexes import BigradedComplex, SkewMap, basepoint_map, verify_chain_map
from .errors import ConsistencyError, ValidationError
from .expressions import FileRef, KnotExpr, Mirror, Named, Sum, TorusKnot
from .fileio import load_complex
from .fu import FUComplex, cone, tower_reduce, transfer
from .invariants import connected_sum, level_split, release_to_dual, v_invariant
from .linalg import image, kron, transpose


def staircase_iota(c: BigradedComplex) -> SkewMap:
    """Index-reflection involution of a symmetric zigzag complex (unchecked, see `realize_with_iota`)."""
    count = len(c)
    return SkewMap(c, [1 << (count - 1 - k) for k in range(count)])


def mirror_iota(iota: SkewMap, dual_c: BigradedComplex) -> SkewMap:
    """Involution of the dual complex: the transpose, still skew, built with its columns and target lists.

    Its implied exponents are those of iota, swapped.
    """
    return SkewMap(dual_c, *transpose(iota.targets, len(dual_c)))


def connected_sum_iota(tensor_c: BigradedComplex, iota1: SkewMap, iota2: SkewMap) -> SkewMap:
    """Involution of a tensor product: (iota1 x iota2) after (1 + Phi1 x Psi2).

    Phi1 and Psi2 are the basepoint maps of the factors (`basepoint_map`).
    Composition multiplies column matrices (exponents along a path depend
    only on its end points), so the columns are, by the mixed-product
    rule, iota1 (x) iota2 + (iota1 Phi1) (x) (iota2 Psi2).
    """
    phi1, psi2 = basepoint_map(iota1.source, "U"), basepoint_map(iota2.source, "V")
    twisted1 = [image(iota1.cols, col) for col in phi1.cols]
    twisted2 = [image(iota2.cols, col) for col in psi2.cols]
    return SkewMap(tensor_c, map(int.__xor__, kron(iota1.cols, iota2.cols), kron(twisted1, twisted2)))


def realize_with_iota(expr):
    """Build (complex, involution-or-None) for a knot expression.

    Torus knots get the reflection, mirrors the transposed involution,
    sums the connected-sum composition. Named complexes carry no
    canonical involution; files may supply one, which `load_complex`
    has checked. A sum and a mirror get their quotient entries as they are
    built (`invariants.connected_sum`, `invariants.release_to_dual`).

    Nothing here checks a map: the involution is checked where a number
    is read from it, by `ai0_cone`. No map built on the way needs a check
    of its own, because each construction keeps a valid skew chain map
    valid:

    * the transpose of a skew chain map on C is one on the dual, since
      iota^T d^T = (d iota)^T = (iota d)^T = d^T iota^T, and its implied
      exponents are those of iota, swapped;
    * Phi and Psi are chain maps whenever d^2 = 0 (`basepoint_map`), so
      Phi1 (x) Psi2 commutes with d1 (x) 1 + 1 (x) d2 and has bidegree
      (0, 0); composed with the skew chain map iota1 (x) iota2, the
      connected-sum formula (Zemke) gives a skew chain map whenever its
      factors are ones. A composite entry carries the exponents of a
      path of natural ones, so it stays homogeneous.

    The reflection of a torus knot's staircase is one too: the steps of a
    staircase built from the symmetric Alexander polynomial read the same
    backwards, so the reflection trades each U-step for the V-step of the
    same length. So every map is valid by construction, and the check in
    `ai0_cone` guards the construction itself; `tests/test_involutive.py`
    checks every map the fold builds against `verify_chain_map`.
    """
    if isinstance(expr, TorusKnot):
        c = torus_knot_complex(expr.p, expr.q)
        return c, staircase_iota(c)
    if isinstance(expr, Mirror):
        child, child_iota = realize_with_iota(expr.child)
        c = release_to_dual(child)
        return c, (mirror_iota(child_iota, c) if child_iota else None)
    if isinstance(expr, Sum):
        acc, acc_iota = realize_with_iota(expr.children[0])
        for part in expr.children[1:]:
            nxt, nxt_iota = realize_with_iota(part)
            tensor_c = connected_sum(acc, nxt)
            acc_iota = connected_sum_iota(tensor_c, acc_iota, nxt_iota) if acc_iota and nxt_iota else None
            acc = tensor_c
        return acc, acc_iota
    if isinstance(expr, Named):
        return named_complex(expr.name), None
    if isinstance(expr, FileRef):
        return load_complex(expr.path)
    raise TypeError(f"not a knot expression: {expr!r}")


def realize_expr(e: KnotExpr) -> BigradedComplex:
    """The complex of an expression, built by `realize_with_iota`.

    The involution built with it is dropped unchecked: it is checked only
    where a number is read from it (`ai0_cone`).
    """
    return realize_with_iota(e)[0]


# --- the mapping cone -------------------------------------------------------


def ai0_cone(iota: SkewMap) -> FUComplex:
    """Cone of 1 + pi_0 iota iota_0 on the level-0 model M_0 of iota's complex, Q of degree -1.

    The model cone (`fu`) of 1 + iota on level 0: pi_0 (1 + iota) iota_0
    is 1 + pi_0 iota iota_0, since pi_0 iota_0 = 1 (`level_split`).

    A verified skew map swaps the gradings and U with V, so it maps
    level s to -s (T = UV is symmetric), and on the level-0 basis it is
    grading-preserving with its own columns. Its T-powers there are
    natural: an entry x -> U^u V^v y sends U^a_x V^b_x x to
    T^k U^a_y V^b_y y with k = b_x + u - a_y = a_x + v - b_y, which
    min(a_y, b_y) = 0 makes b_x + u or a_x + v, as for d in
    `a_level_complex`. So the cone is valid once iota passes
    `verify_chain_map`, the one check of a built involution
    (`realize_with_iota`).
    """
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(f"involution fails verification: {violation}")
    split = level_split(iota.source, 0)
    one_plus = [col ^ (1 << m) for m, col in enumerate(transfer(split, split, iota.cols))]
    return cone([(split.model, 0), (split.model, -1)], [(0, 1, one_plus)])


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
            f"iota fails the involutive cone: cone localization has rank {red.rank}, expected "
            f"two towers, so iota does not fix the level-0 tower once T is inverted"
        )
    even, odd = sorted(red.unpaired, key=lambda g: g % 2)
    if even % 2 or not odd % 2:
        raise ConsistencyError(
            f"cone towers at gradings {even} and {odd}, expected one of each parity"
        )
    return odd + 1, even


def v0_bar_under(iota: SkewMap) -> Tuple[int, int]:
    """(upper, lower) involutive correction terms bracketing V_0 of iota's complex, `iota.source`."""
    d_bar, d_under = involutive_d_pair(ai0_cone(iota))
    v_bar, v_under = -d_bar // 2, -d_under // 2
    v0 = v_invariant(iota.source, 0)
    if not v_bar <= v0 <= v_under:
        raise ConsistencyError(
            f"involutive pair ({v_bar}, {v_under}) does not bracket V_0 = {v0}"
        )
    return v_bar, v_under
