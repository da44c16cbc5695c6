"""Constructors for staircase-type complexes.

Staircases are the zigzag complexes modelling torus knots: generators
g0..g2m with Alexander gradings given by a strictly decreasing symmetric
exponent sequence, arrows from the odd generators to their even
neighbours, top generator pinned at grw = 0 and every other grading
forced by homogeneity.

The exponent sequence of a torus knot comes from the exact expansion of
(t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)); its nonzero terms alternate
between +1 and -1 and are symmetric about the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Tuple

from .complexes import BigradedComplex, ChainMap, require_chain_map
from .errors import ConsistencyError, ValidationError
from .linalg import LinearSystem, iter_bits
from .rings import ipoly_divexact


@dataclass(frozen=True)
class StepSequence:
    """Strictly decreasing symmetric Alexander exponents s0 > ... > s2m."""

    exponents: Tuple[int, ...]

    def __post_init__(self):
        s = self.exponents
        if len(s) % 2 == 0:
            raise ValidationError("exponent sequence must have odd length")
        if any(s[i] <= s[i + 1] for i in range(len(s) - 1)):
            raise ValidationError("exponents must be strictly decreasing")
        if any(s[i] != -s[len(s) - 1 - i] for i in range(len(s))):
            raise ValidationError("exponent sequence must be symmetric")

    @property
    def genus(self) -> int:
        return self.exponents[0]


def alexander_exponents(p: int, q: int) -> StepSequence:
    """Symmetrized exponents of the torus-knot Alexander polynomial.

    Expands (t^(pq)-1)(t-1)/((t^p-1)(t^q-1)) exactly, checks the nonzero
    coefficients alternate in {+1,-1}, and recenters by the genus
    g = (p-1)(q-1)/2.
    """
    if p < 2 or q < 2:
        raise ValidationError(f"torus parameters must be >= 2, got ({p},{q})")
    if gcd(p, q) != 1:
        raise ValidationError(f"torus parameters ({p},{q}) are not coprime")
    num = {p * q + 1: 1, p * q: -1, 1: -1, 0: 1}
    quot = ipoly_divexact(ipoly_divexact(num, {p: 1, 0: -1}), {q: 1, 0: -1})
    exps = sorted(quot, reverse=True)
    g = (p - 1) * (q - 1) // 2
    if exps[0] != 2 * g:
        raise ConsistencyError(f"Alexander polynomial of T({p},{q}) has wrong degree")
    for n, e in enumerate(exps):
        if quot[e] != (1 if n % 2 == 0 else -1):
            raise ConsistencyError(
                f"Alexander polynomial of T({p},{q}) does not alternate at t^{e}"
            )
    return StepSequence(tuple(e - g for e in exps))


def staircase_from_steps(steps: StepSequence, prefix: str = "g") -> BigradedComplex:
    """Zigzag complex of an exponent sequence; top generator at grw = 0.

    Each odd generator hits its two neighbours, the earlier one by a pure
    U-power and the later one by a pure V-power; the gradings fix both.
    """
    s = steps.exponents
    count = len(s)
    grw = [0] * count
    for i in range(1, count, 2):
        a = s[i - 1] - s[i]
        grw[i] = grw[i - 1] + 1 - 2 * a
        grw[i + 1] = grw[i] - 1
    cols = [0] * count
    for i in range(1, count, 2):
        cols[i] = (1 << (i - 1)) | (1 << (i + 1))
    return BigradedComplex(
        [f"{prefix}{i}" for i in range(count)],
        grw,
        [grw[i] - 2 * s[i] for i in range(count)],
        cols,
    ).require_valid()


def staircase(n: int) -> BigradedComplex:
    """Unit-step staircase with 2n+1 generators y(-n)..y(n).

    y(i) sits in bigrading (-n-i, -n+i); the odd positions map by
    d(y(j)) = U y(j-1) + V y(j+1).
    """
    if n < 0:
        raise ValidationError("staircase index must be nonnegative")
    if n == 0:
        return BigradedComplex(["y0"], [0], [0], [0]).require_valid()
    seq = StepSequence(tuple(range(n, -n - 1, -1)))
    c = staircase_from_steps(seq, prefix="tmp")
    renaming = {f"tmp{k}": f"y{k - n}" for k in range(2 * n + 1)}
    return c.relabel(renaming).require_valid()


def staircase_dual(n: int) -> BigradedComplex:
    """Dual staircase with generators x(-n)..x(n), x(i) at (n+i, n-i).

    x(i) with i - n even maps by d(x(i)) = U x(i+1) + V x(i-1).
    """
    if n < 0:
        raise ValidationError("staircase index must be nonnegative")
    count = 2 * n + 1
    cols = [0] * count
    for k in range(0, count, 2):  # index k holds x(k - n)
        if k + 1 < count:
            cols[k] |= 1 << (k + 1)
        if k > 0:
            cols[k] |= 1 << (k - 1)
    return BigradedComplex(
        [f"x{i}" for i in range(-n, n + 1)],
        [n + i for i in range(-n, n + 1)],
        [n - i for i in range(-n, n + 1)],
        cols,
    ).require_valid()


def torus_knot_complex(p: int, q: int) -> BigradedComplex:
    """Staircase model of the torus knot T(p, q)."""
    return staircase_from_steps(alexander_exponents(p, q))


# --- named model complexes --------------------------------------------------


def _hedden_watson() -> BigradedComplex:
    # d(b) = U^2 a + V^2 c
    c = BigradedComplex(["a", "b", "c"], [0, -3, -4], [-4, -3, 0], [0, 0b101, 0])
    return c.require_valid()


NAMED_COMPLEXES = {
    "HW": _hedden_watson,
}


def named_complex(name: str) -> BigradedComplex:
    try:
        builder = NAMED_COMPLEXES[name]
    except KeyError:
        raise ValidationError(
            f"unknown named complex {name!r}; available: {sorted(NAMED_COMPLEXES)}"
        ) from None
    return builder()


# --- transition maps between dual staircases --------------------------------


def _solve_local_map(
    source: BigradedComplex, target: BigradedComplex, bidegree: Tuple[int, int]
) -> ChainMap:
    """Any chain map of the given bidegree that is nonzero on the towers.

    The matrix is not transcribed from a picture: the chain-map equations
    plus one affine locality condition (the image of a tower cycle must
    again be non-torsion) go to the affine solver, and any solution works.
    Existence is a property of the staircase family, so an unsolvable
    system is an internal error.
    """
    from .invariants import a_level_complex, slice_obstruction, tower_cycle

    dw, dz = bidegree
    system = LinearSystem()
    # One unknown per admissible matrix slot; homogeneity fixes the monomial.
    slots: Dict[Tuple[int, int], int] = {}
    by_source: Dict[int, list] = {}
    for i, (sw, sz) in enumerate(zip(source.grw, source.grz)):
        for j, (tw, tz) in enumerate(zip(target.grw, target.grz)):
            ua, vb = tw - sw - dw, tz - sz - dz
            if ua < 0 or vb < 0 or ua % 2 or vb % 2:
                continue
            var = system.new_vars(1)[0]
            slots[(i, j)] = var
            by_source.setdefault(i, []).append((j, var))

    # d f + f d = 0, one equation per (source gen, final gen) pair.
    for i in range(len(source)):
        masks: Dict[int, int] = {}
        for mid, var in by_source.get(i, ()):
            for tgt in iter_bits(target.cols[mid]):
                masks[tgt] = masks.get(tgt, 0) ^ (1 << var)
        for mid in iter_bits(source.cols[i]):
            for tgt, var in by_source.get(mid, ()):
                masks[tgt] = masks.get(tgt, 0) ^ (1 << var)
        for tgt in sorted(masks):
            if masks[tgt]:
                system.add_equation(masks[tgt], 0)

    # Locality: push the source tower cycle through the unknown map and
    # pin its class to the non-torsion coset on the target side. A slot
    # i -> j rewrites on the level complexes as a T-power fixed by the
    # level gradings (the map preserves the Alexander grading).
    src_level = a_level_complex(source, 0)
    tgt_level = a_level_complex(target, 0)
    cycle = tower_cycle(src_level)
    want = slice_obstruction(tgt_level, cycle.grading + dw)
    pos = {pair: m for m, pair in enumerate(want.slice)}
    coeff_masks = [0] * len(want.slice)
    for i, power in cycle.terms:
        for j, var in by_source.get(i, ()):
            k2 = tgt_level.fu.gradings[j] - src_level.fu.gradings[i] - dw
            if k2 < 0 or k2 % 2:
                raise ConsistencyError("transition-map image leaves the level complex")
            coeff_masks[pos[(j, k2 // 2 + power)]] ^= 1 << var
    for row_mask, rhs in want.rows:
        mask = 0
        for m in iter_bits(row_mask):
            mask ^= coeff_masks[m]
        system.add_equation(mask, rhs)

    solution = system.solve()
    if solution is None:
        raise ConsistencyError(
            f"no local chain map of bidegree {bidegree} between the staircase duals"
        )
    cols = [0] * len(source)
    for (i, j), var in slots.items():
        if (solution >> var) & 1:
            cols[i] |= 1 << j
    return require_chain_map(ChainMap(source, target, cols, bidegree))


def staircase_transition_maps(n: int) -> Tuple[ChainMap, ChainMap]:
    """Local chain maps between consecutive dual staircases.

    Returns (down, up): down has bidegree (-2,-2) from the (n+1)-dual to
    the n-dual, up has bidegree (0,0) the other way. Both preserve the
    Alexander grading (forced by their bidegrees) and are nonzero on the
    localized towers.
    """
    big = staircase_dual(n + 1)
    small = staircase_dual(n)
    down = _solve_local_map(big, small, (-2, -2))
    up = _solve_local_map(small, big, (0, 0))
    return down, up
