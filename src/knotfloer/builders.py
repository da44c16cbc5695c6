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
from typing import Tuple

from .complexes import BigradedComplex
from .errors import ConsistencyError, ValidationError


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


def ipoly_divexact(num: dict, den: dict) -> dict:
    """Exact division of integer polynomials (dict exponent -> coefficient).

    Raises when a remainder is left.
    """
    num = dict(num)
    dmax = max(den)
    dlead = den[dmax]
    quot: dict = {}
    while num:
        e = max(num)
        if e < dmax:
            raise ArithmeticError("inexact polynomial division")
        c, r = divmod(num[e], dlead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quot[e - dmax] = c
        for de, dc in den.items():
            ne = e - dmax + de
            nc = num.get(ne, 0) - c * dc
            if nc:
                num[ne] = nc
            else:
                num.pop(ne, None)
    return quot


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
