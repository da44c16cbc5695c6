"""Constructors for staircase-type complexes.

Staircases are the zigzag complexes modelling torus knots: generators
g0..g2m with Alexander gradings given by a strictly decreasing symmetric
exponent sequence, arrows from the odd generators to their even
neighbours, top generator pinned at grw = 0 and every other grading
forced by homogeneity.

The exponent sequence of a torus knot T(p, q) is read off its semigroup
S = <p, q>: sum_(s in S) t^s = (1 - t^(pq)) / ((1 - t^p)(1 - t^q)), so
the Alexander polynomial is Delta(t) = (1 - t) sum_(s in S) t^s and its
terms sit where membership in S flips. `StepSequence` checks that the
result is odd in length, strictly decreasing and symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .complexes import BigradedComplex
from .errors import ValidationError
from .expressions import TorusKnot


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


def alexander_exponents(p: int, q: int) -> StepSequence:
    """Symmetrized exponents of the torus-knot Alexander polynomial.

    With S = <p, q> the semigroup of T(p, q), the identity
    sum_(s in S) t^s = (1 - t^(pq)) / ((1 - t^p)(1 - t^q)) gives
    Delta(t) = (1 - t) sum_(s in S) t^s: the terms of Delta sit where
    membership in S flips between k - 1 and k. S holds every k >= 2g,
    g = (p-1)(q-1)/2, so the flips lie in 0..2g; returns g - k for each
    flip k, in decreasing order.
    """
    problem = TorusKnot(p, q).problem
    if problem:
        raise ValidationError(problem)
    top = (p - 1) * (q - 1)
    # member[k + 1] is 1 when k is in S; member[0] stands for k = -1.
    member = bytearray(top + 2)
    for a in range(0, top + 1, p):
        for k in range(a, top + 1, q):
            member[k + 1] = 1
    g = top // 2
    return StepSequence(tuple(g - k for k in range(top + 1) if member[k] != member[k + 1]))


def staircase_from_steps(steps: StepSequence) -> BigradedComplex:
    """Zigzag complex g0..g2m of an exponent sequence; top generator at grw = 0.

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
        [f"g{i}" for i in range(count)],
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
    c = staircase_from_steps(StepSequence(tuple(range(n, -n - 1, -1))))
    return c.relabel({f"g{k}": f"y{k - n}" for k in range(2 * n + 1)})


def staircase_dual(n: int) -> BigradedComplex:
    """Dual staircase with generators x(-n)..x(n), x(i) at (n+i, n-i).

    x(i) with i - n even maps by d(x(i)) = U x(i+1) + V x(i-1).
    """
    c = staircase(n).dual()
    return c.relabel({f"y{i}*": f"x{i}" for i in range(-n, n + 1)}).require_valid()


def torus_knot_complex(p: int, q: int) -> BigradedComplex:
    """Staircase model of the torus knot T(p, q)."""
    return staircase_from_steps(alexander_exponents(p, q))


# --- named model complexes --------------------------------------------------


def named_complex(name: str) -> BigradedComplex:
    """The model complex of a name; only HW, d(b) = U^2 a + V^2 c, has one."""
    if name != "HW":
        raise ValidationError(f"unknown named complex {name!r}; available: ['HW']")
    return BigradedComplex(["a", "b", "c"], [0, -3, -4], [-4, -3, 0], [0, 0b101, 0]).require_valid()
