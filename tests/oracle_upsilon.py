"""Staircase envelope, kept as an oracle for `bounds.upsilon_of_expr`.

`upsilon_of_expr` sums the slope changes of each torus knot's hull.
This oracle expands each term's Alexander polynomial by exact integer
division (`conftest.ipoly_divexact`), reads the cycle lines of its
staircase off those exponents, takes the upper envelope by intersecting
every pair of lines and maximizing over all lines at each crossing, then
combines the terms with the PL arithmetic below (mirror: negate; sum:
evaluate both at every breakpoint and add; then drop breakpoints where
the slope does not change). The signature fold does the same for step
functions, from each torus knot's lattice jumps summed as `Fraction`s. It imports nothing from `knotfloer.builders`, whose exponents
and staircases it checks.
"""

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from conftest import ipoly_divexact

from knotfloer.bounds import PLFunction, StepFunction
from knotfloer.complexes import BigradedComplex
from knotfloer.errors import UnsupportedInputError
from knotfloer.expressions import KnotExpr, Mirror, Sum, TorusKnot


def pl_negate(f: PLFunction) -> PLFunction:
    return PLFunction(f.breakpoints, tuple(-v for v in f.values))


def pl_add(f: PLFunction, g: PLFunction) -> PLFunction:
    xs = sorted(set(f.breakpoints) | set(g.breakpoints))
    return PLFunction(tuple(xs), tuple(f(x) + g(x) for x in xs))


def pl_simplify(f: PLFunction) -> PLFunction:
    """Drop breakpoints where the slope does not change."""
    xs, ys = list(f.breakpoints), list(f.values)
    out_x, out_y = [xs[0]], [ys[0]]
    for i in range(1, len(xs) - 1):
        s_in = (ys[i] - out_y[-1]) / (xs[i] - out_x[-1])
        s_out = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        if s_in != s_out:
            out_x.append(xs[i])
            out_y.append(ys[i])
    out_x.append(xs[-1])
    out_y.append(ys[-1])
    return PLFunction(tuple(out_x), tuple(out_y))


def upper_envelope(lines: Sequence[Tuple[Fraction, Fraction]]) -> PLFunction:
    """Upper envelope of lines (slope, intercept) over [0, 2]."""
    xs = {Fraction(0), Fraction(2)}
    for i in range(len(lines)):
        s1, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            s2, c2 = lines[j]
            if s1 == s2:
                continue
            t = Fraction(c2 - c1, s1 - s2)
            if 0 < t < 2:
                xs.add(t)
    grid = sorted(xs)
    vals = [max(s * t + c for s, c in lines) for t in grid]
    return pl_simplify(PLFunction(tuple(grid), tuple(vals)))


def is_staircase_shape(c: BigradedComplex) -> bool:
    """Zigzag test: even positions are cycles, odd ones hit both neighbours."""
    if len(c) % 2 == 0:
        return False
    for idx, col in enumerate(c.cols):
        want = 0 if idx % 2 == 0 else (1 << (idx - 1)) | (1 << (idx + 1))
        if col != want:
            return False
    return True


def upsilon_staircase(c: BigradedComplex) -> PLFunction:
    """Concordance function of a staircase complex.

    Maximum over the cycle generators of the t-interpolated grading;
    boundaries and monomial multiples only lower it, so generators
    realize the envelope. Only genuine zigzags are accepted: on anything
    else (dual staircases included) the envelope formula is wrong, so
    such input is refused rather than approximated.
    """
    if not is_staircase_shape(c):
        raise UnsupportedInputError("not a staircase-shaped complex")
    lines = [
        (Fraction(z - w, 2), Fraction(w))
        for w, z, col in zip(c.grw, c.grz, c.cols)
        if not col
    ]
    return upper_envelope(lines)


def torus_exponents(p: int, q: int) -> List[int]:
    """Symmetrized exponents of the Alexander polynomial of T(p, q), descending.

    Delta(t) = (t - 1)(t^(pq) - 1) / ((t^p - 1)(t^q - 1)), of degree 2g.
    """
    num = {p * q + 1: 1, p * q: -1, 1: -1, 0: 1}
    quot = ipoly_divexact(ipoly_divexact(num, {p: 1, 0: -1}), {q: 1, 0: -1})
    g = (p - 1) * (q - 1) // 2
    return [e - g for e in sorted(quot, reverse=True)]


def staircase_cycle_lines(exponents: Sequence[int]) -> List[Tuple[Fraction, Fraction]]:
    """Lines (slope, intercept) of the cycle generators of the staircase of an exponent sequence.

    The cycles are the even generators. The first sits at grw = 0, each
    step to the next lowers grw by twice the drop in A across the step's
    first edge, and a generator at (grw, A) gives the line grw - t A.
    """
    lines, w = [], 0
    for i in range(0, len(exponents), 2):
        if i:
            w -= 2 * (exponents[i - 2] - exponents[i - 1])
        lines.append((Fraction(-exponents[i]), Fraction(w)))
    return lines


def upsilon_reference(e: KnotExpr) -> PLFunction:
    """Concordance function of a torus-knot sum: mirrors negate, sums add."""
    if isinstance(e, TorusKnot):
        return upper_envelope(staircase_cycle_lines(torus_exponents(e.p, e.q)))
    if isinstance(e, Mirror):
        return pl_negate(upsilon_reference(e.child))
    if isinstance(e, Sum):
        acc = upsilon_reference(e.children[0])
        for child in e.children[1:]:
            acc = pl_add(acc, upsilon_reference(child))
        return pl_simplify(acc)
    raise UnsupportedInputError("not a torus-knot sum")


def step_negate(f: StepFunction) -> StepFunction:
    return StepFunction(tuple((x, -s) for x, s in f.jumps))


def step_add(f: StepFunction, g: StepFunction) -> StepFunction:
    acc: Dict[Fraction, int] = {}
    for x, s in f.jumps + g.jumps:
        acc[x] = acc.get(x, 0) + s
    return StepFunction(tuple((x, acc[x]) for x in sorted(acc) if acc[x]))


def step_value(f: StepFunction, t) -> int:
    """Value of f at a point t of (0, 1) that is not a jump."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError("evaluation point must lie in (0, 1)")
    if any(x == t for x, _ in f.jumps):
        raise ValueError(f"{t} is a jump point")
    return sum(size for x, size in f.jumps if x < t)


def signature_torus_reference(p: int, q: int) -> StepFunction:
    """Levine-Tristram signature of T(p, q): +2 at each a/p + b/q below 1, -2 at one less above it, in `Fraction`s."""
    jumps: Dict[Fraction, int] = {}
    for a in range(1, p):
        for b in range(1, q):
            s = Fraction(a, p) + Fraction(b, q)
            x, size = (s, 2) if s < 1 else (s - 1, -2)
            jumps[x] = jumps.get(x, 0) + size
    return StepFunction(tuple(sorted(jumps.items())))


def signature_reference(e: KnotExpr) -> StepFunction:
    """Levine-Tristram signature of a torus-knot sum by the same fold, on `Fraction` locations throughout."""
    if isinstance(e, TorusKnot):
        return signature_torus_reference(e.p, e.q)
    if isinstance(e, Mirror):
        return step_negate(signature_reference(e.child))
    if isinstance(e, Sum):
        acc = signature_reference(e.children[0])
        for child in e.children[1:]:
            acc = step_add(acc, signature_reference(child))
        return acc
    raise UnsupportedInputError("not a torus-knot sum")
