"""Slice-genus and clasp-number lower bounds, all in exact arithmetic.

Two analytic inputs are computed here for torus-knot sums, each as a
signed sum over the summands (`expressions.torus_terms`) of per-term
jumps, with mirrored summands counted with sign -1:

* the piecewise-linear concordance function on [0, 2]. For T(p, q) it
  is the upper envelope of the lines grw - t A over the cycle
  generators of its staircase, which starts at 0 with slope -tau; its
  initial slope and its slope changes {t: change} are read off the
  Alexander exponents in one hull pass. The sum's slope changes are
  the signed merge of the terms', integrated once from f(0) = 0;
* the Levine-Tristram signature step function on (0, 1): for T(p, q)
  the lattice set {a/p + b/q} contributes a -2 jump at s - 1 when s > 1
  and a +2 jump at s when s < 1; the sum's jumps are the signed merge
  of the terms', on integer numerators over one common denominator.

Everything downstream (ratio bound, signature extrema, report assembly)
is bookkeeping over `fractions.Fraction`; no floats anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple

from .builders import alexander_exponents
from .errors import UnsupportedInputError, ValidationError
from .expressions import KnotExpr, TorusKnot, torus_terms
from .invariants import InvariantTable


@dataclass(frozen=True)
class PLFunction:
    """Continuous piecewise-linear function on [0, 2] with value 0 at 0."""

    breakpoints: Tuple[Fraction, ...]  # includes both endpoints 0 and 2
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        xs = self.breakpoints
        if len(xs) < 2 or xs[0] != 0 or xs[-1] != 2:
            raise ValidationError(f"breakpoints must run from 0 to 2, got {xs}")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise ValidationError(f"breakpoints must increase strictly, got {xs}")
        if len(self.values) != len(xs):
            raise ValidationError("breakpoints and values differ in length")
        if self.values[0] != 0:
            raise ValidationError(f"value at 0 must be 0, got {self.values[0]}")

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValueError("argument outside [0, 2]")
        xs, ys = self.breakpoints, self.values
        i = bisect_left(xs, t, 1)
        return ys[i - 1] + (ys[i] - ys[i - 1]) * (t - xs[i - 1]) / (xs[i] - xs[i - 1])

    def initial_slope(self) -> Fraction:
        return (self.values[1] - self.values[0]) / (self.breakpoints[1] - self.breakpoints[0])


def _signed_merge(terms: Iterable[Tuple[int, Dict[Fraction, int]]]) -> Dict[Fraction, int]:
    """Sum of sign * jumps over the terms, sorted by location, zeros dropped."""
    acc: Dict[Fraction, int] = {}
    for sign, jumps in terms:
        for x, size in jumps.items():
            acc[x] = acc.get(x, 0) + sign * size
    return {x: acc[x] for x in sorted(acc) if acc[x]}


def _upsilon_torus(p: int, q: int) -> Tuple[int, Dict[Fraction, int]]:
    """Initial slope and {t: slope change} of the concordance function of T(p, q).

    Cycle generator x_2i of the staircase has A = s_2i, and grw drops by
    2(s_2i - s_2i+1) from one to the next, so the slopes -A of the lines
    grw - t A increase along the staircase and one stack pass keeps the
    lines of the upper envelope. x_0 alone leads at t = 0 and x_2m alone
    at t = 2, so every crossing kept lies inside (0, 2).
    """
    s = alexander_exponents(p, q).exponents
    hull: List[Tuple[int, int, Fraction]] = []  # (slope, intercept, where it starts to lead)
    w = 0
    for i in range(0, len(s), 2):
        if i:
            w -= 2 * (s[i - 2] - s[i - 1])
        start = Fraction(0)
        while hull:
            slope, intercept, since = hull[-1]
            start = Fraction(intercept - w, -s[i] - slope)
            if start > since:
                break
            hull.pop()
        hull.append((-s[i], w, start))
    return hull[0][0], {t: slope - prev for (prev, _, _), (slope, _, t) in zip(hull, hull[1:])}


def upsilon_of_expr(e: KnotExpr) -> PLFunction:
    """Concordance function of a torus-knot sum expression.

    Anything beyond torus knots, mirrors, and sums is refused rather
    than approximated.
    """
    terms = torus_terms(e)
    if terms is None:
        raise UnsupportedInputError(
            "the concordance function is only computed for torus-knot sums"
        )
    per_term = [(sign, _upsilon_torus(p, q)) for sign, p, q in terms]
    slope = sum(sign * first for sign, (first, _) in per_term)
    changes = _signed_merge((sign, jumps) for sign, (_, jumps) in per_term)
    xs, ys = [Fraction(0)], [Fraction(0)]
    for t in [*changes, Fraction(2)]:
        ys.append(ys[-1] + slope * (t - xs[-1]))
        xs.append(t)
        slope += changes.get(t, 0)
    return PLFunction(tuple(xs), tuple(ys))


def upsilon_ratio_bound(f: PLFunction) -> Fraction:
    """Clasp bound: spread of f(t)/t over (0, 1].

    The ratio is monotone between breakpoints, so its extrema sit at
    breakpoints, at t = 1, or at the initial slope.
    """
    candidates = [f.initial_slope(), f(1)]
    candidates += [y / t for t, y in zip(f.breakpoints, f.values) if 0 < t < 1]
    return max(candidates) - min(candidates)


# --- Levine-Tristram signatures --------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Step function on (0, 1): value 0 near 0, jumps at interior points."""

    jumps: Tuple[Tuple[Fraction, int], ...]  # (location, size), increasing

    def extrema(self) -> Tuple[int, int]:
        """(max, min) over the open intervals between jumps."""
        level = 0
        lo = hi = 0
        for _x, size in self.jumps:
            level += size
            lo = min(lo, level)
            hi = max(hi, level)
        return hi, lo


def _lt_signature(terms: List[Tuple[int, int, int]]) -> StepFunction:
    """The Levine-Tristram signature of the sum of sign * T(p, q) over the terms, each a (sign, p, q).

    For T(p, q) each a/p + b/q = (a q + b p) / pq with 0 < a < p and
    0 < b < q jumps by +2 there when it is below 1 and by -2 at one less
    when it is above; 1 itself would need p | a q, which coprime p and q
    exclude. Every jump is scaled to the common denominator D, the lcm
    of the terms' pq, and merged as an integer numerator
    (`_signed_merge`); only the merged jumps become `Fraction`s.
    """
    for _sign, p, q in terms:
        problem = TorusKnot(p, q).problem
        if problem:
            raise ValidationError(problem)
    denominator = lcm(*(p * q for _sign, p, q in terms))
    per_term = []
    for sign, p, q in terms:
        scale = denominator // (p * q)
        step_a, step_b = q * scale, p * scale
        jumps: Dict[int, int] = {}
        for base in range(step_a, p * step_a, step_a):
            for x in range(base + step_b, base + q * step_b, step_b):
                if x < denominator:
                    jumps[x] = 2
                else:
                    jumps[x - denominator] = -2
        per_term.append((sign, jumps))
    return StepFunction(tuple((Fraction(x, denominator), size) for x, size in _signed_merge(per_term).items()))


def lt_signature_of_expr(e: KnotExpr) -> StepFunction:
    terms = torus_terms(e)
    if terms is None:
        raise UnsupportedInputError(
            "the signature function is only computed for torus-knot sums"
        )
    return _lt_signature(terms)


def signature_clasp_bound(sig: StepFunction) -> Tuple[int, int, int]:
    """(max, min, clasp bound) with the bound (max - min) / 2."""
    hi, lo = sig.extrema()
    return hi, lo, (hi - lo) // 2


# --- report assembly --------------------------------------------------------


def _source(bound: int, **certificate) -> Dict:
    """One source of a bound: its value and what certifies it."""
    return {"bound": bound, "certificate": certificate}


def _best(sources: Dict[str, Dict]) -> Dict:
    """The sources of a bound and the largest of their values."""
    return {"sources": sources, "max": max(src["bound"] for src in sources.values())}


def _parity_bound(values: Dict[int, int]) -> Dict:
    """Largest n + 2*val - 1 over the entries with val >= 1, and where.

    The bound is 0, reached nowhere, when no value is positive.
    """
    best, at = 0, []
    for n, val in sorted(values.items()):
        if val >= 1:
            cand = n + 2 * val - 1
            if cand > best:
                best, at = cand, [n]
            elif cand == best:
                at.append(n)
    return _source(best, achieved_at=at)


def _involutive_parts(involutive: Tuple[int, int]) -> Tuple[int, int]:
    """(positive, negative) parts of the bound that (v0_bar, v0_under) puts on g, the slice genus or the clasp number.

    ceil((g+1)/2) >= v_under and >= -v_bar force g >= 2*v - 2, with v
    each of v_under and -v_bar.
    """
    v_bar, v_under = involutive
    return max(2 * v_under - 2, 0), max(-2 * v_bar - 2, 0)


def genus_bounds(table: InvariantTable, involutive: Optional[Tuple[int, int]]) -> Dict:
    """Per-source slice-genus lower bounds with their certificates."""
    sources = {
        "nu_plus": _source(table.nu_plus, nu_plus=table.nu_plus),
        "omega_plus": _source(table.omega_plus, omega_plus=table.omega_plus),
        "v_parity": _parity_bound({s: val for s, val in table.v.items() if s >= 0}),
        "y_parity": _parity_bound(table.y),
    }
    if involutive is not None:
        v_bar, v_under = involutive
        sources["involutive"] = _source(max(_involutive_parts(involutive)), v0_bar=v_bar, v0_under=v_under)
    return _best(sources)


def clasp_bounds(
    table: InvariantTable,
    mirror: InvariantTable,
    ratio: Optional[Fraction],
    signature: Optional[StepFunction],
    involutive: Optional[Tuple[int, int]],
) -> Dict:
    """Per-source clasp-number lower bounds (total, positive, negative).

    ratio is `upsilon_ratio_bound`, rounded up; signature is the signature
    function, bounded by `signature_clasp_bound`.
    """
    sources = {
        "nu_plus_sum": _source(
            table.nu_plus + mirror.nu_plus, nu_plus=table.nu_plus, nu_plus_mirror=mirror.nu_plus
        ),
        "omega_plus_sum": _source(
            table.omega_plus + mirror.omega_plus, omega_plus=table.omega_plus, omega_plus_mirror=mirror.omega_plus
        ),
    }
    if ratio is not None:
        sources["upsilon_ratio"] = {"bound_exact": str(ratio), **_source(-(-ratio.numerator // ratio.denominator))}
    if signature is not None:
        hi, lo, bound = signature_clasp_bound(signature)
        sources["signature"] = _source(bound, max=hi, min=lo)
    positive = {"omega_plus": _source(table.omega_plus), "y_parity": _parity_bound(table.y)}
    negative = {"omega_plus_mirror": _source(mirror.omega_plus)}
    if involutive is not None:
        v_bar, v_under = involutive
        plus, minus = _involutive_parts(involutive)
        positive["involutive"] = _source(plus, v0_under=v_under)
        negative["involutive"] = _source(minus, v0_bar=v_bar)
    positive, negative = _best(positive), _best(negative)
    top = positive["max"] + negative["max"]
    sources["signed_sum"] = _source(top, positive=positive["max"], negative=negative["max"])
    return {**_best(sources), "positive": positive, "negative": negative}


def format_exact(x: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else 'p/q'.

    The decimal has a + b places, so 1/20 prints as "0.050".
    """
    num, den = x.numerator, x.denominator
    d, k = den, 0
    for p in (2, 5):
        while d % p == 0:
            d //= p
            k += 1
    if d != 1:
        return f"{num}/{den}"
    if k == 0:
        return str(num)
    whole, frac = divmod(abs(num) * 10**k // den, 10**k)
    return f"{'-' if num < 0 else ''}{whole}.{str(frac).zfill(k)}"


def plot_rows(f: PLFunction, upto: Fraction = Fraction(1)) -> List[Tuple[Fraction, Fraction]]:
    """Breakpoint table of (t, f(t)) on [0, upto]: the stored pairs below upto, then upto."""
    rows = [(x, y) for x, y in zip(f.breakpoints, f.values) if x < upto]
    return [*rows, (upto, f(upto))]
