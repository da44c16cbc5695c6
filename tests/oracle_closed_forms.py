"""Closed forms of torus-knot invariants, kept as oracles that share no code with `knotfloer`.

Each needs only the semigroup S = <p, q> of T(p, q) (p, q > 1 coprime),
whose gaps, the naturals not in S, number g = (p - 1)(q - 1) / 2, the
genus:

* V_s of T(p, q), for s >= 0, is the number of gaps n >= g + s, and
  Hom-Wu symmetry V_-s = V_s + s gives the negative levels;
* V_s of a sum of positive torus knots is the infimal convolution of the
  summands' V (Borodzik-Livingston, *Heegaard Floer homology and
  rational cuspidal curves*, 2014):
  V_s(K1 # K2) = min over a + b = s of V_a(K1) + V_b(K2);
* the involutive pair (V_0 bar, V_0 under) of T(p, q) is (V_0, V_0), and
  that of its mirror is (-V_0, 0) (Hendricks-Manolescu, *Involutive
  Heegaard Floer homology*, 2017);
* Upsilon of T(p, q) at t in [0, 2] is the maximum over m in 0..2g of
  -2 #(S n [0, m)) - t (g - m) (Borodzik-Hedden, *The Upsilon function
  of L-space knots is a Legendre transform*, 2018).

This module imports only the standard library: it reads no complex, so a
misreading of the complexes that every other oracle shares cannot pass
it.
"""

import functools
import math
from typing import Sequence, Tuple


def genus(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


def gaps(p: int, q: int) -> Tuple[int, ...]:
    """The naturals not in <p, q>; all lie below the conductor 2g."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a nontrivial torus knot")
    top = 2 * genus(p, q)
    in_s = {a * p + b * q for a in range(top // p + 1) for b in range(top // q + 1)}
    return tuple(n for n in range(top) if n not in in_s)


def torus_v(p: int, q: int, s: int) -> int:
    """V_s of T(p, q), for any integer s."""
    if s < 0:
        return torus_v(p, q, -s) - s
    g = genus(p, q)
    return sum(1 for n in gaps(p, q) if n >= g + s)


@functools.lru_cache(maxsize=None)
def _sum_v(terms: Tuple[Tuple[int, int], ...], s: int) -> int:
    (p, q), rest = terms[0], terms[1:]
    if not rest:
        return torus_v(p, q, s)
    # V of a torus knot is 0 from g on, and -s up to -g, while V of the
    # rest drops by at most 1 a level: a split outside -g..g is no smaller.
    g = genus(p, q)
    return min(torus_v(p, q, a) + _sum_v(rest, s - a) for a in range(-g, g + 1))


def sum_v(terms: Sequence[Tuple[int, int]], s: int) -> int:
    """V_s of the sum of the positive torus knots T(p, q) of terms."""
    return _sum_v(tuple(terms), s)


@functools.lru_cache(maxsize=None)
def semigroup_counts(p: int, q: int) -> Tuple[int, ...]:
    """#(S n [0, m)) for m in 0..2g, S = <p, q>."""
    missing = set(gaps(p, q))
    counts = [0]
    for n in range(2 * genus(p, q)):
        counts.append(counts[-1] + (n not in missing))
    return tuple(counts)


def torus_upsilon(p: int, q: int, t):
    """Upsilon of T(p, q) at an exact t (an int or a Fraction) in [0, 2]."""
    g, counts = genus(p, q), semigroup_counts(p, q)
    # The best m, compared in integers: scaled by the denominator of t.
    num, den = t.numerator, t.denominator
    m = max(range(2 * g + 1), key=lambda m: -2 * counts[m] * den - num * (g - m))
    return -2 * counts[m] - t * (g - m)


def torus_pair(p: int, q: int, mirrored: bool = False) -> Tuple[int, int]:
    """(V_0 bar, V_0 under) of T(p, q), or of its mirror."""
    v0 = torus_v(p, q, 0)
    return (-v0, 0) if mirrored else (v0, v0)
