"""Torus-knot arithmetic the benchmark needs without asking the program.

Sizes and genera come straight from the Alexander polynomial
(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), so they are an independent
oracle for the program's generator counts, tau and the upsilon slope.
"""

from functools import lru_cache
from math import gcd

TORUS = tuple(
    (p, q) for p in range(2, 14) for q in range(p + 1, 20) if gcd(p, q) == 1
)


@lru_cache(maxsize=None)
def alexander_size(p, q):
    """Number of nonzero Alexander coefficients: the staircase's generators."""
    coeffs = [0] * (p * q + 2)
    coeffs[p * q + 1], coeffs[p * q], coeffs[1], coeffs[0] = 1, -1, -1, 1
    for d in (p, q):
        quotient = [0] * (len(coeffs) - d)
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                quotient[k - d] = c
                coeffs[k] -= c
                coeffs[k - d] += c
        if any(coeffs):
            raise ValueError(f"T({p},{q}): division left a remainder")
        coeffs = quotient
    return sum(1 for c in coeffs if c)


def genus(p, q):
    return (p - 1) * (q - 1) // 2


def expression(terms):
    """`terms` is a sequence of (sign, p, q); gives e.g. 'T(2,3)#-T(5,6)'."""
    return "#".join(("-" if s < 0 else "") + f"T({p},{q})" for s, p, q in terms)


def size(terms):
    n = 1
    for _s, p, q in terms:
        n *= alexander_size(p, q)
    return n


def signed_genus(terms):
    return sum(s * genus(p, q) for s, p, q in terms)
