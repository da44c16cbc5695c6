"""Exact polynomial arithmetic for the coefficient rings of the engine.

Two kinds of polynomials show up:

* the one-variable ring GF(2)[T]: a polynomial is an int bitmask whose
  bit k is the coefficient of T^k;
* plain integer polynomials (dict exponent -> coefficient), used to
  expand torus-knot Alexander polynomials exactly.

Entries over the two-variable ring GF(2)[U, V] need no arithmetic of
their own: homogeneity pins each one to a single monomial whose
exponents follow from the gradings (see `complexes`).
"""

from __future__ import annotations

# --- GF(2)[T] as int bitmasks ---------------------------------------------

T_ZERO = 0
T_ONE = 1


def t_from_exps(exps) -> int:
    out = 0
    for k in exps:
        if k < 0:
            raise ValueError("negative T exponent")
        out ^= 1 << k
    return out


def t_exps(p: int) -> tuple:
    return tuple(k for k in range(p.bit_length()) if (p >> k) & 1)


def t_deg(p: int) -> int:
    """Degree, with deg(0) == -1."""
    return p.bit_length() - 1


def t_mul(a: int, b: int) -> int:
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return acc


def t_divmod(a: int, b: int) -> tuple:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = t_deg(b)
    while t_deg(a) >= db:
        s = t_deg(a) - db
        q ^= 1 << s
        a ^= b << s
    return q, a


def t_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, t_divmod(a, b)[1]
    return a


def t_str(p: int) -> str:
    if p == 0:
        return "0"
    parts = []
    for k in reversed(t_exps(p)):
        parts.append("1" if k == 0 else ("T" if k == 1 else f"T^{k}"))
    return "+".join(parts)


# --- integer polynomials ---------------------------------------------------


def ipoly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def ipoly_divexact(num: dict, den: dict) -> dict:
    """Exact division of integer polynomials; raises if a remainder is left."""
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
