import random

import pytest

from knotfloer.builders import torus_knot_complex
from knotfloer.complexes import BigradedComplex, SkewMap
from knotfloer.fu import FUComplex
from knotfloer.linalg import image, iter_bits

from echelon import ColumnSolver
from oracle_homogeneity import fu_validate_messages

UNKNOT = BigradedComplex(("o",), (0,), (0,), (0,))


def random_fu_complex(rng: random.Random, max_size: int = 8) -> FUComplex:
    """Random valid graded free GF(2)[T]-complex.

    Differentials are built incrementally: each new basis element maps to
    a random cycle of the partial complex one grading down, which keeps
    d^2 = 0 by construction.
    """
    n = rng.randint(1, max_size)
    gradings = [rng.randint(-4, 4) for _ in range(n)]
    cols = [0] * n
    order = list(range(n))
    rng.shuffle(order)
    assigned = []
    for j in order:
        rho = gradings[j] - 1
        slice_ = [
            (i, (gradings[i] - rho) // 2)
            for i in assigned
            if gradings[i] >= rho and (gradings[i] - rho) % 2 == 0
        ]
        if slice_ and rng.random() < 0.7:
            below = [
                (i, (gradings[i] - rho + 2) // 2)
                for i in assigned
                if gradings[i] >= rho - 1 and (gradings[i] - rho + 1) % 2 == 0
            ]
            pos = {p: m for m, p in enumerate(below)}
            bcols = []
            for i, k in slice_:
                mask = 0
                rest = cols[i]
                while rest:
                    low = rest & -rest
                    m = low.bit_length() - 1
                    rest ^= low
                    mask |= 1 << pos[(m, k + (gradings[m] - gradings[i] + 1) // 2)]
                bcols.append(mask)
            kernel = ColumnSolver(bcols).kernel
            if kernel:
                combo = 0
                for kv in kernel:
                    if rng.random() < 0.5:
                        combo ^= kv
                mask = 0
                rest = combo
                while rest:
                    low = rest & -rest
                    mask |= 1 << slice_[low.bit_length() - 1][0]
                    rest ^= low
                cols[j] = mask
        assigned.append(j)
    fu = FUComplex(tuple(gradings), list(map(iter_bits, cols)))
    assert not fu_validate_messages(fu)
    return fu


TORUS_FACTORS = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (4, 5), (2, 9), (3, 7)]


def random_torus_sum(rng: random.Random, max_terms: int, max_gens: int) -> str:
    """Expression of a sum of 1..max_terms torus knots, some mirrored.

    Its complex has at most max_gens generators (the factor sizes
    multiply).
    """
    while True:
        factors = [rng.choice(TORUS_FACTORS) for _ in range(rng.randint(1, max_terms))]
        size = 1
        for p, q in factors:
            size *= len(torus_knot_complex(p, q))
        if size <= max_gens:
            return "#".join(
                ("-" if rng.random() < 0.5 else "") + f"T({p},{q})" for p, q in factors
            )


def _compose(left, right):
    """Columns of left after right; exponents along a path depend only on its end points."""
    return [image(left, col) for col in right]


def scramble(c: BigradedComplex, iota: SkewMap, rng: random.Random):
    """An iota-locally equivalent copy of (c, iota) with dense columns.

    Adds 0-2 acyclic boxes d(a) = U b + V c, d(b) = V e, d(c) = U e, with
    a and e at the same bigrading of Alexander grading 0 and iota fixing a
    and e and swapping b and c. Then changes the basis by P = 1 + N: N has
    an entry x -> y, with probability 0.05, 0.2 or 0.5, when both grading
    gaps from x to y are even and nonnegative and y comes later in
    (grw + grz, index) order, so N is nilpotent. The copy has
    d' = P d P^-1 and iota' = P iota P^-1.
    """
    labels, grw, grz = list(c.labels), list(c.grw), list(c.grz)
    d, io = list(c.cols), list(iota.cols)
    for k in range(rng.randint(0, 2)):
        w, n = rng.randint(-3, 3), len(labels)
        a, b, cc, e = n, n + 1, n + 2, n + 3
        labels += [f"box{k}{x}" for x in "abce"]
        grw += [w, w + 1, w - 1, w]
        grz += [w, w - 1, w + 1, w]
        d += [1 << b | 1 << cc, 1 << e, 1 << e, 0]
        io += [1 << a, 1 << cc, 1 << b, 1 << e]
    n = len(labels)
    density = rng.choice((0.05, 0.2, 0.5))
    key = [(grw[i] + grz[i], i) for i in range(n)]

    def even_up(gap):
        return gap >= 0 and gap % 2 == 0

    nil = [
        sum(
            1 << y
            for y in range(n)
            if key[y] > key[x]
            and even_up(grw[y] - grw[x])
            and even_up(grz[y] - grz[x])
            and rng.random() < density
        )
        for x in range(n)
    ]
    ident = [1 << x for x in range(n)]
    p = [i ^ m for i, m in zip(ident, nil)]
    # P^-1 = 1 + N + N^2 + ..., which stops because N is nilpotent.
    p_inv, power = list(p), nil
    while any(power):
        power = _compose(nil, power)
        p_inv = [x ^ y for x, y in zip(p_inv, power)]
    out = BigradedComplex(labels, grw, grz, _compose(p, _compose(d, p_inv)))
    return out, SkewMap(out, _compose(p, _compose(io, p_inv)))


def level_monomials(c, level: FUComplex, s: int):
    """(U-power, V-power) of each basis element of a level-s complex of c.

    Read off the gradings alone: U^u V^v x has grw(x) - 2u, and Alexander
    grading A(x) - u + v = s.
    """
    out = []
    for w, a, g in zip(c.grw, c.alexander, level.gradings):
        u = (w - g) // 2
        out.append((u, u + s - a))
    return tuple(out)


def ipoly_mul(p: dict, q: dict) -> dict:
    """Product of integer polynomials (dict exponent -> coefficient)."""
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


@pytest.fixture
def rng():
    return random.Random(20240817)
