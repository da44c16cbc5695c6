import random

import pytest

from knotfloer.builders import torus_knot_complex
from knotfloer.fu import FUComplex
from knotfloer.linalg import ColumnSolver


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
    labels = tuple(f"e{i}" for i in range(n))
    fu = FUComplex(labels, tuple(gradings), tuple(cols))
    assert not fu.validate()
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


@pytest.fixture
def rng():
    return random.Random(20240817)
