"""The model cones of C tensor St*_n against the block and tensor routes.

`block_level(c, s, n)` builds level s of C tensor the n-step dual
staircase from C's columns alone: the levels A_(s+n)(C), ..., A_(s-n)(C)
side by side, glued by the staircase arrows. The tensor route builds the
tensor itself with `BigradedComplex.tensor` and `staircase_dual(n)` and
takes its plain level-s complex. Both must give the same gradings and
columns, generator (j, k) at index j * (2n + 1) + k in each. The program
reads Y_n off a cone of minimal models instead (`invariants._cone`),
which must give the Y_n ladder of the tensor route.
"""

import random

from conftest import random_torus_sum, scramble
from oracle_homogeneity import fu_illegal_entries
from test_invariants import corpus

from knotfloer.builders import staircase_dual
from knotfloer.expressions import parse_knot_expr
from knotfloer.fu import FUComplex, tower_reduce
from knotfloer.invariants import a_level_complex, omega_plus, y_invariant
from knotfloer.involutive import realize_expr, realize_with_iota
from knotfloer.linalg import iter_bits, spread


def block_level(c, s, n):
    """Level s of C tensor St*_n, from C's columns: the block route.

    x(k - n) sits at bigrading (k, 2n - k), so generator (j, k), at index
    j * (2n + 1) + k, is c_j at level s + n - k with its grading raised by
    k. Its column is c_j's spread over the blocks plus the staircase
    arrows, U or V on both sides: the identity on c_j.
    """
    m = 2 * n + 1
    blocks = range(m)
    gradings = [
        k + (w - 2 * (a - t) if a > t else w)
        for w, a in zip(c.grw, c.alexander)
        for k, t in zip(blocks, range(s + n, s - n - 1, -1))
    ]
    # Even k maps by V to k - 1 and by U to k + 1.
    glue = [sum(1 << b for b in (k - 1, k + 1) if k % 2 == 0 and 0 <= b < m) for k in blocks]
    cols = []
    for j, col in enumerate(c.cols):
        left, base = spread(col, m), j * m
        cols.extend((left << k) ^ (glue[k] << base) for k in blocks)
    return FUComplex(gradings, list(map(iter_bits, cols)))


def tensor_y(c, n):
    """Y_n as -d/2 of the level-0 complex of the tensor."""
    return -tower_reduce(a_level_complex(c.tensor(staircase_dual(n)), 0)).top_grading() // 2


def _cases(seed, sums, scrambled):
    """Corpus, seeded torus sums with HW, and scrambled sums; each with its mirror."""
    rng = random.Random(seed)
    out = list(corpus().items())
    exprs = [random_torus_sum(rng, 3, 120) for _ in range(sums)]
    out += [(e + "#HW", realize_with_iota(parse_knot_expr(e + "#HW"))[0]) for e in exprs]
    for _ in range(scrambled):
        expr = random_torus_sum(rng, 2, 60)
        dense, _iota = scramble(*realize_with_iota(parse_knot_expr(expr)), rng)
        out.append(("scrambled " + expr, dense))
    return [(name, cc) for name, c in out for cc in (c, c.dual())]


def test_blocks_match_the_tensor_route():
    for name, c in _cases(1, 6, 6):
        for n in range(4):
            tensor = c.tensor(staircase_dual(n))
            for s in range(-2, 3):
                blocks, oracle = block_level(c, s, n), a_level_complex(tensor, s)
                assert blocks.gradings == oracle.gradings, (name, n, s)
                # The oracle's lists are ascending, and no list repeats a target.
                assert [sorted(t) for t in blocks.targets] == [sorted(t) for t in oracle.targets], (name, n, s)
                assert not fu_illegal_entries(blocks), (name, n, s)


def test_y_ladder_matches_the_tensor_route():
    for name, c in _cases(2, 4, 4):
        for n in range(omega_plus(c) + 3):
            assert y_invariant(c, n) == tensor_y(c, n), (name, n)


def test_y_ladder_of_a_5445_generator_sum():
    # The block route gives these values too, from levels of up to 19 x 5445 generators.
    c = realize_expr(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)#T(3,4)"))
    assert len(c) == 5445
    assert [y_invariant(c, n) for n in range(10)] == [4, 3, 3, 2, 2, 2, 1, 1, 0, 0]
    assert omega_plus(c) == 8
