"""The block builder of C tensor St*_n against the tensor route.

`a_level_complex(c, s, n)` builds level s of C tensor the n-step dual
staircase from C's columns alone: the levels A_(s+n)(C), ..., A_(s-n)(C)
side by side, glued by the staircase arrows. The oracle builds the
tensor itself with `BigradedComplex.tensor` and `staircase_dual(n)` and
takes its plain level-s complex. Both must give the same gradings and
columns, generator (j, k) at index j * (2n + 1) + k in each, and the same
Y_n ladder.
"""

import random

from conftest import random_torus_sum, scramble
from oracle_homogeneity import fu_illegal_entries
from test_invariants import corpus

from knotfloer.builders import staircase_dual
from knotfloer.expressions import parse_knot_expr
from knotfloer.invariants import a_level_complex, d_invariant, omega_plus, y_invariant
from knotfloer.involutive import realize_with_iota


def tensor_y(c, n):
    """Y_n as -d/2 of the level-0 complex of the tensor."""
    return -d_invariant(a_level_complex(c.tensor(staircase_dual(n)), 0)) // 2


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
                blocks, oracle = a_level_complex(c, s, n), a_level_complex(tensor, s)
                assert blocks.gradings == oracle.gradings, (name, n, s)
                assert blocks.cols == oracle.cols, (name, n, s)
                # The builder does not check its levels: every T-power must be natural.
                assert not fu_illegal_entries(blocks), (name, n, s)


def test_y_ladder_matches_the_tensor_route():
    for name, c in _cases(2, 4, 4):
        for n in range(omega_plus(c) + 3):
            assert y_invariant(c, n) == tensor_y(c, n), (name, n)
