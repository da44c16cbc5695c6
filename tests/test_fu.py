import os
import random

import pytest

from knotfloer.builders import staircase, staircase_dual, torus_knot_complex
from knotfloer.complexes import reduce_complex
from knotfloer.errors import FileFormatError, ValidationError
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex
from knotfloer.fu import FUComplex, tower_reduce
from knotfloer.invariants import _quotient, a_level_complex, release_to_dual
from knotfloer.involutive import realize_expr, realize_with_iota
from knotfloer.linalg import image, iter_bits

from conftest import UNKNOT, level_monomials, random_fu_complex, random_torus_sum, scramble
from fu_views import fu_cols, tower_terms
from oracle_involutive import power
from oracle_snf import oracle_rank_and_top, oracle_torsion

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_unknot_level_zero():
    fu = a_level_complex(UNKNOT, 0)
    assert tower_reduce(fu).top_grading() == 0


def test_staircase_level_zero():
    c = staircase(1)
    level = a_level_complex(c, 0)
    # basis: U y(-1) at -2, y0 at -1, V y1 at -2; d(y0) = both, power 0
    assert level.gradings == (-2, -1, -2)
    assert level_monomials(c, level, 0) == ((1, 0), (0, 0), (0, 1))
    assert tower_reduce(level).top_grading() == -2


def test_staircase_level_one():
    c = staircase(1)
    level = a_level_complex(c, 1)
    assert level.gradings == (0, -1, -2)
    assert level_monomials(c, level, 1) == ((0, 0), (0, 1), (0, 2))
    # d(V y0) = T y(-1) + V^2 y1: T-power 1 on the first arrow
    j, i = c.index["y0"], c.index["y-1"]
    assert (fu_cols(level)[j] >> i) & 1
    assert power(level, i, j) == 1
    assert tower_reduce(level).top_grading() == 0


def test_reduction_matches_oracle_on_structured():
    cases = [
        a_level_complex(staircase(2), 0),
        a_level_complex(staircase_dual(2), 0),
        a_level_complex(torus_knot_complex(3, 4), 0),
        a_level_complex(torus_knot_complex(3, 4).dual(), 1),
    ]
    for fu in cases:
        red = tower_reduce(fu)
        assert (red.rank, red.top_grading()) == oracle_rank_and_top(fu)


def test_reduction_matches_oracle_1000_random():
    rng = random.Random(987654321)
    rank_one = 0
    for _ in range(1000):
        fu = random_fu_complex(rng)
        red = tower_reduce(fu)
        rank_o, top_o = oracle_rank_and_top(fu)
        assert red.rank == rank_o
        if rank_o == 1:
            rank_one += 1
            assert red.top_grading() == top_o
    assert rank_one > 100  # the comparison actually exercised towers


def is_homogeneous_cycle(fu, rep, grading) -> bool:
    """rep is a cycle of fu, and each term sits in the given grading."""
    if any(fu.gradings[i] - 2 * k != grading for i, k in rep):
        return False
    acc, cols = {}, fu_cols(fu)
    for i, k in rep:
        rest = cols[i]
        while rest:
            low = rest & -rest
            m = low.bit_length() - 1
            rest ^= low
            key = (m, k + power(fu, m, i))
            acc[key] = acc.get(key, 0) ^ 1
    return all(v == 0 for v in acc.values())


def test_representatives_are_cycles():
    level = a_level_complex(torus_knot_complex(3, 4), 0)
    red = tower_reduce(level)
    assert red.rank == 1
    assert is_homogeneous_cycle(level, tower_terms(red), red.top_grading())


@pytest.mark.parametrize("expr", ["T(2,3)#T(2,3)", "-T(2,3)#-T(2,3)"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_staircase_twisted_levels_match_oracle(expr, n):
    # Nearly half the columns of these level complexes are cleared.
    c = realize_expr(parse_knot_expr(expr)).tensor(staircase_dual(n))
    fu = a_level_complex(c, 0)
    red = tower_reduce(fu)
    assert (red.rank, red.top_grading()) == oracle_rank_and_top(fu)
    assert is_homogeneous_cycle(fu, tower_terms(red), red.top_grading())
    assert fu.gradings[red.indices[0]] == red.unpaired[0]


def check_cocycle(fu, grading=None):
    """The cocycle of fu's reduction: even against every column, odd against the tower cycle.

    Given the gradings of a knot complex, it also lies in one of their
    classes, where the grading slice of `invariants._hat_ends` looks.
    """
    red = tower_reduce(fu)
    phi = red.cocycle()
    assert all((phi & col).bit_count() % 2 == 0 for col in fu_cols(fu))
    assert (phi & sum(1 << i for i, _power in tower_terms(red))).bit_count() % 2 == 1
    if grading is not None:
        assert len({grading[i] for i in iter_bits(phi)}) == 1


def test_cocycle_detects_the_tower_of_random_complexes():
    rng = random.Random(20261025)
    checked = 0
    while checked < 400:
        fu = random_fu_complex(rng, 10)
        if tower_reduce(fu).rank == 1:
            check_cocycle(fu)
            checked += 1


def test_cocycle_of_the_corpus_quotients_lies_in_one_grading():
    from test_invariants import corpus

    rng = random.Random(20261026)
    complexes = list(corpus().values())
    for expr in ("T(2,3)", "T(3,4)", "T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)"):
        complexes += [scramble(*realize_with_iota(parse_knot_expr(expr)), rng)[0] for _ in range(3)]
    for c in complexes:
        for complex_ in (c, c.dual()):
            check_cocycle(reduce_complex(complex_, "U0"), complex_.grw)
            check_cocycle(reduce_complex(complex_, "V0"), complex_.grz)
    # The cocycles a sum reads off its summands', and its report mirror off the sum's.
    for _ in range(8):
        c = realize_expr(parse_knot_expr(random_torus_sum(rng, 4, 400)))
        for complex_ in (c, release_to_dual(c)):
            for mode, grading in (("U0", complex_.grw), ("V0", complex_.grz)):
                index, cocycle, _cycle = _quotient(complex_, mode)
                assert {grading[i] for i in iter_bits(cocycle)} == {grading[index]}


def _as_reduced(red):
    """What a reduction reports: towers, their cycles, the cocycle and the pairs of basis indices."""
    order = red.order
    pairs = {(order[row], order[col]) for row, col in red.pairs.items()}
    return red.unpaired, red.indices, [tower_terms(red, t) for t in range(red.rank)], red.cocycle(), pairs


def _quotient_sources():
    """Seeded sums, their mirrors and scrambled copies, and every complex in tests/data."""
    rng = random.Random(20261019)
    out = []
    for _ in range(10):
        c, iota = realize_with_iota(parse_knot_expr(random_torus_sum(rng, 3, 300)))
        out += [c, c.dual(), scramble(c, iota, rng)[0]]
    for name in sorted(os.listdir(DATA)):
        try:
            out.append(load_complex(os.path.join(DATA, name))[0])
        except FileFormatError:  # not UTF-8
            pass
    return out


def test_degree_order_reduces_quotients_as_position_order():
    # A quotient's columns are reduced class by class in descending dropped
    # grading, so each pivot row is cleared before it is reached. Without
    # degrees the same columns are reduced in position order; both give the
    # same towers, cycles, cocycle and pairs. tests/data/unit_pair.cfk has
    # an entry in both quotients.
    for c in _quotient_sources():
        for mode, drop in (("U0", c.grw), ("V0", c.grz)):
            fu = reduce_complex(c, mode)
            assert fu.degrees == drop
            by_position = FUComplex(fu.gradings, fu.targets, ties=fu.ties)
            assert _as_reduced(tower_reduce(fu)) == _as_reduced(tower_reduce(by_position)), (c.labels[:3], mode)


def test_rank_errors():
    two_towers = FUComplex((0, 0), ([], []))
    with pytest.raises(ValidationError):
        tower_reduce(two_towers).top_grading()


def check_split(fu, torsion=True, tower=True):
    """The split of fu: M has its towers and torsion, pi iota = 1, and iota and pi are chain maps.

    The Smith-form oracle gives the torsion (`torsion`) and the towers
    (`tower`) of fu. M keeps no unit entry, so it is |fu| less twice the
    number of unit invariant factors of fu.
    """
    split = tower_reduce(fu)
    model, inc = split.model, split.inc
    if torsion:
        factors = oracle_torsion(fu)
        assert oracle_torsion(model) == [k for k in factors if k]
        assert len(model) == len(fu) - 2 * factors.count(0)
    if tower:
        assert oracle_rank_and_top(model) == oracle_rank_and_top(fu)
    reduced, again = tower_reduce(fu), tower_reduce(model)
    assert reduced.unpaired == again.unpaired
    for m, vec in enumerate(inc):
        assert split.project(vec) == 1 << m
        assert image(fu_cols(fu), vec) == image(inc, fu_cols(model)[m])
    for j, col in enumerate(fu_cols(fu)):
        assert split.project(col) == image(fu_cols(model), split.project(1 << j))


def test_split_matches_smith_form_on_random_complexes():
    rng = random.Random(20261018)
    for _ in range(400):
        check_split(random_fu_complex(rng, 10))


def test_split_of_corpus_levels():
    from test_invariants import corpus

    for c in corpus().values():
        for complex_ in (c, c.dual()):
            for s in range(-3, 4):
                # The Smith form of a 297-generator level takes about a second, and the tower oracle longer.
                level = a_level_complex(complex_, s)
                check_split(level, torsion=len(level) < 100 or s == 0, tower=len(level) < 20)
