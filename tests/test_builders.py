from math import gcd

import pytest

from knotfloer.builders import (
    StepSequence,
    alexander_exponents,
    named_complex,
    staircase,
    staircase_dual,
    torus_knot_complex,
)
from knotfloer.errors import ValidationError

from conftest import ipoly_divexact, ipoly_mul
from oracle_terms import gen, terms


def expand_oracle(p, q):
    """Exact expansion oracle, checked by re-multiplication."""
    num = {p * q + 1: 1, p * q: -1, 1: -1, 0: 1}
    den1 = {p: 1, 0: -1}
    den2 = {q: 1, 0: -1}
    quot = ipoly_divexact(ipoly_divexact(num, den1), den2)
    assert ipoly_mul(ipoly_mul(quot, den1), den2) == num
    return quot


def test_exponents_trefoil():
    assert alexander_exponents(2, 3).exponents == (1, 0, -1)


def test_exponents_t25():
    assert alexander_exponents(2, 5).exponents == (2, 1, 0, -1, -2)


def test_exponents_t45():
    seq = alexander_exponents(4, 5)
    quot = expand_oracle(4, 5)
    assert seq.exponents[0] == 6
    assert len(seq.exponents) == len(quot)
    assert seq.exponents == tuple(sorted((e - 6 for e in quot), reverse=True))


def test_exponents_alternate_and_symmetric():
    # Every torus knot the benchmark draws (p < 14, q < 20), plus two larger ones.
    pairs = [(p, q) for p in range(2, 14) for q in range(p + 1, 20) if gcd(p, q) == 1]
    assert len(pairs) == 90
    for p, q in [(2, 7), (3, 5), (4, 7), (5, 6)] + pairs + [(13, 97), (19, 23)]:
        seq = alexander_exponents(p, q)
        s = seq.exponents
        g = (p - 1) * (q - 1) // 2
        assert s[0] == g
        assert all(s[i] == -s[len(s) - 1 - i] for i in range(len(s)))
        quot = expand_oracle(p, q)
        signs = [quot[e] for e in sorted(quot, reverse=True)]
        assert signs == [(-1) ** i for i in range(len(signs))]
        assert s == tuple(e - g for e in sorted(quot, reverse=True)), (p, q)


def test_non_coprime_rejected():
    with pytest.raises(ValidationError):
        alexander_exponents(2, 4)
    with pytest.raises(ValidationError):
        alexander_exponents(1, 5)


def test_step_sequence_invariants():
    with pytest.raises(ValidationError):
        StepSequence((2, 1, 0, -1))  # even length
    with pytest.raises(ValidationError):
        StepSequence((1, 0, -2))  # asymmetric
    with pytest.raises(ValidationError, match="^exponents must be strictly decreasing$"):
        StepSequence((0, 0, 0))


def test_staircase_small():
    assert len(staircase(0).gens) == 1
    assert staircase(0).gens[0].grw == 0
    s2 = staircase(2)
    assert len(s2.gens) == 5
    assert gen(s2, "y2").grw == -4 and gen(s2, "y2").grz == 0
    assert gen(s2, "y-2").alexander == 2
    assert [gen(s2, f"y{i}").alexander for i in range(-2, 3)] == [2, 1, 0, -1, -2]
    with pytest.raises(ValidationError, match="^staircase index must be nonnegative$"):
        staircase(-1)


def test_staircase_dual_gradings():
    d1 = staircase_dual(1)
    assert [(g.name, g.grw, g.grz) for g in d1.gens] == [
        ("x-1", 0, 2),
        ("x0", 1, 1),
        ("x1", 2, 0),
    ]
    assert staircase_dual(0).gens[0].grw == 0
    # differential is the transpose of the staircase differential
    s1 = staircase(1)
    via_dual = s1.dual()
    renaming = {"y-1*": "x-1", "y0*": "x0", "y1*": "x1"}
    assert terms(via_dual.relabel(renaming)) == terms(d1)
    assert terms(d1) == [("x-1", "x0", 1, 0), ("x1", "x0", 0, 1)]


def test_staircase_dual_alexander():
    d3 = staircase_dual(3)
    assert gen(d3, "x-3").alexander == -3
    assert gen(d3, "x3").alexander == 3


def test_torus_trefoil_is_staircase():
    t = torus_knot_complex(2, 3)
    s = staircase(1)
    assert [(g.grw, g.grz) for g in t.gens] == [(g.grw, g.grz) for g in s.gens]
    renaming = {"g0": "y-1", "g1": "y0", "g2": "y1"}
    assert terms(t.relabel(renaming)) == terms(s)
    assert terms(s) == [("y0", "y-1", 1, 0), ("y0", "y1", 0, 1)]


def test_torus_2_11_matches_staircase_5():
    t = torus_knot_complex(2, 11)
    s = staircase(5)
    assert len(t.gens) == 11
    assert max(g.alexander for g in t.gens) == 5
    assert [(g.grw, g.grz) for g in t.gens] == [(g.grw, g.grz) for g in s.gens]


def test_torus_4_7():
    t = torus_knot_complex(4, 7)
    assert len(t.gens) == 11  # nonzero Alexander coefficients, genus 9
    assert max(g.alexander for g in t.gens) == 9
    assert t.validate() == []
    assert t.dual().validate() == []


def test_named_registry():
    assert len(named_complex("HW").gens) == 3
    with pytest.raises(ValidationError):
        named_complex("nope")
