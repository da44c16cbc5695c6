"""The homogeneity rule of `ChainMap.illegal_entries` against the independent oracle.

Each case injects entries with an odd gap, a negative even gap, or both
(one odd gap and one negative) into a valid map or complex, among them
the mirror's differential and involution, and compares
the faults found, and their order, with the scans of
`tests/oracle_homogeneity.py`. The reductions, level complexes and model
cones, which the program builds without a check, must pass those scans
as built, and so must every model cone and involutive cone a report
builds.
"""

import os
import random

import pytest

from conftest import random_torus_sum
from oracle_homogeneity import (
    fu_illegal_entries,
    fu_validate_messages,
    map_illegal_entries,
    validate_messages,
)

from knotfloer.complexes import BigradedComplex, ChainMap, SkewMap, basepoint_map, reduce_complex, verify_chain_map
from knotfloer.expressions import parse_knot_expr
from knotfloer import invariants, involutive
from knotfloer.invariants import a_level_complex
from knotfloer.involutive import mirror_iota, realize_with_iota

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
KINDS = ("odd", "negative", "mixed")
SEEDS = range(12)


def _kind(gaps) -> str:
    """The fault of an entry with these doubled exponents, or "" when it is legal."""
    odd = any(g % 2 for g in gaps)
    negative = any(g < 0 for g in gaps)
    if odd and negative:
        return "mixed"
    return "odd" if odd else "negative" if negative else ""


def _inject(rng, cols, gaps, count):
    """cols with `count` entries of random fault kinds set; gaps(i, j) gives their doubled exponents."""
    cols = list(cols)
    n = len(cols)
    for _ in range(count):
        kind = rng.choice(KINDS)
        i = rng.randrange(n)
        targets = [j for j in range(n) if _kind(gaps(i, j)) == kind]
        if targets:
            cols[i] |= 1 << rng.choice(targets)
    return cols


def _map_gaps(f):
    src, tgt = f.source, f.target
    dw, dz = f.bidegree
    if isinstance(f, SkewMap):
        return lambda i, j: (tgt.grw[j] - src.grz[i], tgt.grz[j] - src.grw[i])
    return lambda i, j: (tgt.grw[j] - src.grw[i] - dw, tgt.grz[j] - src.grz[i] - dz)


def _sum(seed):
    rng = random.Random(seed)
    expr = random_torus_sum(rng, 3, 150)
    c, iota = realize_with_iota(parse_knot_expr(expr))
    return rng, c, iota


def _maps(c, iota):
    identity = ChainMap(c, c, [1 << i for i in range(len(c))], (0, 0))
    # The mirror: negated gradings, and transposed columns of d and of iota.
    mirror = c.dual()
    return [c.d, basepoint_map(c, "U"), basepoint_map(c, "V"), identity, iota, mirror.d, mirror_iota(iota, mirror)]


@pytest.mark.parametrize("seed", SEEDS)
def test_map_checks_match_oracle(seed):
    rng, c, iota = _sum(seed)
    for f in _maps(c, iota):
        assert list(f.illegal_entries()) == map_illegal_entries(f) == []
        cols = _inject(rng, f.cols, _map_gaps(f), rng.randint(1, 6))
        if isinstance(f, SkewMap):
            bad = SkewMap(f.source, cols)
        else:
            bad = ChainMap(f.source, f.target, cols, f.bidegree)
        expected = map_illegal_entries(bad)
        assert list(bad.illegal_entries()) == expected
        assert verify_chain_map(bad) == (bad.problem(*expected[0]) if expected else verify_chain_map(f))


@pytest.mark.parametrize("seed", SEEDS)
def test_validate_matches_oracle(seed):
    rng, c, _iota = _sum(seed)
    d = c.d
    cols = _inject(rng, c.cols, _map_gaps(d), rng.randint(1, 6))
    bad = BigradedComplex(c.labels, c.grw, c.grz, cols)
    assert bad.validate() == validate_messages(bad)
    assert bad.validate()
    # Shifted generators: odd Alexander gradings, and gaps that change parity.
    shifted = [z + (rng.random() < 0.1) for z in c.grz]
    odd = BigradedComplex(c.labels, c.grw, shifted, cols)
    assert odd.validate() == validate_messages(odd)


@pytest.mark.parametrize("seed", SEEDS)
def test_fu_checks_match_oracle(seed):
    rng, c, _iota = _sum(seed)
    s, n = rng.randint(-2, 2), rng.randint(0, 2)
    fus = [reduce_complex(c, "U0"), reduce_complex(c, "V0"), a_level_complex(c, s), invariants._cone(c, n)]
    # FUComplex checks nothing itself: the reductions, levels and model cones are valid by construction.
    for fu in fus:
        assert fu_illegal_entries(fu) == fu_validate_messages(fu) == []


def test_report_cones_pass_the_scan(monkeypatch, capsys):
    # The model cones of Y_n and omega, and the involutive cones on M_0,
    # whose columns are not C's own either.
    from knotfloer.cli import main

    built, pairs = [], []
    real, real_pair = invariants._cone, involutive.ai0_cone

    def keeping(c, n):
        cone = real(c, n)
        built.append((n, cone))
        return cone

    def keeping_pair(iota):
        cone = real_pair(iota)
        pairs.append(cone)
        return cone

    monkeypatch.setattr(invariants, "_cone", keeping)
    monkeypatch.setattr(involutive, "ai0_cone", keeping_pair)
    for expr in ["T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)", "@" + os.path.join(DATA, "hw.cfk"),
                 "@" + os.path.join(DATA, "scrambled_k1.cfk")]:
        built.clear()
        pairs.clear()
        assert main(["report", "--expr", expr, "--format", "json"]) == 0, expr
        capsys.readouterr()
        assert any(n for n, _cone in built), expr
        # hw.cfk carries no involution; the others give one for C and one for its mirror.
        assert len(pairs) == (0 if expr.endswith("hw.cfk") else 2), expr
        for n, cone in built + [("ai0", cone) for cone in pairs]:
            assert fu_illegal_entries(cone) == fu_validate_messages(cone) == [], (expr, n)
