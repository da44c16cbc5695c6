"""The negative levels of a reversal-symmetric complex, read off the positive ones through sigma.

`invariants.level_split` stores level -s with level s > 0 when index
reversal sigma is a skew chain automorphism of the complex
(`BigradedComplex.reversal_symmetric`), and `invariants._cone` reuses
the glue between two positive levels for their negative twins. Two
independent checks:

* every stored split equals `tower_reduce` of its own level complex,
  field by field;
* every invariant equals that of a scrambled copy (`conftest.scramble`),
  which is locally equivalent but not reversal-symmetric, so each of its
  levels is reduced directly.

And a table and an involutive pair build no negative level of a
reversal-symmetric complex, while those of a scrambled copy do.

Inputs: seeded sums of torus knots, their mirrors, and HW with the index
reflection as its involution.
"""

import random

import pytest

from knotfloer import invariants
from knotfloer.builders import named_complex
from knotfloer.expressions import parse_knot_expr
from knotfloer.fu import tower_reduce
from knotfloer.invariants import (
    a_level_complex,
    compute_invariant_table,
    level_split,
    nu_hat,
    omega_hat,
    omega_plus,
    v_invariant,
    y_invariant,
)
from knotfloer.involutive import mirror_iota, realize_with_iota, staircase_iota, v0_bar_under

from conftest import random_torus_sum, scramble
from fu_views import fu_cols

SEEDS = range(6)


def _symmetric_inputs(seed):
    """(name, complex, involution) of two seeded sums and their mirrors, and, for seed 0, K and HW."""
    rng = random.Random(20261020 + seed)
    exprs = [random_torus_sum(rng, 3, 300) for _ in range(2)] + (["T(2,3)#T(4,7)#-T(5,6)"] if seed == 0 else [])
    out = []
    for expr in exprs:
        c, iota = realize_with_iota(parse_knot_expr(expr))
        mirror = c.dual()
        out += [(expr, c, iota), ("-(" + expr + ")", mirror, mirror_iota(iota, mirror))]
    if seed == 0:
        hw = named_complex("HW")
        out.append(("HW", hw, staircase_iota(hw)))  # sigma is a skew chain automorphism of HW
    return out


def _scrambled(c, iota, rng):
    """A scrambled copy of (c, iota) that is not reversal-symmetric, so each of its levels is reduced directly."""
    while True:
        dense, dense_iota = scramble(c, iota, rng)
        if not dense.reversal_symmetric:
            return dense, dense_iota


def _fields(split):
    model = split.model
    return {
        "order": split.order,
        "pos": list(split.pos),
        "pairs": split.pairs,
        "vectors": split.vectors,
        "unpaired": split.unpaired,
        "indices": split.indices,
        "model": (model.gradings, fu_cols(model)),
        "inc": split.inc,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_every_stored_split_is_the_reduction_of_its_level(seed):
    rng = random.Random(1000 + seed)
    for name, c, iota in _symmetric_inputs(seed):
        assert c.reversal_symmetric, name
        levels = range(min(c.alexander) - 1, max(c.alexander) + 2)
        for complex_ in (c, _scrambled(c, iota, rng)[0]):
            for s in levels:
                split = level_split(complex_, s)
                level = a_level_complex(complex_, s)
                # The split's complex is level s, with a tie order of its own.
                assert (split.fu.gradings, fu_cols(split.fu), split.fu.targets) == (level.gradings, fu_cols(level), level.targets)
                assert sorted(split.fu.ties) == list(range(len(complex_)))
                again = tower_reduce(split.fu)
                mine, want = _fields(split), _fields(again)
                for field in want:
                    assert mine[field] == want[field], (name, s, field)
        # On the symmetric complex, -s shares the basis of s, with the reflected tie order.
        for s in levels:
            if s > 0:
                plus, minus = level_split(c, s), level_split(c, -s)
                assert minus.vectors is plus.vectors and minus.pairs is plus.pairs
                assert minus.fu.ties == [len(c) - 1 - i for i in c.label_order]


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_match_the_scrambled_copy(seed):
    rng = random.Random(2000 + seed)
    for name, c, iota in _symmetric_inputs(seed):
        dense, dense_iota = _scrambled(c, iota, rng)
        levels = range(min(c.alexander) - 1, max(c.alexander) + 2)
        assert [v_invariant(c, s) for s in levels] == [v_invariant(dense, s) for s in levels], name
        ladder = range(omega_plus(c) + 2)
        assert [y_invariant(c, k) for k in ladder] == [y_invariant(dense, k) for k in ladder], name
        assert (nu_hat(c), omega_hat(c)) == (nu_hat(dense), omega_hat(dense)), name
        assert v0_bar_under(iota) == v0_bar_under(dense_iota), name
        # Both routes ran: sigma on c, the direct reduction on its copy.
        assert any(s < 0 for s in c._splits) and any(s < 0 for s in dense._splits)


def test_a_symmetric_complex_builds_no_negative_level(monkeypatch):
    # J's mirror has tau < 0, so its nu candidates are negative levels; every
    # one is read off its positive twin. The scrambled copies build their own.
    built = []
    real = invariants.a_level_complex

    def recording(c, s):
        built.append(s)
        return real(c, s)

    monkeypatch.setattr(invariants, "a_level_complex", recording)
    j, j_iota = realize_with_iota(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)"))
    mirror, hw = j.dual(), named_complex("HW")
    inputs = [("J", j, j_iota), ("-J", mirror, mirror_iota(j_iota, mirror)), ("HW", hw, staircase_iota(hw))]
    rng = random.Random(3000)
    for name, c, iota in inputs:
        built.clear()
        compute_invariant_table(c)
        v0_bar_under(iota)
        assert built and min(built) >= 0, name
        built.clear()
        dense, dense_iota = _scrambled(c, iota, rng)
        compute_invariant_table(dense)
        v0_bar_under(dense_iota)
        assert min(built) < 0, name
