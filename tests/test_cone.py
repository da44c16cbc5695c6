"""Every cone the program builds through `fu.cone` and `fu.transfer`, against the hand assembly.

`tests/oracle_cone.py` lays the model cones of C tensor St*_n and the
involutive cones out block by block, as the program did before both went
through `fu`. Each cone a table or an involutive pair builds must have
the same gradings, columns and tie order, block by block.
"""

import random

from knotfloer import invariants, involutive
from knotfloer.expressions import parse_knot_expr
from knotfloer.invariants import compute_invariant_table
from knotfloer.involutive import mirror_iota, realize_with_iota, v0_bar_under

from conftest import random_torus_sum, scramble
from fu_views import fu_cols
from oracle_cone import involutive_cone, model_cone
from test_invariants import corpus


def _layout(fu):
    return fu.gradings, fu_cols(fu), fu.ties, fu.degrees


def _cases():
    """(name, complex, involution or None): J, K, K1, HW, four seeded sums and a scrambled one."""
    rng = random.Random(20261019)
    exprs = ["T(2,11)#T(4,7)#-T(5,6)", "T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)"]
    exprs += [random_torus_sum(rng, 3, 300) for _ in range(4)]
    cases = [(expr, *realize_with_iota(parse_knot_expr(expr))) for expr in exprs]
    cases.append(("HW", corpus()["HW"], None))
    expr = random_torus_sum(rng, 3, 150)
    cases.append(("scrambled " + expr, *scramble(*realize_with_iota(parse_knot_expr(expr)), rng)))
    return cases


def test_cones_match_the_hand_assembly(monkeypatch):
    built, pairs = [], []
    real_cone, real_pair = invariants._cone, involutive.ai0_cone

    def checked_cone(c, s, n):
        cone = real_cone(c, s, n)
        assert _layout(cone) == _layout(model_cone(c, s, n)), (s, n)
        built.append(n)
        return cone

    def checked_pair(c, iota):
        cone = real_pair(c, iota)
        assert _layout(cone) == _layout(involutive_cone(c, iota))
        pairs.append(c)
        return cone

    monkeypatch.setattr(invariants, "_cone", checked_cone)
    monkeypatch.setattr(involutive, "ai0_cone", checked_pair)
    with_iota = 0
    for name, c, iota in _cases():
        mirror = c.dual()
        for complex_, io in ((c, iota), (mirror, iota and mirror_iota(iota, mirror))):
            compute_invariant_table(complex_)
            if io is not None:
                v0_bar_under(complex_, io)
                with_iota += 1
    # Cones with n > 0, and one involutive cone per complex with an involution.
    assert sum(n > 0 for n in built) >= 30
    assert len(pairs) == with_iota == 16
