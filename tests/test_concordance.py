"""Concordance laws on seeded torus-knot sums.

K # -K is slice, so every concordance invariant vanishes on it
(Hom-Wu for V_0 and nu+, Hendricks-Manolescu for the involutive pair);
tau changes sign under mirroring; Y_0 = V_0 because the 0-step dual
staircase is the unknot; and the involutive pair brackets V_0.
"""

import random

from knotfloer.builders import staircase_dual
from knotfloer.expressions import parse_knot_expr
from knotfloer.invariants import nu_plus, tau_invariant, v_invariant, y_invariant
from knotfloer.involutive import realize_with_iota, v0_bar_under

from conftest import random_torus_sum


def _mirror_text(expr: str) -> str:
    return "#".join(p[1:] if p.startswith("-") else "-" + p for p in expr.split("#"))


def test_concordance_laws_on_seeded_sums():
    rng = random.Random(8675309)
    for _ in range(15):
        expr = random_torus_sum(rng, 2, 49)
        c, io = realize_with_iota(parse_knot_expr(expr))
        v_bar, v_under = v0_bar_under(c, io)
        v0 = v_invariant(c, 0)
        assert v_bar <= v0 <= v_under, expr
        assert y_invariant(c, 0) == v0, expr
        assert v_invariant(c.tensor(staircase_dual(0)), 0) == v0, expr
        mirror, _ = realize_with_iota(parse_knot_expr(_mirror_text(expr)))
        assert tau_invariant(mirror) == -tau_invariant(c), expr

        slice_, slice_io = realize_with_iota(parse_knot_expr(expr + "#" + _mirror_text(expr)))
        assert v0_bar_under(slice_, slice_io) == (0, 0), expr
        assert v_invariant(slice_, 0) == 0, expr
        assert nu_plus(slice_) == 0, expr
