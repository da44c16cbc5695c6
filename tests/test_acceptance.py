"""Acceptance suite: one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines. Every
numeric check is exact; no tolerances appear anywhere.
"""

import json
import os
import random

from knotfloer.bounds import (
    genus_bounds,
    lt_signature_of_expr,
    signature_clasp_bound,
    upsilon_of_expr,
    upsilon_ratio_bound,
)
from knotfloer.builders import named_complex, staircase, staircase_dual, torus_knot_complex
from knotfloer.cli import main
from knotfloer.expressions import parse_knot_expr
from knotfloer.fu import tower_reduce
from knotfloer.invariants import (
    compute_invariant_table,
    nu_plus,
    omega_plus,
    tau_invariant,
    v_invariant,
    y_invariant,
)
from knotfloer.involutive import realize_expr, realize_with_iota, v0_bar_under

from conftest import random_fu_complex
from oracle_snf import oracle_rank_and_top
from oracle_upsilon import step_value

K_EXPR = "T(2,3)#T(4,7)#-T(5,6)"
J_EXPR = "T(2,11)#T(4,7)#-T(5,6)"
K1_EXPR = "T(2,11)#-T(4,5)"
DATA = os.path.join(os.path.dirname(__file__), "data")


def _passed(number: int, text: str) -> None:
    print(f"criterion {number}: {text}: PASS")


def test_criterion_1_example_knot():
    k = realize_expr(parse_knot_expr(K_EXPR))
    assert [v_invariant(k, s) for s in range(4)] == [1, 0, 0, 0]
    mirror = k.dual()
    assert v_invariant(mirror, 0) == 1
    assert [v_invariant(mirror, s) for s in (1, 2, 3)] == [0, 0, 0]
    assert y_invariant(k, 0) == 1 and y_invariant(k, 1) == 1
    assert omega_plus(k) == 2
    _passed(1, "V/Y/omega+ of T(2,3)#T(4,7)#-T(5,6)")


def test_criterion_2_bigger_knot():
    j = realize_expr(parse_knot_expr(J_EXPR))
    table = compute_invariant_table(j)
    assert [table.v[s] for s in range(6)] == [3, 2, 2, 1, 1, 0]
    assert [table.y[n] for n in range(7)] == [3, 2, 2, 1, 1, 1, 0]
    report = genus_bounds(table, None)
    assert report["sources"]["v_parity"]["bound"] == 5
    assert report["sources"]["y_parity"]["bound"] == 6
    _passed(2, "V/Y sequences and genus bounds of T(2,11)#T(4,7)#-T(5,6)")


def test_criterion_3_model_complex_from_file(capsys):
    code = main(["report", "--expr", f"@{DATA}/hw.cfk", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    inv = json.loads(out)["invariants"]
    assert inv["tau"] == 2
    assert inv["nu"] == 2
    assert inv["omega"] == 3
    assert inv["V"]["0"] == 2
    _passed(3, "file input: tau=2, nu=2, omega=3, V0=2")


def test_criterion_4_involutive():
    granny, granny_iota = realize_with_iota(parse_knot_expr("T(2,3)#T(2,3)"))
    assert v0_bar_under(granny_iota)[1] == 2
    k, k_iota = realize_with_iota(parse_knot_expr(K_EXPR))
    assert v0_bar_under(k_iota) == (1, 2)
    unknot = staircase(0)
    from knotfloer.involutive import staircase_iota

    assert v0_bar_under(staircase_iota(unknot)) == (0, 0)
    _passed(4, "involutive corrections: doubled trefoil, example knot, unknot")


def test_criterion_5_upsilon():
    e = parse_knot_expr(K1_EXPR)
    assert tau_invariant(realize_expr(e)) == -1
    ups = upsilon_of_expr(e)
    assert ups(1) == -1
    assert ups.initial_slope() == 1
    assert upsilon_ratio_bound(ups) == 2
    triple = parse_knot_expr("#".join([K1_EXPR] * 3))
    assert upsilon_ratio_bound(upsilon_of_expr(triple)) == 6
    _passed(5, "upsilon data and ratio clasp bounds")


def test_criterion_6_signatures():
    from fractions import Fraction

    j = lt_signature_of_expr(parse_knot_expr(J_EXPR))
    assert signature_clasp_bound(j)[:2] == (2, -10)
    k = lt_signature_of_expr(parse_knot_expr(K_EXPR))
    assert signature_clasp_bound(k)[:2] == (2, -4)
    assert step_value(lt_signature_of_expr(parse_knot_expr("T(2,3)")), Fraction(1, 2)) == -2
    assert step_value(lt_signature_of_expr(parse_knot_expr("T(3,4)")), Fraction(1, 2)) == -6
    _passed(6, "signature extrema and classical pins")


def test_criterion_7_nu_plus_pair():
    k1 = realize_expr(parse_knot_expr(K1_EXPR))
    a = nu_plus(k1)
    b = nu_plus(k1.dual())
    assert a == 1 and b == 1
    assert a + b == 2
    _passed(7, "nu+ of the family knot and its mirror, clasp bound 2")


def test_criterion_8_property_suites():
    rng = random.Random(55555)
    # d^2 = 0 and homogeneity on 100 random staircase tensor products
    for _ in range(100):
        factors = []
        for _ in range(rng.randint(2, 3)):
            c = (staircase if rng.random() < 0.5 else staircase_dual)(rng.randint(0, 3))
            if rng.random() < 0.3:
                c = c.dual()
            factors.append(c)
        t = factors[0]
        for f in factors[1:]:
            t = t.tensor(f)
        assert t.validate() == []

    corpus = {
        "T(2,3)": torus_knot_complex(2, 3),
        "T(2,5)": torus_knot_complex(2, 5),
        "T(3,4)": torus_knot_complex(3, 4),
        "T(4,5)": torus_knot_complex(4, 5),
        "K": realize_expr(parse_knot_expr(K_EXPR)),
        "K1": realize_expr(parse_knot_expr(K1_EXPR)),
        "HW": named_complex("HW"),
    }
    for name, c in corpus.items():
        table = compute_invariant_table(c)
        assert table.y[0] == table.v[0], name
        for n, y in table.y.items():
            if n in table.v:
                assert table.v[n] <= y, name
        for s in range(table.nu_plus):
            assert table.v[s + 1] <= table.v[s] <= table.v[s + 1] + 1, name
        for n in range(table.omega_plus):
            assert table.y[n + 1] <= table.y[n] <= table.y[n + 1] + 1, name
        assert table.nu_hat in (table.tau, table.tau + 1), name
        assert table.omega_hat in (table.tau, table.tau + 1) or (
            table.tau < 0 and table.omega_hat == 0
        ), name
        assert table.nu_hat <= table.omega_hat, name
        assert tau_invariant(c.dual()) == -table.tau, name

    for expr in ["T(2,3)", "T(2,5)", "T(3,4)", "T(4,5)", K_EXPR, K1_EXPR]:
        c, iota = realize_with_iota(parse_knot_expr(expr))
        v_bar, v_under = v0_bar_under(iota)
        assert v_bar <= v_invariant(c, 0) <= v_under, expr

    for text in ["T(2,3)", "T(3,4)", K1_EXPR]:
        ups = upsilon_of_expr(parse_knot_expr(text))
        for t in ups.breakpoints:
            assert ups(t) == ups(2 - t)
        mirrored = "#".join(
            p[1:] if p.startswith("-") else "-" + p for p in text.split("#")
        )
        doubled = upsilon_of_expr(parse_knot_expr(text + "#" + mirrored))
        assert all(v == 0 for v in doubled.values)

    rng2 = random.Random(987654321)
    rank_one = 0
    for _ in range(1000):
        fu = random_fu_complex(rng2)
        red = tower_reduce(fu)
        rank_o, top_o = oracle_rank_and_top(fu)
        assert red.rank == rank_o
        if rank_o == 1:
            rank_one += 1
            assert red.top_grading() == top_o
    assert rank_one > 100
    _passed(8, "property suites (tensors, corpus laws, towers vs oracle)")


def test_criterion_9_determinism(capsys):
    args = ["report", "--expr", K_EXPR, "--format", "json"]
    assert main(args) == 0
    first, _ = capsys.readouterr()
    assert main(args) == 0
    second, _ = capsys.readouterr()
    assert first == second
    _passed(9, "byte-identical structured report on repeat runs")
