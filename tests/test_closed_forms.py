"""The program against the closed forms of `tests/oracle_closed_forms.py`.

V_s of seeded positive torus sums and the involutive pair of torus knots
and their mirrors, read from the complexes the program builds, must equal
the formulas read off the semigroups. So must Upsilon of torus knots and
of their signed sums, and the report's genus bounds must lie below the
sum of the summands' genera, and reach it on positive sums.
"""

import ast
import json
import math
import random
import re
from fractions import Fraction

import oracle_closed_forms
from conftest import TORUS_FACTORS, random_torus_sum
from oracle_closed_forms import genus, sum_v, torus_pair, torus_upsilon

from knotfloer.bounds import upsilon_of_expr
from knotfloer.cli import main
from knotfloer.expressions import parse_knot_expr
from knotfloer.invariants import v_invariant
from knotfloer.involutive import realize_with_iota, v0_bar_under

SEEDS = range(12)
TORUS_KNOTS = [(p, q) for p in range(2, 8) for q in range(p + 1, 14) if math.gcd(p, q) == 1]
GRID = [Fraction(k, 60) for k in range(121)]


def _factors(expr):
    """The (sign, p, q) of each summand of a torus-sum expression."""
    return [(-1 if sign else 1, int(p), int(q)) for sign, p, q in re.findall(r"(-?)T\((\d+),(\d+)\)", expr)]


def test_closed_forms_match_the_program():
    for seed in SEEDS:
        expr = random_torus_sum(random.Random(seed), 3, 400).replace("-", "")
        factors = [(int(p), int(q)) for p, q in re.findall(r"T\((\d+),(\d+)\)", expr)]
        c, _ = realize_with_iota(parse_knot_expr(expr))
        top = sum((p - 1) * (q - 1) // 2 for p, q in factors) + 1
        for s in range(-2, top + 1):
            assert v_invariant(c, s) == sum_v(factors, s), (expr, s)
    for p, q in TORUS_FACTORS:
        for mirrored in (False, True):
            expr = ("-" if mirrored else "") + f"T({p},{q})"
            assert v0_bar_under(*realize_with_iota(parse_knot_expr(expr))) == torus_pair(p, q, mirrored), expr


def test_closed_forms_oracle_imports_nothing_from_knotfloer():
    with open(oracle_closed_forms.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert imported <= {"functools", "math", "typing"}, imported


def test_upsilon_matches_the_torus_closed_form():
    # Every breakpoint of the program's function, and a grid of t, on each
    # torus knot T(p, q) with p < q, p <= 7 and q <= 13; on seeded signed
    # 3-term sums the closed form adds up with the signs.
    for p, q in TORUS_KNOTS:
        ups = upsilon_of_expr(parse_knot_expr(f"T({p},{q})"))
        for t in sorted({*ups.breakpoints, *GRID}):
            assert ups(t) == torus_upsilon(p, q, t), (p, q, t)
    for seed in range(20):
        rng = random.Random(seed)
        expr = "#".join(rng.choice(("", "-")) + "T(%d,%d)" % rng.choice(TORUS_KNOTS) for _ in range(3))
        ups = upsilon_of_expr(parse_knot_expr(expr))
        for t in sorted({*ups.breakpoints, *GRID}):
            assert ups(t) == sum(sign * torus_upsilon(p, q, t) for sign, p, q in _factors(expr)), (expr, t)


def test_slice_sum_reports_zero_everywhere(capsys):
    # K # -K is slice, so every concordance invariant of it, and every lower
    # bound on its genus and clasp number, is 0. Here K = T(2,11)#T(4,7).
    expr = "T(2,11)#T(4,7)#-T(2,11)#-T(4,7)"
    assert main(["report", "--expr", expr, "--involutive", "on", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generator_count"] == 14641
    for side in ("invariants", "mirror_invariants"):
        table = report[side]
        scalars = [table[key] for key in ("tau", "nu", "omega", "nu_plus", "omega_plus")]
        assert {*table["V"].values(), *table["Y"].values(), *scalars} == {0}, (side, table)
    for side in ("involutive", "mirror_involutive"):
        assert report[side] == {"v0_bar": 0, "v0_under": 0}, side
    assert report["bounds"]["genus"]["max"] == report["bounds"]["clasp"]["max"] == 0


def test_genus_bounds_lie_below_the_summed_genera(capsys):
    # A sum of torus knots bounds a surface of genus the sum of theirs, so no
    # genus source may exceed it; on a positive sum tau reaches it, and
    # nu+ >= tau, so the best bound equals it.
    for seed in range(18):
        expr = random_torus_sum(random.Random(seed), 3, 300)
        if seed % 2:
            expr = expr.replace("-", "")
        assert main(["report", "--expr", expr, "--format", "json"]) == 0
        bounds = json.loads(capsys.readouterr().out)["bounds"]["genus"]
        top = sum(genus(p, q) for _sign, p, q in _factors(expr))
        assert all(source["bound"] <= top for source in bounds["sources"].values()), (expr, bounds)
        if "-" not in expr:
            assert bounds["max"] == top, (expr, bounds)
