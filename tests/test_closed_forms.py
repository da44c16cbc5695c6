"""The program against the closed forms of `tests/oracle_closed_forms.py`.

V_s of seeded positive torus sums and the involutive pair of torus knots
and their mirrors, read from the complexes the program builds, must equal
the formulas read off the semigroups.
"""

import ast
import random
import re

import oracle_closed_forms
from conftest import TORUS_FACTORS, random_torus_sum
from oracle_closed_forms import sum_v, torus_pair

from knotfloer.expressions import parse_knot_expr
from knotfloer.invariants import v_invariant
from knotfloer.involutive import realize_with_iota, v0_bar_under

SEEDS = range(12)


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
