"""The report's level-0 certificate against its first definition (`oracle_certificate`)."""

import os
import random

from knotfloer.cli import _tower_certificate
from knotfloer.errors import FileFormatError, ValidationError
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.invariants import level_split, release_to_dual, require_knot_complex
from knotfloer.involutive import realize_with_iota

from conftest import random_torus_sum, scramble
from oracle_certificate import certificate

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def check(c, where):
    """c's certificate equals the oracle's on the same split, and is not empty."""
    got = _tower_certificate(c)
    assert got and got == certificate(c.labels, c.alexander, level_split(c, 0)), where


def check_with_mirror(c, where):
    check(c, where)
    check(release_to_dual(c), f"mirror of {where}")


def test_certificate_of_seeded_sums_mirrors_and_scrambles():
    rng = random.Random(20261020)
    checked = 0
    while checked < 12:
        expr = random_torus_sum(rng, 4, 600)
        if "#" not in expr:
            continue
        c, iota = realize_with_iota(parse_knot_expr(expr))
        copy = scramble(c, iota, rng)[0]
        check_with_mirror(c, expr)
        check_with_mirror(copy, f"scrambled {expr}")
        checked += 1


def test_certificate_of_every_data_file_that_reports():
    reported = []
    for name in sorted(os.listdir(DATA)):
        try:
            c = load_complex(os.path.join(DATA, name))[0]
            require_knot_complex(c)
        except (FileFormatError, ValidationError):  # not UTF-8, or not a knot complex: no report
            continue
        check_with_mirror(c, name)
        reported.append(name)
    assert reported == ["hw.cfk", "scrambled_k1.cfk", "scrambled_k1_v2.cfk", "unit_pair.cfk"]


def test_certificate_of_a_saved_sum(tmp_path):
    expr = "T(2,3)#T(4,7)#-T(5,6)"
    c, iota = realize_with_iota(parse_knot_expr(expr))
    path = str(tmp_path / "sum.cfk")
    save_complex(c, path, expr, iota)
    check_with_mirror(load_complex(path)[0], path)
