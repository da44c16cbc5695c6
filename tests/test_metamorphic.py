"""Invariants are unchanged by a change of basis and by acyclic boxes.

`scramble` turns a torus sum into a dense, iota-locally equivalent copy.
The copy goes through `save_complex` and `load_complex`, so the loader's
single pass reads dense columns that torus sums never produce; V_0, tau
and the involutive pair of what it reads must be those of the sum, and
so must its report through the command line, in every section that
files have. `tests/data/scrambled_k1.cfk` is one such copy, of
K1 = T(2,11)#-T(4,5), in format 1; its report must agree with K1's on
the invariants, the involutive pair and the genus bounds, for both
mirrors. `tests/data/scrambled_k1_v2.cfk` is its format-2 save and must
load to the same complex and give the same report.
"""

import json
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_torus_sum, scramble
from test_fileio import PROPERTY

from knotfloer.cli import main
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.invariants import tau_invariant, v_invariant
from knotfloer.involutive import realize_with_iota, v0_bar_under


def _invariants(c, iota):
    return v_invariant(c, 0), tau_invariant(c), v0_bar_under(c, iota)


@settings(max_examples=30, **PROPERTY)
@given(seed=st.integers(0, 2**32 - 1))
def test_scrambled_sum_keeps_invariants_through_a_file(tmp_path, seed):
    rng = random.Random(seed)
    expr = random_torus_sum(rng, 3, 150)
    c, iota = realize_with_iota(parse_knot_expr(expr))
    dense, dense_iota = scramble(c, iota, rng)
    path = tmp_path / "scrambled.cfk"
    save_complex(dense, str(path), expr, dense_iota)
    loaded, loaded_iota = load_complex(str(path))
    assert loaded.cols == dense.cols and loaded_iota.cols == dense_iota.cols
    assert _invariants(loaded, loaded_iota) == _invariants(c, iota), expr


def _file_sections(report):
    """The report sections that a complex file has too.

    Files carry no torus terms, so they have no upsilon and no signature,
    nor the clasp sources and the clasp maximum built from those two.
    """
    clasp = dict(report["bounds"]["clasp"])
    clasp["sources"] = {
        name: source for name, source in clasp["sources"].items() if name not in ("upsilon_ratio", "signature")
    }
    del clasp["max"]
    keys = ("invariants", "mirror_invariants", "involutive", "mirror_involutive")
    return {key: report[key] for key in keys}, report["bounds"]["genus"], clasp


@settings(max_examples=20, **PROPERTY)
@given(seed=st.integers(0, 2**32 - 1))
def test_scrambled_sum_file_has_the_report_of_the_sum(tmp_path, capsys, seed):
    rng = random.Random(seed)
    expr = random_torus_sum(rng, 3, 150)
    dense, dense_iota = scramble(*realize_with_iota(parse_knot_expr(expr)), rng)
    path = tmp_path / "scrambled.cfk"
    save_complex(dense, str(path), expr, dense_iota)
    from_file, plain = _report(capsys, f"@{path}"), _report(capsys, expr)
    assert from_file["generator_count"] == len(dense)
    assert _file_sections(from_file) == _file_sections(plain), expr


K1 = "T(2,11)#-T(4,5)"
# scramble(K1, iota, random.Random(0)) written by save_complex: 81
# generators, K1's 77 and one acyclic box.
SCRAMBLED_K1 = os.path.join(os.path.dirname(__file__), "data", "scrambled_k1.cfk")
SCRAMBLED_K1_V2 = os.path.join(os.path.dirname(__file__), "data", "scrambled_k1_v2.cfk")


def _report(capsys, expr):
    assert main(["report", "--expr", expr, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_committed_scrambled_k1_has_the_report_of_k1(capsys):
    scrambled, plain = _report(capsys, f"@{SCRAMBLED_K1}"), _report(capsys, K1)
    assert scrambled["generator_count"] == 81
    for key in ("invariants", "mirror_invariants", "involutive", "mirror_involutive"):
        assert scrambled[key] == plain[key], key
    assert scrambled["bounds"]["genus"] == plain["bounds"]["genus"]


def test_committed_scrambled_k1_v2_has_the_report_of_k1(capsys):
    (c, iota), (c2, iota2) = load_complex(SCRAMBLED_K1), load_complex(SCRAMBLED_K1_V2)
    assert (c2.labels, c2.grw, c2.grz, c2.cols, iota2.cols) == (c.labels, c.grw, c.grz, c.cols, iota.cols)
    scrambled, plain = _report(capsys, f"@{SCRAMBLED_K1_V2}"), _report(capsys, K1)
    # The report of the format-1 file differs only in the path it names.
    assert {**scrambled, "expression": None} == {**_report(capsys, f"@{SCRAMBLED_K1}"), "expression": None}
    assert scrambled["generator_count"] == 81
    for key in ("invariants", "mirror_invariants", "involutive", "mirror_involutive"):
        assert scrambled[key] == plain[key], key
    assert scrambled["bounds"]["genus"] == plain["bounds"]["genus"]
