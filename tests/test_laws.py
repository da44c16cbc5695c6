"""Concordance laws on every kind of input: torus sums, scrambled copies, files.

Each law holds for every knot complex, so it checks the program where no
closed formula does. The inputs are seeded `random_torus_sum`s, their
`scramble`d copies saved and read back through `load_complex`, and
`tests/data/hw.cfk`, all combined through knot expressions:

* the slice law: K # -K is slice, so V_s = Y_n = 0 for s, n >= 0 and
  nu+ = omega+ = tau = nu = omega = 0; its involutive pair is (0, 0),
  since C (x) C^v is iota-locally trivial (Hendricks-Manolescu-Zemke).
  hw.cfk has no involution, so its pair is not read;
* Hom-Wu symmetry: V_-s = V_s + s;
* tau adds over sums and changes sign under mirroring;
* subadditivity (Bodnar-Celoria-Golla): V_(a+b)(K1 # K2) <= V_a(K1) + V_b(K2)
  for a, b >= 0.

The slice law misses a connected-sum involution without its basepoint
term, so `tests/oracle_sarkar.py` checks that term.
"""

import itertools
import os
import random

import pytest

from conftest import random_torus_sum, scramble
from test_concordance import _mirror_text

from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import save_complex
from knotfloer.invariants import compute_invariant_table, tau_invariant, v_invariant
from knotfloer.involutive import realize_with_iota, v0_bar_under

HW = "@" + os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "hw.cfk")
SEEDS = (5, 7, 8, 11)  # tau 2, -1, 6 and 5: mixed and one-sign sums, a torus knot


def _realize(text: str):
    return realize_with_iota(parse_knot_expr(text))


@pytest.fixture(scope="module")
def knots(tmp_path_factory):
    """Per seed, a torus sum and a scrambled copy of it read back from a file; then hw.cfk."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        expr = random_torus_sum(rng, 3, 60)
        path = str(tmp_path_factory.mktemp("laws") / f"scrambled{seed}.cfk")
        dense, dense_iota = scramble(*_realize(expr), rng)
        save_complex(dense, path, expr, dense_iota)
        out += [expr, "@" + path]
    return out + [HW]


def test_slice_law(knots):
    for text in knots:
        c, iota = _realize(text + "#" + _mirror_text(text))
        table = compute_invariant_table(c)
        assert set(table.v.values()) == set(table.y.values()) == {0}, text
        assert (table.nu_plus, table.omega_plus, table.tau, table.nu_hat, table.omega_hat) == (0,) * 5, text
        if text != HW:
            assert v0_bar_under(c, iota) == (0, 0), text


def test_hom_wu_symmetry(knots):
    for text in knots:
        for knot in (text, _mirror_text(text)):
            c, _iota = _realize(knot)
            for s in range(c.max_alexander() + 2):
                assert v_invariant(c, -s) == v_invariant(c, s) + s, (knot, s)


def test_tau_adds_and_changes_sign(knots):
    tau = {}
    for text in knots:
        tau[text] = tau_invariant(_realize(text)[0])
        assert tau_invariant(_realize(_mirror_text(text))[0]) == -tau[text], text
    for left, right in itertools.combinations(knots, 2):
        assert tau_invariant(_realize(left + "#" + right)[0]) == tau[left] + tau[right], (left, right)


def test_subadditivity(knots):
    for left, right in itertools.combinations(knots, 2):
        c1, c2, c12 = (_realize(t)[0] for t in (left, right, left + "#" + right))
        for a, b in itertools.product(range(4), repeat=2):
            assert v_invariant(c12, a + b) <= v_invariant(c1, a) + v_invariant(c2, b), (left, right, a, b)
