"""Each split's model and the hat ends against the full-width definitions they replaced (`tests/oracle_fullwidth.py`).

`fu.Reduction` lists its kept positions and its model from the pairs it
keeps; the oracle scans every position. Cases: seeded random complexes,
every stored split of J, HW and scrambled copies, the sigma-reflected
ones included, and the splits of J's Y_n cones.

`invariants._hat_ends` cuts each probe by walking its cocycle's own set
bits; the oracle ANDs the cocycle with a mask over every generator. The
cocycles of a torus sum have one bit each, so the cases are those whose
cocycles have several: scrambled copies and the saved scrambled files.
"""

import os
import random

from conftest import random_fu_complex, random_torus_sum
from oracle_fullwidth import reference_hat_ends, reference_kept, reference_model
from test_level_reflection import _scrambled

from knotfloer import invariants
from knotfloer.builders import named_complex
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.fu import tower_reduce
from knotfloer.involutive import realize_with_iota

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _check_model(split, where):
    assert split._kept == reference_kept(split), where
    model, want = split.model, reference_model(split)
    assert (model.gradings, model.targets) == (want.gradings, want.targets), where


def _levels(c):
    return range(min(c.alexander) - 1, max(c.alexander) + 2)


def test_model_of_random_complexes_matches_the_full_scan():
    rng = random.Random(20261020)
    for k in range(400):
        _check_model(tower_reduce(random_fu_complex(rng, 10)), k)


def test_model_of_every_stored_split_and_of_the_y_cones_matches_the_full_scan():
    j, j_iota = realize_with_iota(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)"))
    k1, k1_iota = realize_with_iota(parse_knot_expr("T(2,11)#-T(4,5)"))
    cases = [("J", j), ("HW", named_complex("HW")), ("scrambled K1", _scrambled(k1, k1_iota, random.Random(5))[0])]
    cases.append(("scrambled_k1.cfk", load_complex(os.path.join(DATA, "scrambled_k1.cfk"))[0]))
    for name, c in cases:
        for s in _levels(c):
            _check_model(invariants.level_split(c, s), (name, s))
        reflected = [s for s in _levels(c) if s < 0 and c._splits[s].vectors is c._splits[-s].vectors]
        assert bool(reflected) == c.reversal_symmetric, name
    # Every cone of J's Y ladder, which its report prints up to omega+ = 6.
    for n in range(invariants.omega_plus(j) + 1):
        _check_model(tower_reduce(invariants._cone(j, 0, n)), ("J cone", n))


def _weights(c):
    return [invariants._quotient(c, mode)[1].bit_count() for mode in invariants.MODES]


def _dense_cases(tmp_path):
    """Scrambled copies of seeded sums with a cocycle of several bits, the first saved and read back and summed, and the scrambled data files."""
    rng = random.Random(4700)
    out = []
    while len(out) < 4:
        expr = random_torus_sum(rng, 3, 300)
        copy, copy_iota = _scrambled(*realize_with_iota(parse_knot_expr(expr)), rng)
        if max(_weights(copy)) > 1:
            out.append((f"scrambled {expr}", copy))
            if len(out) == 1:
                path = str(tmp_path / "scrambled.cfk")
                save_complex(copy, path, expr, copy_iota)
                out.append((f"saved scrambled {expr}", load_complex(path)[0]))
                # Its cocycles are tensors of the saved copy's (Kunneth).
                out.append((f"saved scrambled {expr} # T(2,3)", realize_with_iota(parse_knot_expr(f"@{path}#T(2,3)"))[0]))
    for name in ("scrambled_k1.cfk", "scrambled_k1_v2.cfk"):
        out.append((name, load_complex(os.path.join(DATA, name))[0]))
    return out


def test_hat_ends_of_multi_bit_cocycles_match_the_full_width_probe(tmp_path):
    for name, c in _dense_cases(tmp_path):
        assert max(_weights(c)) > 1, name
        for n in range(3):
            for s in _levels(c):
                split = tower_reduce(invariants._cone(c, s, n))
                want = reference_hat_ends(c, split, s, n)
                assert invariants._hat_ends(c, split, s, n) == want, (name, s, n)
