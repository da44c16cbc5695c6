"""The one quotient path, `reduce_complex`, against the mask filter of `tests/oracle_quotient.py`.

Cases: seeded sums of torus knots, their mirrors, scrambled copies saved
and read back in both file formats, and every file in `tests/data`.
"""

import os
import random

import pytest

from conftest import random_torus_sum, scramble
from oracle_io import save_complex_json
from oracle_quotient import mask_quotient

from knotfloer.complexes import reduce_complex
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.involutive import mirror_iota, realize_with_iota

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _assert_quotients_match(c, where):
    for mode in ("U0", "V0"):
        quotient = reduce_complex(c, mode)
        assert (quotient.cols, quotient.degrees) == mask_quotient(c, mode), (where, mode)
        assert quotient.gradings == (c.grz if mode == "U0" else c.grw), (where, mode)


@pytest.mark.parametrize("seed", range(8))
def test_quotients_match_the_mask_filter(tmp_path, seed):
    rng = random.Random(seed)
    expr = random_torus_sum(rng, 3, 300)
    c, iota = realize_with_iota(parse_knot_expr(expr))
    mirror = c.dual()
    copy, copy_iota = scramble(c, iota, rng)
    for where, complex_ in ((expr, c), ("-" + expr, mirror)):
        _assert_quotients_match(complex_, where)
    saved = [("scrambled", copy, copy_iota), ("mirror", mirror, mirror_iota(iota, mirror))]
    for save in (save_complex, save_complex_json):
        path = tmp_path / f"{save.__name__}.cfk"
        for where, complex_, involution in saved:
            save(complex_, str(path), where, involution)
            loaded, _ = load_complex(str(path))
            _assert_quotients_match(loaded, (where, expr, save.__name__))


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DATA) if n != "not_utf8.cfk"))
def test_data_file_quotients_match_the_mask_filter(name):
    c, _ = load_complex(os.path.join(DATA, name))
    _assert_quotients_match(c, name)
