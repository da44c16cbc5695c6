"""The one quotient path, `reduce_complex`, against the mask filter of `tests/oracle_quotient.py`.

Cases: seeded sums of torus knots, their mirrors, scrambled copies saved
and read back in both file formats, and every file in `tests/data`.

Then the V = 0 quotient that `invariants._quotient` reads off the U = 0
one through index reversal (`BigradedComplex.reversal_symmetric`),
against the direct reduction `tower_reduce(reduce_complex(c, "V0"))`.
"""

import os
import random

import pytest

from conftest import random_torus_sum, scramble
from oracle_io import save_complex_json
from oracle_quotient import mask_quotient

from knotfloer import invariants
from knotfloer.complexes import BigradedComplex, reduce_complex, verify_chain_map
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.fu import tower_reduce
from knotfloer.involutive import mirror_iota, realize_with_iota, staircase_iota

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


# --- the V = 0 quotient read off the U = 0 one ---------------------------------


def _reversal_is_skew_automorphism(c):
    """The definition: the index reflection passes `verify_chain_map` as a skew map.

    A skew entry x_i -> U^u V^v x_(n-1-i) and its partner from x_(n-1-i)
    have u and v of opposite signs unless both are 0, so this asks for
    the gradings swapped exactly and d commuting with the reversal.
    """
    return verify_chain_map(staircase_iota(c)) is None


def _symmetric_cases(seed):
    """A seeded torus sum and its mirror, each with its involution."""
    rng = random.Random(seed)
    expr = random_torus_sum(rng, 3, 300)
    c, iota = realize_with_iota(parse_knot_expr(expr))
    mirror = c.dual()
    return [(expr, c, iota), ("-" + expr, mirror, mirror_iota(iota, mirror))]


def test_reversal_symmetric_on_built_and_saved_sums(tmp_path):
    cases = [case for seed in range(6) for case in _symmetric_cases(seed)]
    cases.append(("hw.cfk", *load_complex(os.path.join(DATA, "hw.cfk"))))
    path = str(tmp_path / "saved.cfk")
    for where, c, iota in cases:
        assert c.reversal_symmetric and _reversal_is_skew_automorphism(c), where
        for save in (save_complex, save_complex_json):
            save(c, path, where, iota)
            loaded = load_complex(path)[0]
            assert loaded.reversal_symmetric, (where, save.__name__)


def test_reversal_asymmetric_inputs():
    """Scrambled copies and the asymmetric data files take the direct route.

    asymmetric_zigzag.cfk has target lists that read the same reversed but
    gradings that do not; the scrambled copies without acyclic boxes have
    reversed gradings but target lists that do not. So each of the
    predicate's two comparisons is needed.
    """
    zigzag = load_complex(os.path.join(DATA, "asymmetric_zigzag.cfk"))[0]
    unit_pair = load_complex(os.path.join(DATA, "unit_pair.cfk"))[0]
    assert zigzag.d.targets == tuple([len(zigzag) - 1 - j for j in reversed(row)] for row in reversed(zigzag.d.targets))
    cases = [("asymmetric_zigzag.cfk", zigzag), ("unit_pair.cfk", unit_pair)]
    c, iota = realize_with_iota(parse_knot_expr("T(2,5)#-T(3,4)"))
    copies = [scramble(c, iota, random.Random(seed))[0] for seed in range(8)]
    assert any(copy.grw == copy.grz[::-1] for copy in copies)
    cases += [(f"scrambled {seed}", copy) for seed, copy in enumerate(copies)]
    for where, c in cases:
        assert not c.reversal_symmetric and not _reversal_is_skew_automorphism(c), where
    # A small sum's copy may come out unchanged, so these are held to the definition only.
    for seed in range(6):
        for where, c, iota in _symmetric_cases(seed):
            copy = scramble(c, iota, random.Random(seed))[0]
            assert copy.reversal_symmetric == _reversal_is_skew_automorphism(copy), where


def _direct_twin(c):
    """A copy of c that reduces its V = 0 quotient directly."""
    twin = BigradedComplex(c.labels, c.grw, c.grz, c.cols)
    twin.reversal_symmetric = False  # shadows the cached property of the copy only
    return twin


@pytest.mark.parametrize("seed", range(6))
def test_transported_v0_quotient_matches_the_direct_reduction(seed):
    cases = _symmetric_cases(seed)
    if seed == 0:
        cases.append(("hw.cfk", *load_complex(os.path.join(DATA, "hw.cfk"))))
    for where, c, _iota in cases:
        assert c.reversal_symmetric, where
        twin = _direct_twin(c)
        index, cocycle = invariants._quotient(c, "V0")
        direct = tower_reduce(reduce_complex(c, "V0"))
        assert direct.rank == 1 and invariants._quotient(twin, "V0") == (direct.indices[0], direct.cocycle())
        assert c.grw[index] == direct.top_grading() and c.grz[index] == c.grz[direct.indices[0]], where
        # With T = 1 the transported cocycle vanishes on every boundary of
        # the V = 0 quotient and is odd on the direct route's tower cycle.
        assert all((col & cocycle).bit_count() % 2 == 0 for col in reduce_complex(c, "V0").cols), where
        assert sum(cocycle >> i & 1 for i, _power in direct.reps[0]) % 2 == 1, where
        read = [(invariants.tau_invariant(x), invariants.nu_hat(x), invariants.omega_hat(x)) for x in (c, twin)]
        assert read[0] == read[1], where
        # The end sets of every level nu and omega tested (`_hat_ends`).
        assert c.__dict__["_levels"] == twin.__dict__["_levels"], where
