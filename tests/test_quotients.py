"""The one quotient path, `reduce_complex`, against the mask filter of `tests/oracle_quotient.py`.

Cases: seeded sums of torus knots, their mirrors, scrambled copies saved
and read back in both file formats, and every file in `tests/data`.

Then the quotient entries that `invariants._quotient` derives instead of
reducing, against the direct reduction `tower_reduce(reduce_complex(c, mode))`
(`oracle_quotient.entry_violations`): the V = 0 one read off the U = 0 one
through index reversal (`BigradedComplex.reversal_symmetric`), those of a
connected sum read off its summands' (Kunneth), and those of a report's
mirror read off the knot's (universal coefficients).
"""

import json
import os
import random

import pytest

from conftest import random_torus_sum, scramble
from fu_views import fu_cols, tower_terms
from oracle_io import save_complex_json
from oracle_quotient import entry_violations, mask_quotient

from knotfloer import invariants
from knotfloer.complexes import BigradedComplex, reduce_complex, verify_chain_map
from knotfloer.expressions import FileRef, Mirror, Sum, TorusKnot, parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.fu import tower_reduce
from knotfloer.involutive import mirror_iota, realize_with_iota, staircase_iota

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _assert_quotients_match(c, where):
    for mode in ("U0", "V0"):
        quotient = reduce_complex(c, mode)
        assert (fu_cols(quotient), quotient.degrees) == mask_quotient(c, mode), (where, mode)
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


def _plain(c):
    """A copy of c without its summands, which `invariants._quotient` would read its quotients off."""
    return BigradedComplex(c.labels, c.grw, c.grz, c.cols)


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
    twin = _plain(c)
    twin.reversal_symmetric = False  # shadows the cached property of the copy only
    return twin


@pytest.mark.parametrize("seed", range(6))
def test_transported_v0_quotient_matches_the_direct_reduction(seed):
    cases = _symmetric_cases(seed)
    if seed == 0:
        cases.append(("hw.cfk", *load_complex(os.path.join(DATA, "hw.cfk"))))
    for where, c, _iota in cases:
        # A plain copy: a sum would read its quotients off its summands'.
        c = _plain(c)
        assert c.reversal_symmetric, where
        twin = _direct_twin(c)
        index, cocycle, _cycle = entry = invariants._quotient(c, "V0")
        assert entry_violations(c, "V0", entry) == [], where
        direct = tower_reduce(reduce_complex(c, "V0"))
        assert direct.rank == 1
        assert invariants._quotient(twin, "V0") == (direct.indices[0], direct.cocycle(), direct.cycle())
        assert c.grw[index] == direct.top_grading() and c.grz[index] == c.grz[direct.indices[0]], where
        # With T = 1 the transported cocycle vanishes on every boundary of
        # the V = 0 quotient and is odd on the direct route's tower cycle.
        assert all((col & cocycle).bit_count() % 2 == 0 for col in fu_cols(reduce_complex(c, "V0"))), where
        assert sum(cocycle >> i & 1 for i, _power in tower_terms(direct)) % 2 == 1, where
        read = [(invariants.tau_invariant(x), invariants.nu_hat(x), invariants.omega_hat(x)) for x in (c, twin)]
        assert read[0] == read[1], where
        # The end sets of every level nu and omega tested (`_hat_ends`).
        assert c.__dict__["_levels"] == twin.__dict__["_levels"], where


# --- quotients derived from the summands' and from the knot's ------------------


def _check_derived(c, where):
    """Both quotient entries of a sum, read off its summands' once, against the direct route; then its report mirror's."""
    assert "_summands" in c.__dict__, where
    entries = {mode: invariants._quotient(c, mode) for mode in invariants.MODES}
    assert "_summands" not in c.__dict__, where
    for mode, entry in entries.items():
        assert entry_violations(c, mode, entry) == [], (where, mode)
    mirror = invariants.release_to_dual(c)
    for mode in invariants.MODES:
        assert entry_violations(mirror, mode, invariants._quotient(mirror, mode)) == [], ("-" + where, mode)
    return entries


@pytest.mark.parametrize("seed", range(6))
def test_derived_quotients_match_the_direct_reduction(seed):
    rng = random.Random(seed)
    for _ in range(3):
        expr = random_torus_sum(rng, 4, 400)
        c = realize_with_iota(parse_knot_expr(expr))[0]
        if "#" in expr:
            _check_derived(c, expr)


def test_derived_quotients_of_nested_sums_and_of_sums_with_files(tmp_path):
    """Nested sums, which the API builds and the parser does not, and sums with HW or a saved file as a summand."""
    t23, t25, t34 = TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 4)
    exprs = [
        Sum((Sum((t23, Mirror(t34))), t25)),
        Sum((Mirror(t25), Sum((t23, Mirror(t23))))),
        Sum((Mirror(Sum((t23, t25))), t34)),
        parse_knot_expr("HW#T(2,3)"),
        parse_knot_expr("-T(3,4)#HW#-T(2,5)"),
    ]
    c, iota = realize_with_iota(parse_knot_expr("T(2,5)#-T(3,4)"))
    for name, (complex_, involution) in (("sum", (c, iota)), ("scrambled", scramble(c, iota, random.Random(3)))):
        path = tmp_path / f"{name}.cfk"
        save_complex(complex_, str(path), name, involution)
        exprs += [parse_knot_expr(f"@{path}#T(2,3)"), parse_knot_expr(f"-T(2,3)#@{path}#HW")]
    for expr in exprs:
        _check_derived(realize_with_iota(expr)[0], expr)


def test_a_sum_with_a_summand_without_one_tower_has_no_entry(tmp_path):
    """Free ranks multiply: a summand with two towers, or none, leaves the sum without one."""
    two = tmp_path / "two.cfk"
    two.write_text(json.dumps({"format": 2, "id": ["a", "b"], "grw": [0, 0], "grz": [0, 0], "differential": [[], []]}))
    # d(b) = a with exponents 0 and 0: the U = 0 and V = 0 quotients are acyclic.
    none = tmp_path / "none.cfk"
    none.write_text(json.dumps({"format": 2, "id": ["a", "b"], "grw": [0, 1], "grz": [0, 1], "differential": [[], [0]]}))
    for expr in (f"T(2,3)#@{two}", f"@{two}#-T(2,5)", f"T(3,4)#@{none}", f"@{two}#@{two}"):
        c = realize_with_iota(parse_knot_expr(expr))[0]
        assert _check_derived(c, expr) == {"U0": None, "V0": None}, expr
        assert not invariants.is_knotlike(realize_with_iota(parse_knot_expr(expr))[0]), expr


# --- reversal symmetry inherited by sums and by the report's mirror ------------


def _symmetry_cases(tmp_path):
    """Seeded sums of 2-4 terms, nested sums, and sums with HW, a saved sum or a saved scrambled copy as a summand.

    HW and a saved torus sum are reversal-symmetric, so their sums inherit
    the flag; a scrambled summand is not, so its sums compute it.
    """
    rng = random.Random(4747)
    exprs = []
    while len(exprs) < 8:
        expr = random_torus_sum(rng, 4, 400)
        if "#" in expr:
            exprs.append(parse_knot_expr(expr))
    t23, t25, t34 = TorusKnot(2, 3), TorusKnot(2, 5), TorusKnot(3, 4)
    exprs += [
        Sum((Sum((t23, Mirror(t34))), t25)),
        Sum((Mirror(t25), Sum((t23, Mirror(t23))))),
        Sum((Sum((t34, t23)), Sum((Mirror(t25), t23)))),
        parse_knot_expr("HW#T(2,3)"),
        parse_knot_expr("-T(3,4)#HW#-T(2,5)"),
    ]
    c, iota = realize_with_iota(parse_knot_expr("T(2,5)#-T(3,4)"))
    copy = next(x for x in (scramble(c, iota, random.Random(seed)) for seed in range(20)) if not x[0].reversal_symmetric)
    for name, (complex_, involution) in (("sum", (c, iota)), ("scrambled", copy)):
        path = tmp_path / f"{name}.cfk"
        save_complex(complex_, str(path), name, involution)
        exprs += [parse_knot_expr(f"@{path}#T(2,3)"), parse_knot_expr(f"-T(2,3)#@{path}#HW")]
    exprs.append(Sum((Sum((t23, FileRef(str(tmp_path / "scrambled.cfk")))), t25)))
    return exprs


def test_sums_and_mirrors_inherit_reversal_symmetry_only_when_it_holds(tmp_path):
    flags = []
    for expr in _symmetry_cases(tmp_path):
        c = realize_with_iota(expr)[0]
        assert "reversal_symmetric" not in c.__dict__, expr  # lazy: nothing is read until the quotients are
        assert invariants.is_knotlike(c), expr
        inherited = "reversal_symmetric" in c.__dict__
        flag = c.reversal_symmetric
        assert flag == _reversal_is_skew_automorphism(c) == _plain(c).reversal_symmetric, expr
        assert inherited == flag, expr
        mirror = invariants.release_to_dual(c)
        assert ("reversal_symmetric" in mirror.__dict__) == flag, expr
        assert mirror.reversal_symmetric == _reversal_is_skew_automorphism(mirror) == _plain(mirror).reversal_symmetric
        assert mirror.reversal_symmetric == flag, expr
        flags.append(flag)
    assert set(flags) == {True, False}
