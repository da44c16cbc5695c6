import math
import random

import pytest

from knotfloer.builders import named_complex, staircase, torus_knot_complex
from knotfloer.complexes import (
    BigradedComplex,
    Generator,
    SkewMap,
    basepoint_map,
    verify_chain_map,
)
from knotfloer.errors import ConsistencyError, KnotFloerError, ValidationError
from knotfloer.expressions import Sum, parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.fu import FUComplex, tower_reduce
from knotfloer.invariants import level_split, v_invariant
from knotfloer.linalg import kron
import knotfloer.involutive as involutive
from knotfloer.involutive import (
    ai0_cone,
    connected_sum_iota,
    involutive_d_pair,
    mirror_iota,
    realize_with_iota,
    staircase_iota,
    v0_bar_under,
)

import oracle_uv
from conftest import TORUS_FACTORS, random_torus_sum
from oracle_homogeneity import fu_validate_messages
from oracle_involutive import oracle_d_pair
from oracle_io import save_complex_json
from oracle_sarkar import sarkar_violation
from oracle_terms import from_terms, gen, skew_from_terms, terms


def test_reflection_verifies_on_staircases():
    for c in [staircase(0), staircase(1), staircase(3), torus_knot_complex(4, 7),
              torus_knot_complex(5, 6).dual()]:
        iota = staircase_iota(c)
        assert verify_chain_map(iota) is None


def test_reflection_swaps_ends():
    s1 = staircase(1)
    iota = staircase_iota(s1)
    assert terms(iota) == [("y-1", "y1", 0, 0), ("y0", "y0", 0, 0), ("y1", "y-1", 0, 0)]


def test_reflection_rejects_asymmetric():
    # The reflection is built unchecked; the cone's check rejects it.
    gens = [Generator("a", 0, -2), Generator("b", -1, -1)]
    c = from_terms(gens, [])
    iota = staircase_iota(c)
    assert verify_chain_map(iota) is not None
    with pytest.raises(ValidationError, match="involution fails verification"):
        ai0_cone(iota)


def test_iota_exponents_swap_gradings():
    # On every entry U^u V^v y of iota(x): grw(y) - 2u = grz(x) and
    # grz(y) - 2v = grw(x), with u, v >= 0. The skew rule then extends
    # iota to the module.
    for text in ["T(2,3)#T(2,5)", "T(3,4)#-T(2,3)", "-T(2,5)#-T(2,3)#T(2,3)"]:
        c, iota = realize_with_iota(parse_knot_expr(text))
        entries = terms(iota)
        assert entries
        for src, tgt, u, v in entries:
            x, y = gen(c, src), gen(c, tgt)
            assert u >= 0 and v >= 0, (text, src, tgt)
            assert (y.grw - 2 * u, y.grz - 2 * v) == (x.grz, x.grw), (text, src, tgt)


def test_mirror_iota_verifies():
    t = torus_knot_complex(3, 4)
    iota = staircase_iota(t)
    d = t.dual()
    assert verify_chain_map(mirror_iota(iota, d)) is None
    c, io = realize_with_iota(parse_knot_expr("-T(2,3)#-T(2,3)"))
    assert io is not None and verify_chain_map(io) is None


def test_connected_sum_with_unknot_is_plain_product():
    s1 = staircase(1)
    unknot = staircase(0)
    tensor = s1.tensor(unknot)
    iota = connected_sum_iota(tensor, staircase_iota(s1), staircase_iota(unknot))
    # the basepoint correction vanishes on the unknot side
    assert terms(iota) == [
        ("y-1|y0", "y1|y0", 0, 0),
        ("y0|y0", "y0|y0", 0, 0),
        ("y1|y0", "y-1|y0", 0, 0),
    ]


def test_connected_sum_matches_explicit_polynomials():
    # (iota1 x iota2) after (id + Phi1 x Psi2), composed with the monomials
    # written out and the skew rule applied to the inner coefficients. A
    # sum folds from the left, so the last summand is the right factor.
    rng = random.Random(2019)
    texts = ["T(2,3)#T(2,5)", "T(2,3)#-T(3,4)"]
    while len(texts) < 12:
        text = random_torus_sum(rng, 3, 150)
        if "#" in text:
            texts.append(text)
    assert any(text.count("#") == 2 for text in texts)
    assert any(text.startswith("-") or "#-" in text for text in texts[2:])
    m = oracle_uv.matrix
    for text in texts:
        children = parse_knot_expr(text).children
        left = children[0] if len(children) == 2 else Sum(children[:-1])
        c1, io1 = realize_with_iota(left)
        c2, io2 = realize_with_iota(children[-1])
        c, io = realize_with_iota(parse_knot_expr(text))
        product = oracle_uv.tensor_maps(m(terms(io1)), m(terms(io2)))
        twist = oracle_uv.tensor_maps(m(terms(basepoint_map(c1, "U"))), m(terms(basepoint_map(c2, "V"))))
        twist = oracle_uv.add(m([(x, x, 0, 0) for x in c.labels]), twist)
        assert m(terms(io)) == oracle_uv.compose(product, twist, outer_skew=True), text


def test_triple_sum_iota_verifies():
    c, io = realize_with_iota(parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)"))
    assert io is not None
    assert verify_chain_map(io) is None


# Two- and three-term sums with mirrored summands, and K1 = T(2,11)#-T(4,5).
SARKAR_SUMS = ["T(2,3)#T(2,3)", "T(2,5)#-T(2,3)", "T(2,3)#-T(2,3)", "T(3,4)#T(2,3)",
               "T(2,5)#T(2,3)#T(2,3)", "T(2,9)#-T(2,3)#-T(2,3)", "T(2,11)#-T(4,5)"]


def test_realized_involutions_satisfy_sarkar_law(tmp_path):
    # iota^2 = 1 + Phi Psi exactly (a zero homotopy) on realized sums, their
    # mirrors, and both formats of their saved files read back.
    rng = random.Random(23)
    exprs = SARKAR_SUMS + [random_torus_sum(rng, 3, 400) for _ in range(20)]
    for n, expr in enumerate(exprs):
        c, io = realize_with_iota(parse_knot_expr(expr))
        mirror = c.dual()
        for k, k_io in [(c, io), (mirror, mirror_iota(io, mirror))]:
            assert sarkar_violation(k, k_io) is None, expr
        for save in (save_complex, save_complex_json):
            path = str(tmp_path / f"{n}_{save.__name__}.cfk")
            save(c, path, expr, io)
            assert sarkar_violation(*load_complex(path)) is None, (expr, save.__name__)


def test_sarkar_law_needs_the_basepoint_term(monkeypatch):
    # iota1 (x) iota2 without the (iota1 Phi1) (x) (iota2 Psi2) term fails the law on every sum.
    monkeypatch.setattr(involutive, "connected_sum_iota",
                        lambda tensor_c, iota1, iota2: SkewMap(tensor_c, kron(iota1.cols, iota2.cols)))
    for expr in SARKAR_SUMS:
        assert sarkar_violation(*realize_with_iota(parse_knot_expr(expr))) is not None, expr


def _long_sums(seed):
    """A seeded sum of 3-4 torus knots (at most 400 generators), and its mirror."""
    rng = random.Random(seed)
    while True:
        factors = [rng.choice(TORUS_FACTORS) for _ in range(rng.randint(3, 4))]
        if math.prod(len(torus_knot_complex(p, q)) for p, q in factors) <= 400:
            break
    signs = [rng.choice(("", "-")) for _ in factors]
    return ["#".join(f"{sign}T({p},{q})" for sign, (p, q) in zip(flips, factors))
            for flips in (signs, ["-" if sign == "" else "" for sign in signs])]


def _recording(monkeypatch, name, built, edit=None):
    """Wrap the construction involutive.<name> to record (and maybe edit) its maps."""
    make = getattr(involutive, name)

    def wrapper(*args):
        out = make(*args)
        if edit is not None:
            out = edit(out)
        built.append((name, out))
        return out

    monkeypatch.setattr(involutive, name, wrapper)


@pytest.mark.parametrize("seed", range(6))
def test_fold_builds_only_chain_maps(monkeypatch, seed):
    # realize_with_iota checks no map. Its proof says every map the fold
    # builds is a valid skew chain map; here each one is checked.
    for text in _long_sums(seed):
        built = []
        for name in ("staircase_iota", "mirror_iota", "connected_sum_iota"):
            _recording(monkeypatch, name, built)
        c, iota = realize_with_iota(parse_knot_expr(text))
        terms = text.count("#") + 1
        assert [name for name, _ in built].count("staircase_iota") == terms, text
        assert [name for name, _ in built].count("connected_sum_iota") == terms - 1, text
        assert [name for name, _ in built].count("mirror_iota") == text.count("-"), text
        assert built[-1][1] is iota
        for name, f in built:
            assert verify_chain_map(f) is None, (text, name)
        monkeypatch.undo()


@pytest.mark.parametrize("seed", range(6))
def test_final_check_fails_iff_a_flipped_intermediate_does(monkeypatch, seed):
    # One entry of the first intermediate sum involution flipped. Each later
    # step maps that error E to (E x iota3)(1 + Phi x Psi): iota3, a factor's
    # reflection or its transpose, has exponent-0 entries and is invertible,
    # and 1 + Phi x Psi is a chain isomorphism. So the returned map passes
    # the cone's check exactly when the flipped intermediate is still valid.
    rng = random.Random(seed)
    outcomes = set()
    for text in _long_sums(seed):
        for _ in range(4):
            verdicts = []

            def flip(f):
                if verdicts:
                    return f
                cols = list(f.cols)
                cols[rng.randrange(len(cols))] ^= 1 << rng.randrange(len(cols))
                flipped = SkewMap(f.source, cols)
                verdicts.append(verify_chain_map(flipped) is None)
                return flipped

            _recording(monkeypatch, "connected_sum_iota", [], flip)
            c, iota = realize_with_iota(parse_knot_expr(text))
            monkeypatch.undo()
            try:
                v0_bar_under(iota)
                passed = True
            except KnotFloerError as err:
                # A flipped map that passes the check is a valid skew chain
                # map, but not always an involution: reading it may fail later.
                passed = "involution fails verification" not in str(err)
            assert passed == verdicts[0], text
            outcomes.add(passed)
    assert False in outcomes


def test_cone_structure_unknot():
    c = staircase(0)
    cone = ai0_cone(staircase_iota(c))
    assert not fu_validate_messages(cone)
    assert cone.gradings == (0, -1)
    assert involutive_d_pair(cone) == (0, 0)


def test_cone_rejects_rank_one():
    # a wrong involution may fail verification before the cone is built
    s1 = staircase(1)
    bad_terms = [("y-1", "y1", 0, 0), ("y0", "y0", 1, 1), ("y1", "y-1", 0, 0)]
    with pytest.raises(ValidationError):
        ai0_cone(skew_from_terms(s1, bad_terms))
    # the same entries as columns pass the gradings but not df = fd
    bad = SkewMap(s1, [0b100, 0, 0b001])
    with pytest.raises(ValidationError):
        ai0_cone(bad)


def test_cone_reads_an_involution_on_an_equal_copy():
    # The pair reads the complex off iota: a map on an equal copy of c gives c's pair.
    c, io = realize_with_iota(parse_knot_expr("T(2,3)#T(2,3)#T(2,3)"))
    assert v0_bar_under(io) == (1, 2)
    copy = BigradedComplex(c.labels, c.grw, c.grz, c.cols)
    assert v0_bar_under(SkewMap(copy, io.cols)) == (1, 2)


def test_cone_lives_on_the_level_zero_model():
    # The cone is built on M_0, not on the full level A_0.
    for expr in ["T(2,11)#T(4,7)#-T(5,6)", "T(2,3)#T(4,7)#-T(5,6)"]:
        c, io = realize_with_iota(parse_knot_expr(expr))
        mirror = c.dual()
        for k, k_io in [(c, io), (mirror, mirror_iota(io, mirror))]:
            assert len(ai0_cone(k_io)) == 2 * len(level_split(k, 0).model) < len(k), expr


def test_cone_has_two_towers():
    for expr in ["T(2,3)", "T(2,3)#T(2,3)", "T(2,3)#-T(2,3)"]:
        c, io = realize_with_iota(parse_knot_expr(expr))
        cone = ai0_cone(io)
        assert tower_reduce(cone).rank == 2


def test_pair_needs_towers_of_both_parities():
    assert involutive_d_pair(FUComplex((0, -3), ([], []))) == (-2, 0)
    with pytest.raises(ConsistencyError):
        involutive_d_pair(FUComplex((0, 2), ([], [])))


def test_acceptance_pin_doubled_trefoil():
    c, io = realize_with_iota(parse_knot_expr("T(2,3)#T(2,3)"))
    v_bar, v_under = v0_bar_under(io)
    assert v_under == 2


def test_involutive_pair_example_knot():
    c, io = realize_with_iota(parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)"))
    assert v0_bar_under(io) == (1, 2)


def test_involutive_brackets_v0_on_corpus():
    for expr in ["T(2,3)", "T(2,5)", "T(3,4)", "-T(3,4)", "T(2,3)#-T(2,3)",
                 "T(2,3)#T(2,5)"]:
        c, io = realize_with_iota(parse_knot_expr(expr))
        v_bar, v_under = v0_bar_under(io)
        v0 = v_invariant(c, 0)
        assert v_bar <= v0 <= v_under, expr


def test_genus_consistency_for_torus_sums():
    # positive torus sums have slice genus = sum of the factor genera
    cases = [("T(2,3)", 1), ("T(2,5)", 2), ("T(3,4)", 3), ("T(2,3)#T(2,3)", 2)]
    for expr, genus in cases:
        c, io = realize_with_iota(parse_knot_expr(expr))
        v_bar, v_under = v0_bar_under(io)
        assert v_under <= (genus + 2) // 2, expr
        assert -((genus + 2) // 2) <= v_bar, expr


def test_pair_matches_slice_oracle():
    # The tower-parity reading of the cone against the slice-by-slice
    # definitions, on each input and its mirror.
    rng = random.Random(31337)
    exprs = ["T(2,3)#T(4,7)#-T(5,6)", "T(2,3)#T(2,3)", "T(2,3)#-T(2,3)"]
    exprs += [random_torus_sum(rng, 3, 400) for _ in range(30)]
    for expr in exprs:
        c, io = realize_with_iota(parse_knot_expr(expr))
        mirror = c.dual()
        for k, k_io in [(c, io), (mirror, mirror_iota(io, mirror))]:
            d_bar, d_under = oracle_d_pair(k, k_io)
            assert v0_bar_under(k_io) == (-d_bar // 2, -d_under // 2), expr
