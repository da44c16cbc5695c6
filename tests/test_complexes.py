import random

import pytest

from knotfloer.builders import (
    named_complex,
    staircase,
    staircase_dual,
    torus_knot_complex,
)
from knotfloer.complexes import (
    BigradedComplex,
    ChainMap,
    Generator,
    SkewMap,
    basepoint_map,
    chain_violation,
    reduce_complex,
    verify_chain_map,
)
from knotfloer.errors import ValidationError
from knotfloer.expressions import parse_knot_expr
from knotfloer.involutive import mirror_iota, realize_with_iota, staircase_iota
from knotfloer.linalg import image, iter_bits

import oracle_uv
from conftest import UNKNOT, ipoly_divexact, random_torus_sum
from echelon import set_bits
from fu_views import fu_cols
from oracle_chain import first_chain_failure, first_square_failure
from oracle_homogeneity import fu_validate_messages
from oracle_terms import from_terms, gen, map_from_terms, skew_from_terms, terms


def test_staircase_validates():
    s1 = staircase(1)
    assert s1.validate() == []
    assert [(g.name, g.grw, g.grz) for g in s1.gens] == [
        ("y-1", 0, -2),
        ("y0", -1, -1),
        ("y1", -2, 0),
    ]


def test_lists_of_different_lengths_are_refused():
    with pytest.raises(ValidationError, match="^grading and column lists differ in length$"):
        BigradedComplex(("a", "b"), (0, 0), (0,), (0, 0))


def test_model_complex_validates():
    hw = named_complex("HW")
    assert hw.validate() == []
    assert [(g.grw, g.grz) for g in hw.gens] == [(0, -4), (-3, -3), (-4, 0)]


def test_homogeneity_violation_reported():
    # A monomial term whose exponents disagree with the gradings is
    # rejected where terms enter ...
    gens = [Generator("y-1", 0, -2), Generator("y0", -1, -1), Generator("y1", -2, 0)]
    terms = [("y0", "y-1", 1, 0), ("y0", "y1", 1, 0)]
    with pytest.raises(ValidationError) as err:
        from_terms(gens, terms)
    violations = err.value.violations
    assert len(violations) == 1
    assert "inhomogeneous" in violations[0] and "y1" in violations[0]
    # ... as is a term naming no generator ...
    with pytest.raises(ValidationError) as err:
        from_terms([Generator("a", 0, 0)], [("a", "b", 0, 0)])
    assert str(err.value) == "term a -> b: 'b' is not a generator"
    # ... and a column whose gradings imply no monomial fails validation.
    bad = BigradedComplex(["a", "b"], [0, 0], [0, 0], [0b10, 0])
    violations = bad.validate()
    assert any("inhomogeneous" in v and "d(a)" in v for v in violations)


def test_odd_grading_gap_rejected():
    bad = from_terms([Generator("a", 1, 0)], [])
    assert any("odd" in v for v in bad.validate())


def test_d_squared_violation_reported():
    gens = [Generator("a", 2, 2), Generator("b", 1, 1), Generator("c", 0, 0)]
    bad = from_terms(gens, [("a", "b", 0, 0), ("b", "c", 0, 0)])
    assert any("d^2(a)" in v and "*c" in v for v in bad.validate())


def test_tensor_with_unknot_is_identity():
    s1 = staircase(1)
    t = s1.tensor(UNKNOT)
    assert len(t.gens) == len(s1.gens)
    assert [(g.grw, g.grz) for g in t.gens] == [(g.grw, g.grz) for g in s1.gens]
    assert [g.name for g in t.gens] == [f"{g.name}|o" for g in s1.gens]
    stripped = [(a.split("|")[0], b.split("|")[0], u, v) for a, b, u, v in terms(t)]
    assert stripped == terms(s1)


def test_tensor_square_staircase():
    t = staircase(1).tensor(staircase(1))
    assert len(t.gens) == 9
    assert gen(t, "y0|y0").grw == -2 and gen(t, "y0|y0").grz == -2
    assert t.validate() == []


def test_triple_sum_generator_count():
    # Independent oracle: the generator count of a torus staircase is the
    # number of nonzero terms of the exact Alexander expansion.
    def term_count(p, q):
        num = {p * q + 1: 1, p * q: -1, 1: -1, 0: 1}
        quot = ipoly_divexact(ipoly_divexact(num, {p: 1, 0: -1}), {q: 1, 0: -1})
        assert all(c in (1, -1) for c in quot.values())
        return len(quot)

    expected = term_count(2, 3) * term_count(4, 7) * term_count(5, 6)
    big = torus_knot_complex(2, 3).tensor(torus_knot_complex(4, 7)).tensor(
        torus_knot_complex(5, 6).dual()
    )
    assert term_count(2, 3) == 3
    assert term_count(4, 7) == 11
    assert term_count(5, 6) == 9
    assert len(big.gens) == expected == 297


def test_random_staircase_tensors_validate(rng):
    for _ in range(100):
        factors = []
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.5:
                c = staircase(rng.randint(0, 3))
            else:
                c = staircase_dual(rng.randint(0, 3))
            if rng.random() < 0.3:
                c = c.dual()
            factors.append(c)
        t = factors[0]
        for f in factors[1:]:
            t = t.tensor(f)
        assert t.validate() == []


def test_dual_gradings_and_involution():
    s1 = staircase(1)
    d = s1.dual()
    assert sorted((g.grw, g.grz) for g in d.gens) == [(0, 2), (1, 1), (2, 0)]
    dd = d.dual()
    assert [(g.grw, g.grz) for g in dd.gens] == [(g.grw, g.grz) for g in s1.gens]
    assert terms(dd) == [(a + "**", b + "**", u, v) for a, b, u, v in terms(s1)]
    # the dual's exponents are those of the transposed entries
    assert sorted(terms(d)) == sorted((b + "*", a + "*", u, v) for a, b, u, v in terms(s1))
    assert UNKNOT.dual().validate() == []
    hw = named_complex("HW")
    assert len(hw.dual().dual().gens) == len(hw.gens)


def _hat_cols(c):
    """Columns over GF(2)[U,V]/(UV): entries without U or without V."""
    no_u = fu_cols(reduce_complex(c, "U0"))
    no_v = fu_cols(reduce_complex(c, "V0"))
    return tuple(a | b for a, b in zip(no_u, no_v))


def test_reduce_modes():
    hw = named_complex("HW")
    # d(b) = U^2 a + V^2 c: both terms are pure monomials
    assert _hat_cols(hw) == (0, 0b101, 0)

    s1 = staircase(1)
    g2 = fu_cols(reduce_complex(s1, "U0"))
    # d(y0) = y1 after killing U and setting V = 1; homology is spanned by y-1
    j = s1.index["y0"]
    assert g2[j] == 1 << s1.index["y1"]
    assert {(i, k) for i, col in enumerate(g2) for k in iter_bits(col)} == {
        (s1.index[a], s1.index[b]) for a, b, u, _v in terms(s1) if u == 0
    }
    assert fu_validate_messages(reduce_complex(s1, "U0")) == []  # d^2 = 0 on the columns
    with pytest.raises(ValueError, match="^unknown reduction mode 'UV'$"):
        reduce_complex(s1, "UV")

    square = staircase(1).tensor(staircase(1))
    kept = {(i, j) for i, col in enumerate(_hat_cols(square)) for j in iter_bits(col)}
    pure = {
        (square.index[a], square.index[b])
        for a, b, u, v in terms(square)
        if u == 0 or v == 0
    }
    assert kept == pure and pure


def test_quotient_commutation():
    # U0 of the UV = 0 quotient equals the U0 reduction: matrix equality.
    c = staircase(1).tensor(staircase_dual(2))
    hat = _hat_cols(c)
    cols = [0] * len(c)
    for a, b, u, _v in terms(c):
        i, j = c.index[a], c.index[b]
        if (hat[i] >> j) & 1 and u == 0:
            cols[i] |= 1 << j
    direct = reduce_complex(c, "U0")
    assert direct.ties == c.label_order == sorted(range(len(c)), key=c.labels.__getitem__)
    assert direct.gradings == c.grz
    assert fu_cols(direct) == tuple(cols)


def test_basepoint_maps_staircase():
    s1 = staircase(1)
    phi, psi = basepoint_map(s1, "U"), basepoint_map(s1, "V")
    # d(y0) = U y-1 + V y1 differentiates to Phi(y0) = y-1, Psi(y0) = y1
    assert terms(phi) == [("y0", "y-1", 0, 0)]
    assert terms(psi) == [("y0", "y1", 0, 0)]
    assert phi.bidegree == (1, -1)
    assert psi.bidegree == (-1, 1)
    assert basepoint_map(s1, "U").cols == phi.cols
    assert basepoint_map(s1, "V").cols == psi.cols
    with pytest.raises(ValueError):
        basepoint_map(s1, "T")


def test_basepoint_maps_vanish_on_even_exponents():
    hw = named_complex("HW")
    phi, psi = basepoint_map(hw, "U"), basepoint_map(hw, "V")
    assert not any(phi.cols) and not any(psi.cols)


def test_basepoint_maps_are_chain_maps(rng):
    for _ in range(20):
        c = staircase(rng.randint(1, 3)).tensor(staircase_dual(rng.randint(0, 2)))
        phi, psi = basepoint_map(c, "U"), basepoint_map(c, "V")
        if any(phi.cols):
            assert verify_chain_map(phi) is None
        if any(psi.cols):
            assert verify_chain_map(psi) is None


def test_verify_identity():
    s1 = staircase(1)
    f = map_from_terms(s1, s1, [(g.name, g.name, 0, 0) for g in s1.gens], (0, 0))
    assert f.bidegree == (0, 0)
    assert f.cols == (0b1, 0b10, 0b100)
    assert verify_chain_map(f) is None


def test_verify_reflection_skew():
    s1 = staircase(1)
    refl = skew_from_terms(
        s1, [("y-1", "y1", 0, 0), ("y0", "y0", 0, 0), ("y1", "y-1", 0, 0)]
    )
    assert verify_chain_map(refl) is None


def test_verify_rejects_grading_mismatch():
    s1 = staircase(1)
    with pytest.raises(ValidationError) as err:
        map_from_terms(s1, s1, [("y-1", "y1", 0, 0)], (0, 0))
    assert "homogeneous" in str(err.value)
    f = ChainMap(s1, s1, [1 << s1.index["y1"], 0, 0], (0, 0))
    violation = verify_chain_map(f)
    assert violation is not None and "homogeneous" in violation


def test_targets_match_iter_bits(rng):
    # iter_bits, the one walk over a mask's bits, and its readers ChainMap.targets
    # and image, against the tests' own walk on random maps: empty, sparse,
    # dense, lowest-bit-only and top-bit-only columns.
    for _ in range(60):
        n = rng.randint(1, 300)
        c = BigradedComplex([f"g{k}" for k in range(n)], [0] * n, [0] * n, [0] * n)
        kinds = [
            lambda: 0,
            lambda: 1,
            lambda: 1 << (n - 1),
            lambda: rng.getrandbits(n),
            lambda: sum(1 << rng.randrange(n) for _ in range(rng.randint(1, 4))),
        ]
        cols = [rng.choice(kinds)() for _ in range(n)]
        cols[rng.randrange(n)] = 0
        f = ChainMap(c, c, cols, (0, 0))
        assert [iter_bits(col) for col in cols] == [set_bits(col) for col in cols]
        assert f.targets == tuple(set_bits(col) for col in cols)
        assert f.targets is f.targets
        for mask in [*cols, rng.getrandbits(n)]:
            mask &= (1 << n) - 1  # a sparse column's repeated bits can carry to bit n
            acc = 0
            for j in set_bits(mask):
                acc ^= cols[j]
            assert image(cols, mask) == acc


def _with_flip(rng, cols):
    """cols with one random entry flipped."""
    cols = list(cols)
    cols[rng.randrange(len(cols))] ^= 1 << rng.randrange(len(cols))
    return cols


@pytest.mark.parametrize("seed", range(8))
def test_chain_kernel_names_the_oracle_generator(seed):
    # chain_violation and the d^2 check of validate against the plain
    # products of tests/oracle_chain.py, on a staircase, a torus sum and
    # the mirror of each: their valid maps, and copies with one flipped entry.
    rng = random.Random(seed)
    s = staircase(rng.randint(1, 4))
    cases = [(s, staircase_iota(s)), realize_with_iota(parse_knot_expr(random_torus_sum(rng, 3, 300)))]
    cases += [(m, mirror_iota(iota, m)) for c, iota in cases for m in (c.dual(),)]
    for c, iota in cases:
        for f in (iota, basepoint_map(c, "U"), basepoint_map(c, "V")):
            assert chain_violation(f) is None and first_chain_failure(f) is None
            for _ in range(5):
                cols = _with_flip(rng, f.cols)
                bad = SkewMap(c, cols) if isinstance(f, SkewMap) else ChainMap(c, c, cols, f.bidegree)
                i = first_chain_failure(bad)
                assert chain_violation(bad) == (None if i is None else f"d f != f d on generator {c.labels[i]!r}")
        assert c.validate() == [] and first_square_failure(c) is None
        for _ in range(5):
            bad = BigradedComplex(c.labels, c.grw, c.grz, _with_flip(rng, c.cols))
            squares = [v for v in bad.validate() if v.startswith("d^2(")]
            i = first_square_failure(bad)
            assert (squares[0].startswith(f"d^2({c.labels[i]}) ") if i is not None else squares == [])


def test_columns_match_explicit_polynomials(rng):
    # The oracle writes every monomial out; the program implies them from
    # the gradings and counts paths. Both must agree.
    for _ in range(30):
        a = staircase(rng.randint(0, 3)) if rng.random() < 0.5 else staircase_dual(rng.randint(0, 3))
        b = staircase(rng.randint(0, 2)).dual() if rng.random() < 0.5 else torus_knot_complex(2, 5)
        t = a.tensor(b)
        da, db, dt = (oracle_uv.matrix(terms(x)) for x in (a, b, t))
        assert dt == oracle_uv.tensor_differential(da, a.labels, db, b.labels)
        assert oracle_uv.compose(dt, dt) == {}  # d^2 = 0 over GF(2)[U,V]
        dual = oracle_uv.matrix(terms(t.dual()))
        assert dual == oracle_uv.matrix((y + "*", x + "*", u, v) for x, y, u, v in terms(t))
    # a violation the XOR check reports is a real nonzero d^2
    gens = [Generator("a", 2, 2), Generator("b", 1, 1), Generator("c", 0, 0)]
    bad = from_terms(gens, [("a", "b", 0, 0), ("b", "c", 0, 0)])
    db = oracle_uv.matrix(terms(bad))
    assert oracle_uv.compose(db, db) == {"a": {"c": oracle_uv.UV_ONE}}


def test_tensor_labels_may_collide():
    # Tensor generators are indexed (i, j); "a" x "b|c" and "a|b" x "c"
    # share a label but stay distinct generators.
    left = from_terms(
        [Generator("a", 0, 0), Generator("a|b", 1, 1), Generator("z", 0, 0)],
        [("a|b", "z", 0, 0)],
    )
    right = from_terms(
        [Generator("c", 0, 0), Generator("b|c", 1, 1), Generator("w", 0, 0)],
        [("b|c", "w", 0, 0)],
    )
    t = left.tensor(right)
    assert len(t) == 9
    assert t.validate() == []
    assert t.repeated_label() == "a|b|c"
