import random

import pytest

from knotfloer.bounds import lt_signature_of_expr
from knotfloer.builders import alexander_exponents, staircase
from knotfloer.errors import ParseError, ValidationError
from knotfloer.expressions import (
    MAX_TORUS_DEGREE,
    FileRef,
    Mirror,
    Named,
    Sum,
    TorusKnot,
    expr_to_string,
    parse_knot_expr,
    torus_terms,
)
from knotfloer.involutive import realize_expr


def test_parse_triple_sum():
    e = parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)")
    assert e == Sum((TorusKnot(2, 3), TorusKnot(4, 7), Mirror(TorusKnot(5, 6))))


def test_parse_family_knot():
    e = parse_knot_expr("T(2,11)#-T(4,5)")
    assert e == Sum((TorusKnot(2, 11), Mirror(TorusKnot(4, 5))))


def test_parse_rejects_non_coprime():
    with pytest.raises(ParseError) as err:
        parse_knot_expr("T(2,2)")
    assert "coprime" in str(err.value)
    assert err.value.position > 0


def test_parse_rejects_torus_parameters_past_the_ceiling():
    # (p - 1)(q - 1) is checked from p and q alone, so nothing here is built.
    assert MAX_TORUS_DEGREE == 30000
    assert parse_knot_expr("T(2,30001)") == TorusKnot(2, 30001)
    assert TorusKnot(2, 30001).problem is None
    for text, term in (("T(99999999999999999999,2)", "(99999999999999999999,2)"), ("T(2,3)#-T(30003,2)", "(30003,2)")):
        with pytest.raises(ParseError) as err:
            parse_knot_expr(text)
        assert str(err.value).startswith(f"torus parameters {term} are too large"), text
    for build in (alexander_exponents, lambda p, q: lt_signature_of_expr(TorusKnot(p, q))):
        with pytest.raises(ValidationError, match="too large"):
            build(2**64 + 1, 2)
    # More digits than int() converts, on Pythons that cap them, is a syntax error too.
    with pytest.raises(ParseError):
        parse_knot_expr("T(" + "9" * 5000 + ",2)")


def test_parse_whitespace_and_files():
    e = parse_knot_expr("  T( 2 , 3 ) # @some/path.cfk # HW ")
    assert e == Sum((TorusKnot(2, 3), FileRef("some/path.cfk"), Named("HW")))


def test_parse_errors_have_positions():
    for text in ["", "T(2,3)#", "-", "T(2,", "T(2,3)x", "#T(2,3)"]:
        with pytest.raises(ParseError):
            parse_knot_expr(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("W(2,3)", "unexpected trailing input (at position 1)"),
        ("x(2,3)", "unexpected trailing input (at position 1)"),
        ("#(2,3)", "expected a torus knot, a name, or '@path' (at position 0)"),
    ],
)
def test_only_T_opens_a_torus_knot(text, message):
    # Another letter before a pair is a name followed by junk; a '#' starts no term.
    with pytest.raises(ParseError) as err:
        parse_knot_expr(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["T(\u00b2,3)", "T(\u0662,3)", "T(2,\uff13)"])
def test_parse_reads_only_ascii_digits(text):
    # A superscript two, an Arabic-Indic two and a fullwidth three.
    with pytest.raises(ParseError) as err:
        parse_knot_expr(text)
    assert "expected an integer" in str(err.value)


def random_expr(rng, depth=0):
    roll = rng.random()
    if roll < 0.45 or depth >= 2:
        pairs = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6)]
        atom = TorusKnot(*rng.choice(pairs))
    elif roll < 0.6:
        atom = Named(rng.choice(["HW", "alpha", "beta_2"]))
    else:
        atom = FileRef(rng.choice(["a.cfk", "dir/b.cfk"]))
    if rng.random() < 0.4:
        atom = Mirror(atom)
    if depth == 0 and rng.random() < 0.6:
        terms = [atom]
        for _ in range(rng.randint(1, 3)):
            t = random_expr(rng, depth + 1)
            terms.extend(t.children if isinstance(t, Sum) else [t])
        return Sum(tuple(terms))
    return atom


def test_round_trip_1000():
    rng = random.Random(424242)
    for _ in range(1000):
        e = random_expr(rng)
        assert parse_knot_expr(expr_to_string(e)) == e


def test_non_expressions_are_refused():
    from knotfloer.involutive import realize_with_iota

    for build in (expr_to_string, realize_with_iota):
        with pytest.raises(TypeError, match="^not a knot expression: 42$"):
            build(42)


def test_realize_trefoil():
    c = realize_expr(parse_knot_expr("T(2,3)"))
    s = staircase(1)
    assert [(g.grw, g.grz) for g in c.gens] == [(g.grw, g.grz) for g in s.gens]


def test_realize_mirror_is_dual():
    c = realize_expr(parse_knot_expr("-T(2,3)"))
    assert sorted((g.grw, g.grz) for g in c.gens) == [(0, 2), (1, 1), (2, 0)]


def test_realize_sum_generates_product():
    c = realize_expr(parse_knot_expr("T(2,3)#T(2,3)"))
    assert len(c.gens) == 9


def test_torus_terms():
    assert torus_terms(parse_knot_expr("T(2,3)#-T(4,5)")) == [(1, 2, 3), (-1, 4, 5)]
    assert torus_terms(parse_knot_expr("-T(3,4)")) == [(-1, 3, 4)]
    nested = Mirror(Sum((TorusKnot(2, 3), Mirror(Sum((TorusKnot(2, 5), Mirror(TorusKnot(3, 4))))))))
    assert torus_terms(nested) == [(-1, 2, 3), (1, 2, 5), (-1, 3, 4)]
    assert torus_terms(parse_knot_expr("T(2,3)#HW")) is None
    assert torus_terms(Mirror(Sum((TorusKnot(2, 3), FileRef("a.cfk"))))) is None
    assert torus_terms(parse_knot_expr("@file.cfk")) is None
