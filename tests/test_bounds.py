import functools
import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from knotfloer.bounds import (
    PLFunction,
    clasp_bounds,
    format_exact,
    genus_bounds,
    lt_signature_of_expr,
    plot_rows,
    signature_clasp_bound,
    upsilon_of_expr,
    upsilon_ratio_bound,
)
from knotfloer.builders import staircase, torus_knot_complex
from knotfloer.errors import UnsupportedInputError, ValidationError
from knotfloer.expressions import Mirror, Sum, TorusKnot, parse_knot_expr
from knotfloer.invariants import InvariantTable, tau_invariant
from knotfloer.involutive import realize_expr

import oracle_bounds
from conftest import random_torus_sum
from oracle_upsilon import signature_reference, step_value, upsilon_reference, upsilon_staircase

K1 = "T(2,11)#-T(4,5)"


def test_upsilon_trefoil():
    ups = upsilon_staircase(staircase(1))
    for t in (0, Fraction(1, 3), Fraction(1, 2), 1):
        assert ups(t) == -Fraction(t)
    assert ups(2) == 0


def test_upsilon_t25():
    ups = upsilon_staircase(staircase(2))
    for t in (0, Fraction(1, 2), 1):
        assert ups(t) == -2 * Fraction(t)


def test_upsilon_unknot():
    ups = upsilon_staircase(staircase(0))
    assert all(v == 0 for v in ups.values)
    assert upsilon_ratio_bound(ups) == 0


def test_pl_function_rejects_bad_breakpoints():
    zero = Fraction(0)
    with pytest.raises(ValidationError):
        PLFunction((Fraction(1), zero), (zero, zero))
    with pytest.raises(ValidationError):
        PLFunction((zero, Fraction(1), Fraction(1), Fraction(2)), (zero,) * 4)
    with pytest.raises(ValidationError):
        PLFunction((zero, Fraction(2)), (zero,))


def test_pl_function_rejects_a_nonzero_start():
    zero = Fraction(0)
    with pytest.raises(ValidationError, match="value at 0 must be 0"):
        PLFunction((zero, Fraction(2)), (Fraction(1), zero))


def test_pl_function_is_defined_on_zero_to_two_only():
    f = PLFunction((Fraction(0), Fraction(2)), (Fraction(0), Fraction(-2)))
    assert f(0) == 0 and f(2) == -2
    for t in (Fraction(-1, 3), Fraction(7, 3)):
        with pytest.raises(ValueError, match=r"argument outside \[0, 2\]"):
            f(t)


def test_upsilon_family_knot():
    ups = upsilon_of_expr(parse_knot_expr(K1))
    assert ups(1) == -1
    assert ups.initial_slope() == 1
    assert ups(Fraction(1, 2)) == Fraction(1, 2)
    assert upsilon_ratio_bound(ups) == 2


def test_upsilon_triple_family_bound():
    e = parse_knot_expr("#".join([K1] * 3))
    assert upsilon_ratio_bound(upsilon_of_expr(e)) == 6


def _mirrored_text(text: str) -> str:
    return "#".join(
        part[1:] if part.startswith("-") else "-" + part for part in text.split("#")
    )


def test_upsilon_symmetry_and_additivity():
    for text in ["T(2,3)", "T(3,4)", K1, "T(2,3)#T(4,7)#-T(5,6)"]:
        e = parse_knot_expr(text)
        ups = upsilon_of_expr(e)
        for t in ups.breakpoints:
            assert ups(t) == ups(2 - t)
        doubled = upsilon_of_expr(parse_knot_expr(text + "#" + _mirrored_text(text)))
        assert all(v == 0 for v in doubled.values)


def test_upsilon_slope_matches_tau():
    for text in ["T(2,3)", "T(2,5)", "T(3,4)", "T(4,5)", K1, "T(2,3)#T(4,7)#-T(5,6)"]:
        e = parse_knot_expr(text)
        c = realize_expr(e)
        assert upsilon_of_expr(e).initial_slope() == -tau_invariant(c), text


# The torus knots T(p, q), p < q, with p < 14, q < 20 and genus <= 15.
SMALL_TORUS = [
    TorusKnot(p, q)
    for p in range(2, 14)
    for q in range(p + 1, 20)
    if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 30
]


def _oracle_cases():
    rng = random.Random(2017)
    sums = [
        Sum(tuple(
            Mirror(k) if rng.random() < 0.5 else k
            for k in (rng.choice(SMALL_TORUS) for _ in range(rng.randint(2, 3)))
        ))
        for _ in range(40)
    ]
    return SMALL_TORUS + [Mirror(k) for k in SMALL_TORUS] + sums


def test_upsilon_and_signature_match_the_envelope_oracle():
    cases = _oracle_cases()
    assert len(SMALL_TORUS) == 26 and len(cases) == 92
    # Nested sums and a mirrored sum, which the API builds and the parser does not.
    cases.append(Mirror(Sum((TorusKnot(2, 3), Mirror(TorusKnot(3, 4))))))
    cases.append(Sum((Sum((TorusKnot(2, 5), TorusKnot(3, 4))), Mirror(TorusKnot(2, 5)))))
    # Seeded sums of up to six terms: jumps of many denominators merged at once.
    rng = random.Random(20261020)
    cases += [parse_knot_expr(random_torus_sum(rng, 6, 10**9)) for _ in range(20)]
    cases += [Sum(tuple(Mirror(k) if rng.random() < 0.5 else k for k in rng.sample(SMALL_TORUS, 6))) for _ in range(5)]
    for e in cases:
        got, want = upsilon_of_expr(e), upsilon_reference(e)
        assert got.breakpoints == want.breakpoints, e
        assert got.values == want.values, e
        assert all(type(x) is Fraction for x in got.breakpoints + got.values), e
        assert lt_signature_of_expr(e) == signature_reference(e), e


def test_upsilon_refuses_general_complexes():
    with pytest.raises(UnsupportedInputError):
        upsilon_of_expr(parse_knot_expr("HW"))
    with pytest.raises(UnsupportedInputError, match="^the signature function is only computed for torus-knot sums$"):
        lt_signature_of_expr(parse_knot_expr("HW"))


def test_upsilon_staircase_rejects_non_staircases():
    from knotfloer.builders import staircase_dual

    with pytest.raises(UnsupportedInputError):
        upsilon_staircase(staircase_dual(1))
    with pytest.raises(UnsupportedInputError):
        upsilon_staircase(staircase(1).tensor(staircase(1)))


def test_upsilon_staircase_accepts_long_steps():
    # the three-generator model complex is a staircase with steps of
    # length two; its envelope is max(-2t, -4+2t)
    from knotfloer.builders import named_complex

    ups = upsilon_staircase(named_complex("HW"))
    assert ups(1) == -2
    assert ups(Fraction(1, 2)) == -1
    assert ups.initial_slope() == -2


def test_signature_trefoil():
    sig = lt_signature_of_expr(TorusKnot(2, 3))
    assert sig.jumps == ((Fraction(1, 6), -2), (Fraction(5, 6), 2))
    assert step_value(sig, Fraction(1, 2)) == -2
    assert step_value(sig, Fraction(1, 10)) == 0


def test_signature_t34():
    sig = lt_signature_of_expr(TorusKnot(3, 4))
    assert step_value(sig, Fraction(1, 2)) == -6


@pytest.mark.parametrize(
    "p,q,message",
    [(2, 4, "torus parameters (2,4) are not coprime"), (1, 4, "torus parameters must be >= 2, got (1,4)")],
)
def test_signature_rejects_what_names_no_torus_knot(p, q, message):
    with pytest.raises(ValidationError) as exc:
        lt_signature_of_expr(TorusKnot(p, q))
    assert str(exc.value) == message


def test_signature_symmetry_and_mirror():
    for p, q in [(2, 3), (2, 5), (3, 4), (4, 5)]:
        sig = lt_signature_of_expr(TorusKnot(p, q))
        assert all(s in (-2, 2) for _, s in sig.jumps)
        xs = [x for x, _ in sig.jumps]
        assert len(set(xs)) == len(xs)
        probe = [Fraction(1, 97), Fraction(22, 97), Fraction(51, 97)]
        for t in probe:
            assert step_value(sig, t) == step_value(sig, 1 - t)
        mirrored = lt_signature_of_expr(parse_knot_expr(f"-T({p},{q})"))
        for t in probe:
            assert step_value(mirrored, t) == -step_value(sig, t)


def test_signature_extrema_examples():
    k = lt_signature_of_expr(parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)"))
    assert signature_clasp_bound(k) == (2, -4, 3)
    j = lt_signature_of_expr(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)"))
    assert signature_clasp_bound(j) == (2, -10, 6)


def test_signature_bound_below_twice_genus():
    for text, genus in [("T(2,3)", 1), ("T(3,4)", 3), ("T(4,5)", 6)]:
        sig = lt_signature_of_expr(parse_knot_expr(text))
        _, _, bound = signature_clasp_bound(sig)
        assert bound <= 2 * genus
        ups_bound = upsilon_ratio_bound(upsilon_of_expr(parse_knot_expr(text)))
        assert ups_bound <= 2 * genus


def test_genus_bounds_report():
    v = {0: 3, 1: 2, 2: 2, 3: 1, 4: 1, 5: 0}
    y = {0: 3, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 0}
    report = genus_bounds(SimpleNamespace(v=v, y=y, nu_plus=5, omega_plus=6), involutive=(3, 4))
    assert report["sources"]["v_parity"]["bound"] == 5
    assert 4 in report["sources"]["v_parity"]["certificate"]["achieved_at"]
    assert report["sources"]["y_parity"]["bound"] == 6
    assert 5 in report["sources"]["y_parity"]["certificate"]["achieved_at"]
    assert report["max"] == 6


def test_genus_bounds_example_knot():
    v = {0: 1, 1: 0}
    y = {0: 1, 1: 1, 2: 0}
    report = genus_bounds(SimpleNamespace(v=v, y=y, nu_plus=1, omega_plus=2), involutive=(1, 2))
    assert report["sources"]["v_parity"]["bound"] == 1
    assert report["sources"]["y_parity"]["bound"] == 2
    assert report["sources"]["involutive"]["bound"] == 2
    assert report["max"] == 2


def test_clasp_bounds_family_knot():
    table = SimpleNamespace(nu_plus=1, omega_plus=1, y={0: 1, 1: 0})
    mirror = SimpleNamespace(nu_plus=1, omega_plus=1, y={0: 0})
    ratio = upsilon_ratio_bound(upsilon_of_expr(parse_knot_expr(K1)))
    report = clasp_bounds(table, mirror, ratio, None, None)
    assert report["sources"]["nu_plus_sum"]["bound"] == 2
    assert report["sources"]["upsilon_ratio"]["bound"] == 2
    assert report["max"] >= 2


def _random_table(rng: random.Random) -> InvariantTable:
    """A table of random V, Y, nu+ and omega+; tau, nu and omega are not read by the bounds."""
    v = {s: rng.randint(-1, 5) for s in range(rng.randint(-2, 0), rng.randint(0, 6))}
    y = {n: rng.randint(-1, 5) for n in range(rng.randint(1, 8))}
    return InvariantTable(v, y, rng.randint(0, 6), rng.randint(0, 6), 0, 0, 0)


def test_bound_records_match_the_reference():
    rng = random.Random(20261019)
    signatures = [None] + [lt_signature_of_expr(parse_knot_expr(random_torus_sum(rng, 3, 10**6))) for _ in range(8)]
    dumps = functools.partial(json.dumps, sort_keys=True)
    for _ in range(400):
        table, mirror = _random_table(rng), _random_table(rng)
        involutive = None if rng.random() < 0.2 else tuple(sorted(rng.randint(-4, 4) for _ in range(2)))
        ratio = None if rng.random() < 0.3 else Fraction(rng.randint(0, 40), rng.randint(1, 12))
        signature = rng.choice(signatures)
        triple = None if signature is None else signature_clasp_bound(signature)
        want = oracle_bounds.genus_bounds(table.v, table.y, table.nu_plus, table.omega_plus, involutive)
        assert dumps(genus_bounds(table, involutive)) == dumps(want)
        table_k, table_mirror = (
            {"nu_plus": t.nu_plus, "omega_plus": t.omega_plus, "y": t.y} for t in (table, mirror)
        )
        want = oracle_bounds.clasp_bounds(table_k, table_mirror, ratio, triple, involutive)
        assert dumps(clasp_bounds(table, mirror, ratio, signature, involutive)) == dumps(want)


def test_format_exact():
    assert format_exact(Fraction(1, 2)) == "0.5"
    assert format_exact(Fraction(-3, 4)) == "-0.75"
    assert format_exact(Fraction(5)) == "5"
    assert format_exact(Fraction(1, 3)) == "1/3"


def test_format_exact_matches_reference():
    # Every fraction n/d, and denominators with many 2s and 5s, prints as
    # the earlier digit-by-digit scaling printed it (1/20 as "0.050").
    dens = [*range(1, 201), 256, 625, 1000, 1024, 3125, 128000]
    for d in dens:
        for n in range(-400, 401):
            x = Fraction(n, d)
            assert format_exact(x) == oracle_bounds.format_exact(x), x
    assert format_exact(Fraction(1, 20)) == "0.050"


def test_plot_rows_family_knot():
    ups = upsilon_of_expr(parse_knot_expr(K1))
    rows = plot_rows(ups)
    assert (Fraction(1), Fraction(-1)) in rows
    assert rows[0] == (Fraction(0), Fraction(0))
    first_slope = (rows[1][1] - rows[0][1]) / (rows[1][0] - rows[0][0])
    assert first_slope == 1


def test_upsilon_oracle_imports_nothing_from_builders():
    # The oracle checks the exponents and staircases of `knotfloer.builders`, so it shares none of their code.
    import ast

    import oracle_upsilon

    with open(oracle_upsilon.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not [name for name in imported if name and name.split(".")[:2] == ["knotfloer", "builders"]]
    assert all(getattr(value, "__module__", None) != "knotfloer.builders" for value in vars(oracle_upsilon).values())
