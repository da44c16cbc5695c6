import gc
import os
import random
import weakref
from collections import Counter

import pytest

from knotfloer import invariants
from knotfloer.builders import named_complex, staircase, staircase_dual, torus_knot_complex
from knotfloer.complexes import BigradedComplex, Generator
from knotfloer.errors import ConsistencyError, ValidationError
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex
from knotfloer.fu import FUComplex, tower_reduce
from knotfloer.involutive import realize_expr, realize_with_iota
from knotfloer.linalg import iter_bits
from knotfloer.invariants import (
    InvariantTable,
    a_level_complex,
    compute_invariant_table,
    is_knotlike,
    nu_hat,
    nu_plus,
    omega_hat,
    omega_plus,
    release,
    require_knot_complex,
    tau_invariant,
    v_invariant,
    y_invariant,
)

from conftest import UNKNOT, level_monomials, random_torus_sum, scramble
from fu_views import fu_cols, tower_terms
from oracle_nu import nu_hat_scan
from oracle_omega import omega_feasible
from oracle_tau import tau_scan
from oracle_terms import exponents, from_terms

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
HW_FILE = os.path.join(DATA, "hw.cfk")


def corpus():
    k = realize_expr(parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)"))
    k1 = realize_expr(parse_knot_expr("T(2,11)#-T(4,5)"))
    return {
        "T(2,3)": torus_knot_complex(2, 3),
        "T(2,5)": torus_knot_complex(2, 5),
        "T(3,4)": torus_knot_complex(3, 4),
        "T(4,5)": torus_knot_complex(4, 5),
        "K": k,
        "K1": k1,
        "HW": named_complex("HW"),
    }


def test_is_knotlike():
    assert is_knotlike(UNKNOT)
    assert is_knotlike(staircase(2))
    assert is_knotlike(named_complex("HW"))
    assert is_knotlike(staircase(1).tensor(staircase_dual(2)))
    two_dots = from_terms([Generator("a", 0, 0), Generator("b", 0, 0)], [])
    assert not is_knotlike(two_dots)


def test_level_complex_rejects_non_knotlike():
    two_dots = from_terms([Generator("a", 0, 0), Generator("b", 0, 0)], [])
    message = r"^complex is not knot-like \(localized tower rank != 1\)$"
    with pytest.raises(ValidationError, match=message):
        a_level_complex(two_dots, 0)
    # V and Y build their level before they read tau, so they name the fault as the level does.
    with pytest.raises(ValidationError, match=message):
        v_invariant(two_dots, 0)
    with pytest.raises(ValidationError, match=message):
        y_invariant(two_dots, 1)
    with pytest.raises(ValidationError, match="^tau undefined: complex is not knot-like$"):
        tau_invariant(two_dots)
    with pytest.raises(ValidationError, match="^nu undefined: complex is not knot-like$"):
        nu_hat(two_dots)


def test_y_invariant_rejects_negative_index():
    with pytest.raises(ValidationError, match="^index must be nonnegative$"):
        y_invariant(UNKNOT, -1)


def test_unknot_levels():
    for s in range(3):
        level = a_level_complex(UNKNOT, s)
        assert level_monomials(UNKNOT, level, s) == ((0, s),)
        assert level.gradings == (0,)


def test_v_values_model_complex():
    assert v_invariant(named_complex("HW"), 0) == 2


def test_v_values_trefoil():
    s1 = staircase(1)
    assert v_invariant(s1, 0) == 1
    assert v_invariant(s1, 1) == 0
    assert nu_plus(s1) == 1


def test_y_equals_v_at_zero():
    for name, c in corpus().items():
        assert y_invariant(c, 0) == v_invariant(c, 0), name


def test_tau_examples():
    assert tau_invariant(named_complex("HW")) == 2
    assert tau_invariant(torus_knot_complex(2, 3)) == 1
    k1 = realize_expr(parse_knot_expr("T(2,11)#-T(4,5)"))
    assert tau_invariant(k1) == -1


def random_staircase(rng: random.Random, normalized: bool = False) -> BigradedComplex:
    """Zigzag with random step lengths, its first generator at a random bigrading.

    Generator 2k+1 hits 2k by a U-power and 2k+2 by a V-power. The
    lengths are independent, so the complex is not symmetric, and the
    shift moves its towers off grw = 0 and grz = 0. `normalized` puts
    them back where a knot's are: the U = 0 tower is the first
    generator, at grw = 0, and the V = 0 tower the last, at grz = 0.
    """
    grw, grz = [2 * rng.randint(-2, 2)], [2 * rng.randint(-2, 2)]
    cols = [0]
    for k in range(rng.randint(1, 3)):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        w, z = grw[-1] + 1 - 2 * a, grz[-1] + 1
        grw += [w, w - 1]
        grz += [z, z - 1 + 2 * b]
        cols += [0b101 << (2 * k), 0]
    if normalized:
        grw = [w - grw[0] for w in grw]
        grz = [z - grz[-1] for z in grz]
    labels = [f"s{i}" for i in range(len(cols))]
    return BigradedComplex(labels, grw, grz, cols).require_valid()


def asymmetric_sums(rng: random.Random, count: int):
    """Normalized random staircases tensored with 0-2 small torus knots."""
    out = []
    for k in range(count):
        c = random_staircase(rng, normalized=True)
        for part in random_torus_sum(rng, 2, 60).split("#")[: rng.randint(0, 2)]:
            c = c.tensor(realize_expr(parse_knot_expr(part)))
        out.append((f"asymmetric sum {k}", c))
    return out


def shuffled(c: BigradedComplex, rng: random.Random) -> BigradedComplex:
    """c with its generators in a random order.

    Staircases and their tensors put the U = 0 tower generator at index 0;
    the shuffle keeps a wrong index from passing unseen.
    """
    perm = list(range(len(c)))
    rng.shuffle(perm)
    where = {old: new for new, old in enumerate(perm)}
    cols = [sum(1 << where[j] for j in iter_bits(c.cols[old])) for old in perm]
    return BigradedComplex(
        [c.labels[i] for i in perm], [c.grw[i] for i in perm], [c.grz[i] for i in perm], cols
    ).require_valid()


def shifted(c: BigradedComplex, k: int) -> BigradedComplex:
    """c with both gradings raised by k: A is unchanged, and the towers leave grw = 0 and grz = 0."""
    return BigradedComplex(c.labels, [w + k for w in c.grw], [z + k for z in c.grz], c.cols)


def scrambled_sums(rng: random.Random, count: int):
    """Dense, locally equivalent copies (`conftest.scramble`) of seeded torus sums."""
    out = []
    for _ in range(count):
        expr = random_torus_sum(rng, 3, 150)
        out.append(("scrambled " + expr, scramble(*realize_with_iota(parse_knot_expr(expr)), rng)[0]))
    return out


def test_tau_matches_scan_oracle():
    rng = random.Random(20261018)
    texts = ["T(2,11)#T(4,7)#-T(5,6)", "T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)"]
    texts += [random_torus_sum(rng, 3, 400) for _ in range(30)]
    cases = [(text, realize_expr(parse_knot_expr(text))) for text in texts]
    cases.append(("hw.cfk", load_complex(HW_FILE)[0]))
    for k in range(30):
        c = random_staircase(rng)
        for part in random_torus_sum(rng, 2, 60).split("#"):
            c = c.tensor(realize_expr(parse_knot_expr(part)))
        cases.append((f"staircase sum {k}", c))
    for name, c in cases:
        for complex_ in (c, c.dual(), shuffled(c, rng), shuffled(c.dual(), rng)):
            assert tau_invariant(complex_) == tau_scan(complex_), name


def test_tau_runs_no_reduction_after_knotlike(monkeypatch):
    calls = []
    real = invariants.tower_reduce

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "tower_reduce", counted)
    c, iota = realize_with_iota(parse_knot_expr("T(2,5)#-T(3,4)"))
    assert is_knotlike(c)
    # A sum reads its quotients off its summands' (Kunneth): the U = 0
    # quotient of each 5-generator summand is reduced, and none of the sum's
    # 25 generators. Index reversal is a skew automorphism of a torus knot
    # and of its mirror, so each V = 0 quotient is read off the U = 0 one.
    assert calls == [5, 5]
    assert tau_invariant(c) == -1
    require_knot_complex(c)  # the U = 0 and V = 0 tower gradings
    # nu and omega pair with these cocycles: the same derivation gives them.
    assert all(invariants._quotient(c, mode)[1] for mode in ("U0", "V0"))
    assert calls == [5, 5]
    assert tau_invariant(c.dual()) == 1  # a fresh complex: its U = 0 quotient, at full size
    assert calls == [5, 5, 25]
    # The report's mirror reads both quotients off the knot's: no reduction.
    assert tau_invariant(invariants.release_to_dual(c)) == 1
    assert calls == [5, 5, 25]
    # A scrambled copy has no such symmetry: both quotients are reduced, once each.
    dense = scramble(c, iota, random.Random(20261019))[0]
    assert not dense.reversal_symmetric
    assert tau_invariant(dense) == -1
    require_knot_complex(dense)
    assert all(invariants._quotient(dense, mode)[1] for mode in ("U0", "V0"))
    assert len(calls) == 5


def test_tau_of_positive_torus_knots_is_genus():
    for p, q in [(2, 3), (2, 5), (3, 4), (4, 5), (4, 7)]:
        genus = (p - 1) * (q - 1) // 2
        assert tau_invariant(torus_knot_complex(p, q)) == genus


def test_v0_t45():
    assert v_invariant(torus_knot_complex(4, 5), 0) == 3


def test_nu_examples():
    assert nu_hat(named_complex("HW")) == 2
    assert nu_hat(torus_knot_complex(2, 3)) == 1
    assert nu_hat(UNKNOT) == 0


def test_omega_examples():
    assert omega_hat(named_complex("HW")) == 3
    assert omega_hat(torus_knot_complex(2, 3)) == 1
    assert omega_hat(UNKNOT) == 0


def test_omega_of_negative_tau_knots():
    assert omega_hat(torus_knot_complex(2, 3).dual()) == 0
    assert omega_hat(torus_knot_complex(2, 11).dual()) == 0


def test_nu_omega_of_positive_torus_knots():
    # a staircase maps into itself, so omega = tau = genus there, and the
    # top cycle generator makes nu = tau as well
    for p, q in [(2, 5), (3, 4), (4, 5)]:
        genus = (p - 1) * (q - 1) // 2
        c = torus_knot_complex(p, q)
        assert nu_hat(c) == genus
        assert omega_hat(c) == genus


def test_nu_plus_family_knot():
    k1 = realize_expr(parse_knot_expr("T(2,11)#-T(4,5)"))
    assert nu_plus(k1) == 1
    assert nu_plus(k1.dual()) == 1


def test_omega_plus_example_knot():
    k = realize_expr(parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)"))
    assert omega_plus(k) == 2
    assert omega_plus(UNKNOT) == 0


def test_iteration_cap_flags_bug(monkeypatch):
    monkeypatch.setattr(invariants, "_default_cap", lambda c: 1)
    with pytest.raises(ConsistencyError, match="^V_s did not vanish by the iteration cap 1$"):
        nu_plus(torus_knot_complex(4, 5))


def test_monotonicity_and_bounds_on_corpus():
    for name, c in corpus().items():
        table = compute_invariant_table(c)
        vs = table.v
        ys = table.y
        for s in range(table.nu_plus):
            assert vs[s + 1] <= vs[s] <= vs[s + 1] + 1, name
        assert vs[table.nu_plus] == 0
        for n in range(table.omega_plus):
            assert ys[n + 1] <= ys[n] <= ys[n + 1] + 1, name
        assert ys[table.omega_plus] == 0
        for n in ys:
            if n in vs:
                assert vs[n] <= ys[n], name
        assert table.nu_hat in (table.tau, table.tau + 1), name
        assert table.omega_hat in (table.tau, table.tau + 1) or (
            table.tau < 0 and table.omega_hat == 0
        ), name
        assert table.nu_hat <= table.omega_hat, name
        assert table.nu_plus <= table.omega_plus, name


def test_mirror_antisymmetry_of_tau():
    for name, c in corpus().items():
        assert tau_invariant(c.dual()) == -tau_invariant(c), name
        assert v_invariant(c, 0) >= 0 and v_invariant(c.dual(), 0) >= 0, name


def test_v_vanishes_beyond_top_alexander():
    for name, c in corpus().items():
        top = c.max_alexander()
        assert v_invariant(c, max(top, 0)) == 0, name


def _mixed_sums(seed, count):
    """Seeded connected sums of 1-3 small torus knots and HW, mixed signs."""
    rng = random.Random(seed)
    terms = ["T(2,3)", "T(2,5)", "T(3,4)", "T(2,7)", "T(3,5)", "HW"]
    out = []
    for _ in range(count):
        parts = [
            rng.choice(("", "-")) + rng.choice(terms) for _ in range(rng.randint(1, 3))
        ]
        out.append("#".join(parts))
    return out


def test_nu_matches_full_scan_oracle():
    rng = random.Random(20261019)
    exprs = [
        "T(2,11)#T(4,7)#-T(5,6)",
        "T(2,3)#T(4,7)#-T(5,6)",
        "T(2,11)#-T(4,5)",
        "HW",
    ] + _mixed_sums(20260, 30)
    cases = [(text, realize_expr(parse_knot_expr(text))) for text in exprs]
    cases += asymmetric_sums(rng, 30)
    # nu reads only the hat cycles in the grading of the U = 0 tower; shifted complexes move it off 0.
    extra = random.Random(20261021)
    sums = scrambled_sums(extra, 10)
    small = [(text, realize_expr(parse_knot_expr(text))) for text in ("T(2,3)", "-T(2,5)", "T(3,4)#T(2,3)")]
    cases += sums + [(f"{name} shifted by {k}", shifted(c, k)) for name, c in small + sums for k in (2, -4)]
    for name, c in cases:
        for complex_ in (c, c.dual(), shuffled(c, rng), shuffled(c.dual(), rng)):
            assert nu_hat(complex_) == nu_hat_scan(complex_), name


def model_ends(c: BigradedComplex, n: int):
    """The hat ends of level 0 of C tensor St*_n, on a model cone built here: the report reads only the candidate n."""
    return invariants._hat_ends(c, tower_reduce(invariants._cone(c, 0, n)), 0, n)


def staircase_map(c: BigradedComplex, n: int) -> bool:
    """omega's per-n test."""
    return invariants._admits_map(model_ends(c, n))


def test_omega_matches_affine_oracle_at_every_n():
    # Symmetric complexes alone pass a test that drops the U-end or the
    # V-end condition; the asymmetric sums do not. They are no knot's
    # complexes, so omega itself may leave {tau, tau + 1} there, and only
    # the per-n answers are compared.
    rng = random.Random(20261020)
    texts = ["T(2,11)#T(4,7)#-T(5,6)", "T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)"]
    texts += [random_torus_sum(rng, 3, 400) for _ in range(30)]
    knots = [(text, realize_expr(parse_knot_expr(text))) for text in texts]
    knots.append(("hw.cfk", load_complex(HW_FILE)[0]))
    cases = [(name, c, True) for name, c in knots]
    cases += [(name, c, False) for name, c in asymmetric_sums(rng, 30)]
    cases += [(name, c, True) for name, c in scrambled_sums(random.Random(20261022), 10)]
    for name, c, is_knot in cases:
        for complex_ in (c, c.dual(), shuffled(c, rng), shuffled(c.dual(), rng)):
            ns = range(max(tau_invariant(complex_), 0) + 4)
            feasible = [n for n in ns if staircase_map(complex_, n)]
            assert feasible == [n for n in ns if omega_feasible(complex_, n)], name
            if is_knot:
                assert omega_hat(complex_) == feasible[0], name


def test_omega_hat_needs_both_ends_on_asymmetric_complexes():
    # A knot complex is symmetric, so its two staircase ends agree and a
    # test that reads one end, or accepts either, passes it; on these sums
    # the ends differ. omega_hat must give the first Hom-Wu candidate the
    # oracle finds feasible, and fail when there is none.
    one_end_tests = {
        "v1 end only": lambda ends: any(v1 for v1, _u1 in ends),
        "u1 end only": lambda ends: any(u1 for _v1, u1 in ends),
        "either end": lambda ends: any(v1 or u1 for v1, u1 in ends),
    }
    told_apart = set()
    for name, c in asymmetric_sums(random.Random(20261023), 40):
        for complex_ in (c, c.dual()):
            tau = tau_invariant(complex_)
            candidates = [n for n in (tau, tau + 1) if n >= 0] or [0]
            expected = next((n for n in candidates if omega_feasible(complex_, n)), None)
            if expected is None:
                with pytest.raises(ConsistencyError):
                    omega_hat(complex_)
            else:
                assert omega_hat(complex_) == expected, name
            ends = {n: model_ends(complex_, n) for n in candidates}
            for label, admits in one_end_tests.items():
                if next((n for n in candidates if admits(ends[n])), None) != expected:
                    told_apart.add(label)
    assert told_apart == set(one_end_tests)


def test_shifted_towers_are_bad_input_for_omega_not_nu():
    # omega's staircase map needs both towers at grading 0, so a shifted
    # complex is bad input there, not an internal failure; nu reads the
    # hat cycles in the grading of the U = 0 tower and stays defined.
    c = load_complex(os.path.join(DATA, "shifted_t23.cfk"))[0]
    with pytest.raises(ValidationError, match="the U = 0 tower generator 'g0' has grw = 2, not 0"):
        omega_hat(c)
    for complex_ in (c, c.dual(), shifted(c, -6)):
        assert nu_hat(complex_) == nu_hat_scan(complex_)


def test_report_builds_each_level_once(monkeypatch, capsys):
    # V_s, Y_n, nu and omega all read one split per level s of a complex.
    from knotfloer.cli import main

    builds = Counter()
    real = invariants.a_level_complex

    def counting(c, s):
        builds[id(c), s] += 1
        return real(c, s)

    monkeypatch.setattr(invariants, "a_level_complex", counting)
    for expr in ["T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)", "@" + HW_FILE, "@" + os.path.join(DATA, "scrambled_k1.cfk")]:
        builds.clear()
        assert main(["report", "--expr", expr, "--format", "json"]) == 0, expr
        capsys.readouterr()
        assert builds and max(builds.values()) == 1, (expr, [key for key, count in builds.items() if count > 1])


def test_knot_check_needs_a_symmetric_euler_characteristic():
    # sum (-1)^grw t^A of a knot complex is the symmetric Alexander
    # polynomial, so torus sums and their mirrors pass. Of the normalized
    # staircases, those with an asymmetric one are rejected, and those
    # that pass still give a self-consistent invariant table.
    rng = random.Random(1)
    for _ in range(10):
        c = realize_expr(parse_knot_expr(random_torus_sum(rng, 3, 400)))
        require_knot_complex(c)
        require_knot_complex(c.dual())
    passed = 0
    for _ in range(100):
        c = random_staircase(rng, normalized=True)
        for complex_ in (c, c.dual()):
            chi = {}
            for g in complex_.gens:
                chi[g.alexander] = chi.get(g.alexander, 0) + (-1) ** (g.grw % 2)
            if all(chi[a] == chi.get(-a, 0) for a in chi):
                require_knot_complex(complex_)
                compute_invariant_table(complex_)
                passed += 1
            else:
                with pytest.raises(ValidationError, match="Euler characteristic is not symmetric"):
                    require_knot_complex(complex_)
    assert 0 < passed < 200


def test_staircase_tensors_are_knotlike():
    # a_level_complex checks the knot-likeness of C alone; this is the Kunneth step that relies on.
    for text in ["T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)"]:
        c = realize_expr(parse_knot_expr(text))
        for cc in (c, c.dual()):
            for n in range(1, omega_plus(cc) + 1):
                assert is_knotlike(cc.tensor(staircase_dual(n))), (text, n)


def test_report_builds_no_staircase_tensor(monkeypatch, capsys):
    # Y_n is built from the knot's own columns: the report makes no dual
    # staircase, and its only tensors are the two that realize the sum.
    import knotfloer.builders as builders
    from knotfloer.cli import main

    duals = []
    tensors = []
    real_dual = builders.staircase_dual
    real_tensor = BigradedComplex.tensor

    def counting_dual(n):
        duals.append(n)
        return real_dual(n)

    def counting_tensor(self, other):
        out = real_tensor(self, other)
        tensors.append(len(out))
        return out

    monkeypatch.setattr(builders, "staircase_dual", counting_dual)
    monkeypatch.setattr(BigradedComplex, "tensor", counting_tensor)
    assert main(["report", "--expr", "T(2,3)#T(4,7)#-T(5,6)", "--format", "json"]) == 0
    capsys.readouterr()
    assert duals == []
    assert tensors == [3 * 11, 297]  # T(2,3)#T(4,7), then #-T(5,6)


def _with_entry(c, source, target):
    """c with one more entry of d, from generator `source` to `target`."""
    cols = list(c.cols)
    cols[c.index[source]] ^= 1 << c.index[target]
    return BigradedComplex(c.labels, c.grw, c.grz, cols)


def test_invalid_complex_is_rejected_once_naming_the_entry(monkeypatch, capsys):
    from knotfloer.cli import main
    from knotfloer.complexes import Differential

    # g0 -> g2 of T(2,3) has an odd grw gap; g0 -> g3 of T(2,5) is U^-1 V^2 g3.
    assert exponents(_with_entry(torus_knot_complex(2, 5), "g0", "g3").d, 0, 3) == (-1, 2)
    cases = [(torus_knot_complex(2, 3), "g0", "g2"), (torus_knot_complex(2, 5), "g0", "g3")]
    calls = [lambda c: a_level_complex(c, 0), lambda c: v_invariant(c, 0), nu_hat, omega_hat]
    for knot, source, target in cases:
        for call in calls:
            with pytest.raises(ValidationError, match=rf"term {target} in d\({source}\)"):
                call(_with_entry(knot, source, target))

    # A report checks the premise of each complex at most once.
    checked = []
    real = Differential.illegal_entries

    def counting(self):
        checked.append(self.source)
        return real(self)

    monkeypatch.setattr(Differential, "illegal_entries", counting)
    assert main(["report", "--expr", "T(2,3)#T(4,7)#-T(5,6)", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(set(map(id, checked))) == len(checked)
    assert [len(c) for c in checked].count(297) == 2  # K and its mirror


def _check_glue_and_dropped_bases(c):
    """The table's glue is pi_t iota_s of full reductions into the odd blocks of its cones, whose levels but 0 drop their basis.

    Each full reduction is `tower_reduce` of the level with that split's
    own tie order, read off the split of a fresh copy of c, which no cone
    has dropped: a negative level of a reversal-symmetric complex breaks
    ties in the reflected label order (`fu.Reduction.reflected`).
    """
    compute_invariant_table(c)
    splits, glue = c._splits, c._glue
    cones = [[s + n - k for k in range(2 * n + 1)] for s, n in c._levels if n > 0]
    pairs = {(levels[a], levels[b]) for levels in cones for b in range(1, len(levels), 2) for a in (b - 1, b + 1)}
    assert set(glue) == pairs
    odd = {t for _source, t in pairs}
    fresh = BigradedComplex(c.labels, c.grw, c.grz, c.cols)
    full = {}
    for s in splits:
        ties = invariants.level_split(fresh, s).fu.ties
        full[s] = tower_reduce(FUComplex(a_level_complex(c, s).gradings, list(map(iter_bits, c.cols)), ties=ties))
    for s, t in pairs:
        assert glue[s, t] == [full[t].project(v) for v in full[s].inc], (s, t)
    # Between two negative levels of a reversal-symmetric complex, the glue is its twin's.
    aliased = [(s, t) for s, t in pairs if max(s, t) < 0]
    assert all((glue[s, t] is glue[-s, -t]) == c.reversal_symmetric for s, t in aliased)
    for s, split in splits.items():
        assert (split.inc, split.unpaired, split.indices) == (full[s].inc, full[s].unpaired, full[s].indices)
        model, again = split.model, full[s].model
        assert (model.gradings, fu_cols(model)) == (again.gradings, fu_cols(again))
        dropped = s != 0 and s in odd
        assert (split.vectors is None) == dropped, s
        if dropped:
            with pytest.raises(ConsistencyError):
                split.project(1)
        else:
            assert [tower_terms(split, t) for t in range(split.rank)] == [tower_terms(full[s], t) for t in range(split.rank)]


def test_levels_that_drop_their_basis_drop_their_complex():
    # J's Y_n cones drop the bases of their odd blocks but level 0; its mirror builds no
    # cone with n > 0, so it builds no glue and drops no basis.
    j = realize_expr(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)"))
    for c in (j, j.dual()):
        compute_invariant_table(c)
        for s, split in c.__dict__["_splits"].items():
            assert (split.fu is None) == (split.vectors is None), s
    assert any(split.fu is None for split in j.__dict__["_splits"].values())


@pytest.mark.parametrize(
    "build",
    [
        lambda: realize_expr(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)")),
        lambda: load_complex(HW_FILE)[0],
        lambda: realize_expr(parse_knot_expr("T(2,3)#T(4,7)#-T(5,6)")).dual(),
    ],
    ids=["J", "hw.cfk", "dual of K"],
)
def test_a_released_complex_is_freed_at_del(build):
    # With the cyclic collector off, a complex outlives its last reference only when
    # something it keeps points back at it, as a cached differential did.
    gc.disable()
    try:
        c = build()
        c.targets, c.d.targets
        compute_invariant_table(c)
        release(c)
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_levels_drop_their_basis_once_their_glue_is_built():
    # K, K1, HW, J, four seeded sums, and the mirror of each.
    rng = random.Random(20261019)
    exprs = ["T(2,11)#T(4,7)#-T(5,6)"] + [random_torus_sum(rng, 3, 300) for _ in range(4)]
    known = corpus()
    for c in [known["K"], known["K1"], known["HW"]] + [realize_expr(parse_knot_expr(e)) for e in exprs]:
        for complex_ in (c, c.dual()):
            _check_glue_and_dropped_bases(complex_)


def test_the_table_holds_few_level_bases_at_each_reduction(monkeypatch):
    # The Y ladder runs first, so the V ladder reads levels that a cone split and, but for
    # level 0 and the ladder's two ends, dropped: J holds at most 3 bases at a reduction.
    # Climbing the V ladder first split levels outside any cone, and held 7 at J's peak.
    # Levels s and -s of a reversal-symmetric complex share one basis list, which is
    # freed when both drop it, so the distinct lists are counted.
    real, under, held = invariants.tower_reduce, [], []

    def counting(fu):
        splits = under[-1].__dict__.get("_splits", {}).values()
        held.append(len({id(split.vectors) for split in splits if split.vectors is not None}))
        return real(fu)

    monkeypatch.setattr(invariants, "tower_reduce", counting)
    j = realize_expr(parse_knot_expr("T(2,11)#T(4,7)#-T(5,6)"))
    for c in (j, j.dual()):
        under.append(c)
        held.clear()
        compute_invariant_table(c)
        assert 0 < max(held) <= 4
    assert c._glue == {}  # the mirror's table builds no cone with n > 0


def test_table_reads_indices_past_the_ladder_as_zero():
    """The tables end at V_(nu+) = 0 and Y_(omega+) = 0, and the values past them, built directly, are 0."""
    rng = random.Random(20261019)
    cases = [load_complex(HW_FILE)[0]]
    for _ in range(4):
        c = realize_expr(parse_knot_expr(random_torus_sum(rng, 3, 150)))
        cases += [c, c.dual()]
    for c in cases:
        table = compute_invariant_table(c)
        nu_p, omega_p = table.nu_plus, table.omega_plus
        assert list(table.v) == list(range(nu_p + 1)) and list(table.y) == list(range(omega_p + 1))
        assert table.v[nu_p] == table.y[omega_p] == 0
        assert [v_invariant(c, nu_p + k) for k in (1, 2, 3)] == [0, 0, 0]
        assert [y_invariant(c, omega_p + k) for k in (1, 2, 3)] == [0, 0, 0]


# --- the internal-consistency net -------------------------------------------

# A consistent table: V = Y = (1, 0), nu+ = omega+ = 1, tau = nu = omega = 1.
LAWFUL = dict(v={0: 1, 1: 0}, y={0: 1, 1: 0}, nu_plus=1, omega_plus=1, tau=1, nu_hat=1, omega_hat=1)

BROKEN_LAWS = [
    # (id, fields changed from LAWFUL, the one message)
    ("negative V", dict(v={0: 1, 1: 0, 2: -1}), "V_2 = -1 < 0"),
    ("V not monotone", dict(v={0: 1, 1: 0, 2: 1}), "V_1=0, V_2=1 breaks monotonicity"),
    ("Y not monotone", dict(y={0: 1, 1: 0, 2: 1}), "Y_1=0, Y_2=1 breaks monotonicity"),
    ("V drops by 2", dict(v={0: 3, 1: 1}, y={0: 3, 1: 2}), "V_0=3, V_1=1 breaks monotonicity"),
    ("Y drops by 2", dict(v={0: 3}, y={0: 3, 1: 1}), "Y_0=3, Y_1=1 breaks monotonicity"),
    ("V above Y", dict(v={0: 1, 1: 1}), "V_1=1 > Y_1=0"),
    ("Y_0 is not V_0", dict(y={0: 2, 1: 1}), "Y_0=2 != V_0=1"),
    ("nu off tau", dict(nu_hat=0), "nu=0 outside {tau, tau+1}, tau=1"),
    ("omega off tau", dict(omega_hat=3), "omega=3 outside {tau, tau+1}, tau=1"),
    ("omega with negative tau", dict(tau=-1, nu_hat=0), "omega=1 nonzero with tau=-1 < 0"),
    ("nu above omega", dict(nu_hat=2), "nu=2 > omega=1"),
    ("nu+ above omega+", dict(nu_plus=2), "nu+=2 > omega+=1"),
]


@pytest.mark.parametrize("change,message", [case[1:] for case in BROKEN_LAWS], ids=[case[0] for case in BROKEN_LAWS])
def test_each_broken_law_is_named(change, message):
    assert InvariantTable(**LAWFUL).consistency_violations() == []
    assert InvariantTable(**{**LAWFUL, **change}).consistency_violations() == [message]


def test_corpus_tables_keep_every_law():
    for expr in ("T(2,11)#T(4,7)#-T(5,6)", "T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)", "HW"):
        c = named_complex("HW") if expr == "HW" else realize_expr(parse_knot_expr(expr))
        for complex_ in (c, c.dual()):
            assert compute_invariant_table(complex_).consistency_violations() == [], expr
