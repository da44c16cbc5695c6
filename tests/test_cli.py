import dataclasses
import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from knotfloer.bounds import PLFunction
from knotfloer.cli import _attach_expr_values, main
from knotfloer.errors import ValidationError
from knotfloer.expressions import parse_knot_expr
from knotfloer.involutive import realize_expr

from oracle_terms import gen, terms

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_report_human(capsys):
    code, out, _ = run_cli(["report", "--expr", "T(2,3)"], capsys)
    assert code == 0
    assert "tau = 1" in out
    assert "0:1 1:0" in out


def test_human_ladders_print_in_numeric_order(capsys):
    # Past index 9, string order would print 10 before 2.
    code, out, _ = run_cli(["report", "--expr", "T(2,21)"], capsys)
    assert code == 0
    ladder = "0:5 1:5 2:4 3:4 4:3 5:3 6:2 7:2 8:1 9:1 10:0"
    assert out.splitlines()[2:4] == [f"V: {ladder}", f"Y: {ladder}"]


def test_report_json_deterministic(capsys):
    args = ["report", "--expr", "T(2,3)#-T(2,3)", "--format", "json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["invariants"]["tau"] == 0
    assert payload["invariants"]["V"]["0"] == 0
    assert payload["bounds"]["genus"]["max"] == 0
    assert payload["bounds"]["clasp"]["max"] == 0


def test_expr_value_may_start_with_dash(capsys):
    joined = run_cli(["report", "--expr=-T(2,3)", "--format", "json"], capsys)
    split = run_cli(["report", "--expr", "-T(2,3)", "--format", "json"], capsys)
    assert joined[0] == split[0] == 0
    assert joined[1] == split[1]
    assert json.loads(split[1])["invariants"]["tau"] == -1


@pytest.mark.parametrize(
    "argv,joined",
    [
        (["report", "--expr", "-T(2,3)"], ["report", "--expr=-T(2,3)"]),
        (["report", "--expr", "--expr", "-T(2,3)"], ["report", "--expr", "--expr=-T(2,3)"]),
        (["report", "--expr", "-"], ["report", "--expr=-"]),
        (["report", "--expr"], ["report", "--expr"]),
        (["report", "--expr=-T(2,3)"], ["report", "--expr=-T(2,3)"]),
    ],
    ids=["dash value", "repeated flag", "lone dash", "trailing flag", "joined already"],
)
def test_expr_values_are_joined_onto_their_flag(argv, joined):
    assert _attach_expr_values(argv) == joined


def test_report_csv(capsys):
    code, out, _ = run_cli(["report", "--expr", "T(2,3)", "--format", "csv"], capsys)
    assert code == 0
    assert "invariants.tau,1" in out.splitlines()


def test_report_file_input(tmp_path, capsys):
    target = tmp_path / "hw.cfk"
    shutil.copy(os.path.join(DATA, "hw.cfk"), target)
    code, out, _ = run_cli(
        ["report", "--expr", f"@{target}", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    inv = payload["invariants"]
    assert (inv["tau"], inv["nu"], inv["omega"], inv["V"]["0"]) == (2, 2, 3, 2)
    assert payload["upsilon"] is None and payload["signature"] is None


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(["report", "--expr", "T(2,2)"], capsys)
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize("expr", ["T(\u00b2,3)", "T(\u0662,3)"])
def test_non_ascii_digit_is_syntax_error(expr, capsys):
    for command in ("report", "plotdata"):
        code, out, err = run_cli([command, "--expr", expr], capsys)
        assert (code, out) == (2, ""), command
        assert "expected an integer" in err, command


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text(
        json.dumps(
            {
                "generators": [{"id": "a", "grw": 1, "grz": 0}],
                "differential": [],
            }
        )
    )
    code, _, err = run_cli(["report", "--expr", f"@{bad}"], capsys)
    assert code == 3
    assert "invalid input" in err


def test_involutive_on_requires_iota(tmp_path, capsys):
    target = tmp_path / "hw.cfk"
    shutil.copy(os.path.join(DATA, "hw.cfk"), target)
    code, _, err = run_cli(
        ["report", "--expr", f"@{target}", "--involutive", "on"], capsys
    )
    assert code == 3


def test_plotdata_family_knot(capsys):
    code, out, _ = run_cli(["plotdata", "--expr", "T(2,11)#-T(4,5)"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "1\t-1" in lines
    # first table segment has slope 1: row at the first breakpoint 0.5
    assert "0.5\t0.5" in lines
    # ratio table starts at the initial slope
    ratio_start = lines.index("# t\tupsilon_over_t") + 1
    assert lines[ratio_start] == "0\t1"


def test_plotdata_rejects_non_torus(capsys):
    code, _, err = run_cli(["plotdata", "--expr", "HW"], capsys)
    assert code == 5


def test_plotdata_locally_trivial_sum_is_zero(capsys):
    code, out, _ = run_cli(["plotdata", "--expr", "T(2,3)#-T(2,3)"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    half = len(lines) // 2
    assert lines[:half] == ["0\t0", "1\t0"]


def test_certificates_block(capsys):
    # The certified cycle really is the level-0 tower representative, of the
    # knot and of its mirror: each monomial lies at bigrading (top, top),
    # top = -2 V_0, so at Alexander level 0, and together they form a cycle of C.
    for expr in ("T(2,3)", "T(2,11)#-T(4,5)", f"@{DATA}/hw.cfk"):
        code, out, _ = run_cli(["report", "--expr", expr, "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        c = realize_expr(parse_knot_expr(expr))
        for key, side, complex_ in (
            ("v0_tower_cycle", "invariants", c),
            ("v0_tower_cycle_mirror", "mirror_invariants", c.dual()),
        ):
            cert = report["certificates"][key]
            assert isinstance(cert, list) and cert
            assert all(set(term) == {"gen", "u", "v"} for term in cert)
            top = -2 * report[side]["V"]["0"]
            for term in cert:
                g = gen(complex_, term["gen"])
                assert (g.grw - 2 * term["u"], g.grz - 2 * term["v"]) == (top, top), (expr, key, term)
                assert g.alexander - term["u"] + term["v"] == 0
            entries = {}
            for src, tgt, u, v in terms(complex_):
                entries.setdefault(src, []).append((tgt, u, v))
            boundary = Counter(
                (tgt, term["u"] + u, term["v"] + v) for term in cert for tgt, u, v in entries.get(term["gen"], ())
            )
            assert all(count % 2 == 0 for count in boundary.values()), (expr, key)


def test_cap_overflow_is_internal_error(monkeypatch, capsys):
    # Only the default cap vouches that the search must stop by then.
    from knotfloer import invariants

    monkeypatch.setattr(invariants, "_default_cap", lambda c: 0)
    code, _, err = run_cli(["report", "--expr", "T(2,3)"], capsys)
    assert code == 4
    assert "internal consistency" in err


def _tables_with_tau(tau):
    """A replacement of `cli.compute_invariant_table` whose tables all read this tau."""
    return lambda real: lambda c, *args: dataclasses.replace(real(c, *args), tau=tau)


CONSISTENCY_FAULTS = [
    # (id, module, name, replacement given the real value, stderr line after
    # "internal consistency failure: "), each on the report of T(2,3).
    ("odd tower grading", "invariants", "_level", lambda real: lambda c, n: (1, None),
     "tower grading 1 at level 0 of C tensor St*_0 is odd"),
    ("nu below tau", "invariants", "_end", lambda real: lambda *args: 1,
     "level 0 hits the V = 1 class below tau = 1"),
    ("nu above tau + 1", "invariants", "_end", lambda real: lambda *args: 0,
     "nu outside {tau, tau+1}, tau=1"),
    ("table violation", "invariants", "omega_hat", lambda real: lambda c: 5, "omega=5 outside {tau, tau+1}, tau=1"),
    ("pair outside V_0", "involutive", "v_invariant", lambda real: lambda c, s: 7,
     "involutive pair (1, 1) does not bracket V_0 = 7"),
    ("tau mirror asymmetry", "cli", "compute_invariant_table", _tables_with_tau(1), "tau mirror asymmetry: 1 vs 1"),
    ("initial slope", "cli", "compute_invariant_table", _tables_with_tau(0), "initial slope -1 != -tau = 0"),
    ("two cross-check faults", "cli", "compute_invariant_table", _tables_with_tau(2),
     "tau mirror asymmetry: 2 vs 2; initial slope -1 != -tau = -2"),
    ("asymmetric concordance function", "cli", "upsilon_of_expr",
     lambda real: lambda expr: PLFunction(tuple(map(Fraction, (0, 1, 2))), tuple(map(Fraction, (0, -1, -1)))),
     "concordance function asymmetric at t = 0"),
    # f(0) = f(2), but the kink at 1/2 has no mirror kink at 3/2.
    ("asymmetric kink", "cli", "upsilon_of_expr",
     lambda real: lambda expr: PLFunction(tuple(map(Fraction, ("0", "1/2", "2"))), tuple(map(Fraction, ("0", "-1/2", "0")))),
     "concordance function asymmetric at t = 1/2"),
]


@pytest.mark.parametrize("module,name,replace,line", [c[1:] for c in CONSISTENCY_FAULTS],
                         ids=[c[0] for c in CONSISTENCY_FAULTS])
def test_consistency_failure_exits_4_with_one_line(monkeypatch, capsys, module, name, replace, line):
    target = importlib.import_module(f"knotfloer.{module}")
    monkeypatch.setattr(target, name, replace(getattr(target, name)))
    assert run_cli(["report", "--expr", "T(2,3)"], capsys) == (4, "", f"internal consistency failure: {line}\n")


def test_certificates_stop_at_the_limit(capsys):
    # 3^7 = 2,187 generators are past CYCLE_CERTIFICATE_LIMIT, 5^4 * 3 = 1,875 are not.
    for expr, null in (("#".join(["T(2,3)"] * 7), True), ("T(2,5)#T(2,5)#T(2,5)#T(2,5)#T(2,3)", False)):
        code, out, _ = run_cli(["report", "--expr", expr, "--format", "json"], capsys)
        assert code == 0, expr
        assert [cycle is None for cycle in json.loads(out)["certificates"].values()] == [null, null], expr


def test_out_of_memory_exits_1_without_traceback(monkeypatch, capsys):
    from knotfloer import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "compute_invariant_table", exhausted)
    code, out, err = run_cli(["report", "--expr", "T(2,3)"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "out of memory: report needs more memory than this process may use"
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option,value", [("--cap", "1"), ("--format", "json-like"), ("--v", "0..3"), ("--y", "0..3")]
)
def test_removed_report_option_is_usage_error(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--expr", "T(2,3)", option, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert option in err


def test_file_iota_drives_involutive_report(tmp_path, capsys):
    from knotfloer.expressions import parse_knot_expr
    from knotfloer.fileio import save_complex
    from knotfloer.involutive import realize_with_iota

    granny, iota = realize_with_iota(parse_knot_expr("T(2,3)#T(2,3)"))
    path = tmp_path / "granny.cfk"
    save_complex(granny, str(path), name="granny", iota=iota)
    code, out, _ = run_cli(
        ["report", "--expr", f"@{path}", "--involutive", "on", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["involutive"] == {"v0_bar": 1, "v0_under": 2}


def test_involution_with_acyclic_cone_is_rejected(tmp_path, capsys):
    # The zero map is a verified skew chain map, but then 1 + iota is the
    # identity and the cone has no tower at all.
    from knotfloer.builders import torus_knot_complex
    from knotfloer.complexes import SkewMap
    from knotfloer.fileio import save_complex

    c = torus_knot_complex(2, 5)
    path = tmp_path / "zero_iota.cfk"
    save_complex(c, str(path), iota=SkewMap(c, [0] * len(c)))
    code, out, _ = run_cli(["validate", "--expr", f"@{path}"], capsys)
    assert code == 0
    assert "involution verified" in out
    code, out, err = run_cli(["report", "--expr", f"@{path}"], capsys)
    assert code == 3
    assert out == ""
    assert "cone localization has rank 0" in err
    code, _, _ = run_cli(["report", "--expr", f"@{path}", "--involutive", "off"], capsys)
    assert code == 0


def test_zero_iota_is_named_by_report(tmp_path, capsys):
    # One generator with iota = 0: a valid skew chain map that is no
    # involution. report names iota and the file; --involutive off skips it.
    path = tmp_path / "zero_iota.cfk"
    path.write_text(json.dumps({"format": 2, "id": ["x"], "grw": [0], "grz": [0],
                                "differential": [[]], "iota": [[]]}))
    code, out, err = run_cli(["report", "--expr", f"@{path}"], capsys)
    assert code == 3
    assert out == ""
    assert f"@{path}: iota fails the involutive cone" in err
    assert "--involutive off" in err
    code, out, _ = run_cli(["report", "--expr", f"@{path}", "--involutive", "off"], capsys)
    assert code == 0
    assert "tau = 0" in out


def test_knot_fault_is_named_before_the_mirror_fault(monkeypatch, tmp_path, capsys):
    # The knot's pair is read before the mirror's table is built: with a
    # zero iota on the knot and a failing mirror table, the report names iota.
    from knotfloer import cli
    from knotfloer.errors import ConsistencyError

    real, calls = cli.compute_invariant_table, []

    def mirror_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ConsistencyError("mirror table fails")
        return real(*args)

    monkeypatch.setattr(cli, "compute_invariant_table", mirror_fails)
    path = tmp_path / "zero_iota.cfk"
    path.write_text(json.dumps({"format": 2, "id": ["x"], "grw": [0], "grz": [0],
                                "differential": [[]], "iota": [[]]}))
    code, out, err = run_cli(["report", "--expr", f"@{path}"], capsys)
    assert (code, out, len(calls)) == (3, "", 1)
    assert "iota fails the involutive cone" in err


def test_knot_is_released_before_its_mirror_is_built(monkeypatch, capsys):
    # The report ends its pass on the knot, memos and all, before it builds
    # the mirror; a read after `release` rebuilds what it needs.
    from knotfloer.complexes import BigradedComplex
    from knotfloer.expressions import parse_knot_expr
    from knotfloer.invariants import compute_invariant_table, release
    from knotfloer.involutive import realize_with_iota, v0_bar_under

    expr, keys = "T(2,3)#T(2,5)", ("_quotients", "_splits", "_glue", "_levels")
    real, held = BigradedComplex.dual, []

    def recording(self):
        held.append([key for key in keys if key in self.__dict__])
        return real(self)

    monkeypatch.setattr(BigradedComplex, "dual", recording)
    code, _out, err = run_cli(["report", "--expr", expr, "--involutive", "on", "--format", "json"], capsys)
    assert (code, held) == (0, [[]]), err
    c, iota = realize_with_iota(parse_knot_expr(expr))
    before = compute_invariant_table(c), v0_bar_under(iota)
    release(c)
    assert [key for key in keys if key in c.__dict__] == []
    assert (compute_invariant_table(c), v0_bar_under(iota)) == before


def test_unknown_named_complex_is_invalid_input(capsys):
    from knotfloer.builders import named_complex

    message = "unknown named complex 'Foo'; available: ['HW']"
    with pytest.raises(ValidationError) as exc:
        named_complex("Foo")
    assert str(exc.value) == message
    code, out, err = run_cli(["report", "--expr", "Foo#T(2,3)"], capsys)
    assert (code, out, err) == (3, "", f"invalid input: {message}\n")


def test_validate_ok(tmp_path, capsys):
    target = tmp_path / "hw.cfk"
    shutil.copy(os.path.join(DATA, "hw.cfk"), target)
    code, out, _ = run_cli(["validate", "--expr", f"@{target}"], capsys)
    assert code == 0
    assert "ok" in out


def test_validate_rejects_bad_gradings(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text(
        json.dumps(
            {
                "generators": [{"id": "a", "grw": 1, "grz": 0}],
                "differential": [],
            }
        )
    )
    code, _, err = run_cli(["validate", "--expr", f"@{bad}"], capsys)
    assert code == 3


def test_validate_rejects_non_knotlike(tmp_path, capsys):
    # Well formed, but two towers: localized homology has rank 2.
    two = tmp_path / "two.cfk"
    two.write_text(
        json.dumps(
            {
                "generators": [
                    {"id": "a", "grw": 0, "grz": 0},
                    {"id": "b", "grw": 0, "grz": 0},
                ],
                "differential": [],
            }
        )
    )
    code, out, err = run_cli(["validate", "--expr", f"@{two}"], capsys)
    assert code == 3
    assert out == ""
    assert "knot-like" in err


@pytest.mark.parametrize(
    "dw, dz, named",
    [
        (0, 0, "U = 0 tower generator 'g0' has grw = 2"),
        (-2, 2, "V = 0 tower generator 'g2' has grz = 4"),
        (-4, -2, "U = 0 tower generator 'g0' has grw = -2"),
    ],
)
def test_shifted_towers_are_bad_input(tmp_path, capsys, dw, dz, named):
    # Knot-like, but the towers of T(2,3) sit off grw = 0 or grz = 0:
    # nu and omega of such a complex are those of no knot. The fixture
    # is T(2,3) shifted by (+2, +2); (dw, dz) moves it on.
    path = os.path.join(DATA, "shifted_t23.cfk")
    if (dw, dz) != (0, 0):
        with open(path) as fh:
            data = json.load(fh)
        for gen in data["generators"]:
            gen["grw"] += dw
            gen["grz"] += dz
        path = tmp_path / "t23.cfk"
        path.write_text(json.dumps(data))
    for command in ("validate", "report"):
        code, out, err = run_cli([command, "--expr", f"@{path}"], capsys)
        assert (code, out) == (3, ""), command
        assert named in err, command


def test_file_report_validates_the_complex_once(monkeypatch, capsys):
    # load_complex validates what it reads; the report does not check it again.
    from knotfloer.complexes import BigradedComplex

    checked = []
    real = BigradedComplex.validate

    def counting(self):
        checked.append(self)
        return real(self)

    monkeypatch.setattr(BigradedComplex, "validate", counting)
    code, _out, err = run_cli(["report", "--expr", f"@{DATA}/scrambled_k1.cfk", "--format", "json"], capsys)
    assert code == 0, err
    assert len(checked) == 1


def test_asymmetric_complex_is_bad_input(capsys):
    # Knot-like, towers at grw = 0 and grz = 0, but its graded Euler
    # characteristic t^4 - t + t^-2 - t^-5 + t^-6 is not symmetric: it is
    # no knot's complex, and its omega is neither tau nor tau + 1.
    path = os.path.join(DATA, "asymmetric_zigzag.cfk")
    for command in ("validate", "report"):
        code, out, err = run_cli([command, "--expr", f"@{path}"], capsys)
        assert (code, out) == (3, ""), command
        assert "coefficient 1 at Alexander grading 4, 0 at -4" in err, command


def test_undecodable_file_is_bad_input(capsys):
    path = os.path.join(DATA, "not_utf8.cfk")
    for command in ("validate", "report"):
        code, out, err = run_cli([command, "--expr", f"@{path}"], capsys)
        assert (code, out) == (3, ""), command
        assert "is not UTF-8 text" in err, command


def test_failed_mirror_involution_is_reported(monkeypatch, capsys):
    import knotfloer.cli as cli

    def broken(iota, mirror):
        raise ValidationError("transpose is not a skew map")

    monkeypatch.setattr(cli, "mirror_iota", broken)
    code, out, err = run_cli(["report", "--expr", "T(2,3)#T(2,5)", "--format", "json"], capsys)
    assert (code, out) == (3, "")
    assert "transpose is not a skew map" in err


def _count_chain_checks(monkeypatch):
    """Wrap chain_violation in every knotfloer module that imported it; returns the list of maps checked.

    verify_chain_map calls it through the module of `complexes`, once per
    map (`ChainMap.violation`), so its checks are counted too.
    """
    import knotfloer.complexes

    real, checked = knotfloer.complexes.chain_violation, []

    def counting(f):
        checked.append(f)
        return real(f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "knotfloer" and getattr(module, "chain_violation", None) is real:
            monkeypatch.setattr(module, "chain_violation", counting)
    return checked


def test_each_involution_is_checked_where_it_is_read(monkeypatch, tmp_path, capsys):
    # A report checks iota and its mirror once each, in the cone. Building,
    # saving and a report without the pair check nothing; a file's iota is
    # checked as it is loaded, and the cone reuses that check, so a report
    # on J's file, in either format, checks it there and its mirror in the
    # cone.
    from knotfloer.expressions import parse_knot_expr
    from knotfloer.fileio import save_complex
    from knotfloer.involutive import realize_expr, realize_with_iota
    from oracle_io import save_complex_json

    expr = "T(2,11)#T(4,7)#-T(5,6)"
    checked = _count_chain_checks(monkeypatch)
    for args, count in [([], 2), (["--involutive", "off"], 0)]:
        del checked[:]
        code, _out, err = run_cli(["report", "--expr", expr, "--format", "json"] + args, capsys)
        assert (code, len(checked)) == (0, count), (args, err)
    del checked[:]
    c, iota = realize_with_iota(parse_knot_expr(expr))
    realize_expr(parse_knot_expr(expr))
    path, copy = tmp_path / "j.cfk", tmp_path / "j_v1.cfk"
    save_complex(c, str(path), expr, iota)
    save_complex_json(c, str(copy), expr, iota)
    assert checked == []
    for source in (path, copy):
        del checked[:]
        code, out, _ = run_cli(["validate", "--expr", f"@{source}"], capsys)
        assert out == "ok: 1089 generators, involution verified\n"
        assert (code, len(checked)) == (0, 1), source
        del checked[:]
        code, _out, err = run_cli(["report", "--expr", f"@{source}", "--format", "json"], capsys)
        assert (code, len(checked)) == (0, 2), (source, err)


def test_d_squared_after_an_inhomogeneous_entry_names_no_false_monomial(tmp_path, capsys):
    # J's file with one inhomogeneous target added to a column of d: the d^2
    # terms it causes are named, but a monomial only where its exponents are
    # natural numbers, never one with a negative or rounded exponent. The
    # added entry has an odd grz gap, so no term it causes has a monomial.
    from knotfloer.expressions import parse_knot_expr
    from knotfloer.fileio import save_complex
    from knotfloer.involutive import realize_with_iota

    expr = "T(2,11)#T(4,7)#-T(5,6)"
    c, iota = realize_with_iota(parse_knot_expr(expr))
    path = tmp_path / "j.cfk"
    save_complex(c, str(path), expr, iota)
    data = json.loads(path.read_text())
    data["differential"][275].append(129)
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["validate", "--expr", f"@{path}"], capsys)
    assert (code, out) == (3, "")
    assert "inhomogeneous term g1|g3|g3* in d(g2|g8|g5*)" in err
    assert "d^2(g1|g8|g5*) has term g1|g3|g3*;" in err
    assert "d^2(g2|g8|g5*) has term g1|g4|g3*;" in err
    assert "^-" not in err and "U^" not in err


def _flip_first_sum(monkeypatch):
    """Flip one entry of the first sum involution each realization builds, so that it fails verification."""
    import knotfloer.involutive as involutive
    from knotfloer.complexes import SkewMap, verify_chain_map

    real, built = involutive.connected_sum_iota, []

    def flipped(*args):
        f = real(*args)
        built.append(f)
        if len(built) > 1:
            return f
        for i, j in itertools.product(range(len(f.cols)), repeat=2):
            cols = list(f.cols)
            cols[i] ^= 1 << j
            bad = SkewMap(f.source, cols)
            if verify_chain_map(bad) is not None:
                return bad
        raise AssertionError("every one-entry flip is a valid skew chain map")

    monkeypatch.setattr(involutive, "connected_sum_iota", flipped)


def test_flipped_sum_involution_fails_only_where_it_is_read(monkeypatch, capsys):
    # Nothing checks the intermediate sum involution as it is built: the
    # pair's cone rejects the involution, and a report without the pair
    # prints the tables of the unflipped input.
    args = ["report", "--expr", "T(2,3)#T(2,5)#-T(3,4)", "--format", "json"]
    code, tables, _ = run_cli(args + ["--involutive", "off"], capsys)
    assert code == 0
    _flip_first_sum(monkeypatch)
    code, out, err = run_cli(args + ["--involutive", "on"], capsys)
    assert (code, out) == (3, "")
    assert "involution fails verification" in err
    _flip_first_sum(monkeypatch)
    assert run_cli(args + ["--involutive", "off"], capsys) == (0, tables, "")


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "knotfloer.cli", "report", "--expr", "T(2,3)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tau = 1" in proc.stdout


def test_sum_of_files_with_colliding_labels(tmp_path, capsys):
    # "a" x "b|c" and "a|b" x "c" are both labelled "a|b|c": a certificate
    # term could not name its generator, so the sum is refused.
    def write(name, ids, arrow):
        gens = [{"id": ids[0], "grw": 0, "grz": 0}, {"id": ids[1], "grw": 1, "grz": 1},
                {"id": ids[2], "grw": 0, "grz": 0}]
        path = tmp_path / name
        path.write_text(json.dumps({
            "generators": gens,
            "differential": [{"from": arrow[0], "to": arrow[1], "u": 0, "v": 0}],
        }))
        return path

    a = write("a.cfk", ["a", "a|b", "z"], ("a|b", "z"))
    b = write("b.cfk", ["c", "b|c", "w"], ("b|c", "w"))
    for path in (a, b):
        assert run_cli(["report", "--expr", f"@{path}", "--format", "json"], capsys)[0] == 0
    assert run_cli(["report", "--expr", f"@{a}#@{b}", "--format", "json"], capsys) == (
        3, "", "invalid input: generator label 'a|b|c' is repeated in the sum\n")


INPUT_FAULTS = [
    # (id, argv, text of {file} or None, exit code, stderr line); {tmp} is a
    # fresh directory, {file} the file bad.cfk in it, {data} tests/data.
    ("validate of an expression", ["validate", "--expr", "T(2,3)"], None, 2,
     "validate expects a file input: --expr '@path/to/file'"),
    ("missing file", ["validate", "--expr", "@{tmp}/missing.cfk"], None, 3,
     "invalid input: {tmp}/missing.cfk: cannot read: No such file or directory"),
    ("directory", ["report", "--expr", "@{tmp}"], None, 3, "invalid input: {tmp}: cannot read: Is a directory"),
    ("top-level array", ["validate", "--expr", "@{file}"], "[1, 2]", 3,
     "invalid input: {file}: top level must be an object"),
    ("top-level array in a sum", ["report", "--expr", "@{data}/hw.cfk#@{file}"], "[1, 2]", 3,
     "invalid input: {file}: top level must be an object"),
    ("format-1 differential object", ["validate", "--expr", "@{file}"],
     '{"generators": [{"id": "a", "grw": 0, "grz": 0}], "differential": {}}', 3,
     "invalid input: {file}: 'differential' must be a list"),
    ("torus parameter 1", ["report", "--expr", "T(1,2)"], None, 2,
     "syntax error: torus parameters must be >= 2, got (1,2) (at position 5)"),
    ("bare @", ["report", "--expr", "@"], None, 2, "syntax error: expected a file path after '@' (at position 1)"),
    ("missing comma", ["report", "--expr", "T(2 3)"], None, 2, "syntax error: expected ',' (at position 4)"),
    ("unclosed parenthesis", ["report", "--expr", "T(2,3"], None, 2, "syntax error: expected ')' (at position 5)"),
    # Rejected at parse time, before the exponent table is allocated.
    ("torus parameter past 2^63", ["report", "--expr", "T(99999999999999999999,2)"], None, 2,
     "syntax error: torus parameters (99999999999999999999,2) are too large: (p-1)(q-1) must be at most 30000"
     " (at position 24)"),
    ("torus degree past the ceiling", ["plotdata", "--expr", "-T(2,30003)#T(2,3)"], None, 2,
     "syntax error: torus parameters (2,30003) are too large: (p-1)(q-1) must be at most 30000 (at position 10)"),
    ("path with a null byte", ["validate", "--expr", "@{tmp}/nope\x00.cfk"], None, 3,
     "invalid input: '{tmp}/nope\\x00.cfk': cannot read: embedded null byte"),
]


@pytest.mark.parametrize("argv,text,code,line", [c[1:] for c in INPUT_FAULTS], ids=[c[0] for c in INPUT_FAULTS])
def test_input_fault_exits_with_one_line(tmp_path, capsys, argv, text, code, line):
    names = {"tmp": tmp_path, "file": tmp_path / "bad.cfk", "data": DATA}
    if text is not None:
        names["file"].write_text(text)
    argv = [arg.format(**names) for arg in argv]
    assert run_cli(argv, capsys) == (code, "", line.format(**names) + "\n")
