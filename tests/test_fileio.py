import functools
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knotfloer.builders import named_complex, staircase
from knotfloer.cli import main
from knotfloer.complexes import BigradedComplex, Generator, SkewMap, reduce_complex, verify_chain_map
from knotfloer.errors import FileFormatError, ValidationError
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.involutive import realize_with_iota, staircase_iota
from conftest import UNKNOT, random_torus_sum
from fu_views import fu_cols
from oracle_io import load_columns_checked, load_complex_checked, save_complex_columns, save_complex_json
from oracle_terms import from_terms, terms
from test_digests import SAVED

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_load_model_file():
    c, iota = load_complex(os.path.join(DATA, "hw.cfk"))
    assert iota is None
    hw = named_complex("HW")
    assert [(g.name, g.grw, g.grz) for g in c.gens] == [
        (g.name, g.grw, g.grz) for g in hw.gens
    ]
    assert c.cols == hw.cols
    assert terms(c) == [("b", "a", 2, 0), ("b", "c", 0, 2)]


def test_differential_is_cached_with_final_columns():
    hw = named_complex("HW")
    loaded, _ = load_complex(os.path.join(DATA, "hw.cfk"))
    for c in (from_terms(hw.gens, terms(hw)), loaded):
        assert c.targets is c.targets
        assert c.d.cols == c.cols == hw.cols


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "s2.cfk"
    save_complex(staircase(2), str(path), name="s2")
    c, _ = load_complex(str(path))
    first = path.read_text()
    save_complex(c, str(path), name="s2")
    assert path.read_text() == first


def test_iota_round_trip(tmp_path):
    s1 = staircase(1)
    iota = staircase_iota(s1)
    path = tmp_path / "s1.cfk"
    save_complex(s1, str(path), name="s1", iota=iota)
    c, loaded = load_complex(str(path))
    assert loaded is not None
    assert loaded.cols == iota.cols
    assert terms(loaded) == terms(iota)


def test_bad_differential_rejected(tmp_path):
    data = {
        "name": "bad",
        "generators": [
            {"id": "a", "grw": 2, "grz": 2},
            {"id": "b", "grw": 1, "grz": 1},
            {"id": "c", "grw": 0, "grz": 0},
        ],
        "differential": [
            {"from": "a", "to": "b", "u": 0, "v": 0},
            {"from": "b", "to": "c", "u": 0, "v": 0},
        ],
    }
    path = tmp_path / "bad.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    message = str(err.value)
    assert "d^2" in message and "a" in message and "b" in message


def test_duplicate_quadruple_rejected(tmp_path):
    data = {
        "name": "dup",
        "generators": [
            {"id": "a", "grw": 0, "grz": -2},
            {"id": "b", "grw": -1, "grz": -1},
        ],
        "differential": [
            {"from": "b", "to": "a", "u": 0, "v": 0},
            {"from": "b", "to": "a", "u": 0, "v": 0},
        ],
    }
    path = tmp_path / "dup.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("where", ["differential", "iota"])
@pytest.mark.parametrize("key", ["u", "v"])
def test_homogeneous_negative_exponent_is_named(tmp_path, where, key):
    # Gradings of b that imply the exponent -1 for `key` and 1 for the
    # other one on the entry a -> b.
    exps = {"u": -1, "v": 1} if key == "u" else {"u": 1, "v": -1}
    shift = 1 if where == "differential" else 0
    data = {
        "generators": [
            {"id": "a", "grw": 0, "grz": 0},
            {"id": "b", "grw": 2 * exps["u"] - shift, "grz": 2 * exps["v"] - shift},
        ],
        "differential": [],
        where: [{"from": "a", "to": "b", **exps}],
    }
    path = tmp_path / "negative.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    assert str(err.value) == f"{path}: {where} entry #0: field {key!r} must be nonnegative, got -1"


def test_bad_iota_rejected_with_witness(tmp_path):
    data = {
        "name": "badio",
        "generators": [
            {"id": "y-1", "grw": 0, "grz": -2},
            {"id": "y0", "grw": -1, "grz": -1},
            {"id": "y1", "grw": -2, "grz": 0},
        ],
        "differential": [
            {"from": "y0", "to": "y-1", "u": 1, "v": 0},
            {"from": "y0", "to": "y1", "u": 0, "v": 1},
        ],
        "iota": [
            {"from": "y-1", "to": "y-1", "u": 0, "v": 0},
            {"from": "y0", "to": "y0", "u": 0, "v": 0},
            {"from": "y1", "to": "y1", "u": 0, "v": 0},
        ],
    }
    path = tmp_path / "badio.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    assert "iota" in str(err.value) and "y-1" in str(err.value)


def test_undecodable_and_deep_files_are_format_errors(tmp_path):
    with pytest.raises(FileFormatError) as err:
        load_complex(os.path.join(DATA, "not_utf8.cfk"))
    assert "not_utf8.cfk is not UTF-8 text" in str(err.value)
    deep = tmp_path / "deep.cfk"
    deep.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(FileFormatError) as err:
        load_complex(str(deep))
    assert f"{deep} nests arrays or objects too deeply" in str(err.value)


def test_missing_fields_and_unknown_ids(tmp_path):
    path = tmp_path / "x.cfk"
    path.write_text(json.dumps({"generators": [{"id": "a", "grw": 0}]}))
    with pytest.raises(FileFormatError):
        load_complex(str(path))
    path.write_text(
        json.dumps(
            {
                "generators": [{"id": "a", "grw": 0, "grz": 0}],
                "differential": [{"from": "a", "to": "z", "u": 0, "v": 0}],
            }
        )
    )
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    assert "unknown generator" in str(err.value)


STRICT_CASES = [
    # (where, field, bad value): each must be rejected with entry and field named
    ("generators", "id", 5),
    ("generators", "grw", 0.7),
    ("generators", "grz", "0"),
    ("generators", "grw", True),
    ("differential", "u", False),
    ("differential", "v", 1.0),
    ("differential", "u", "1"),
    ("differential", "v", -1),
]


def _one_arrow_file():
    return {
        "name": "s1",
        "generators": [
            {"id": "y-1", "grw": 0, "grz": -2},
            {"id": "y0", "grw": -1, "grz": -1},
            {"id": "y1", "grw": -2, "grz": 0},
        ],
        "differential": [
            {"from": "y0", "to": "y-1", "u": 1, "v": 0},
            {"from": "y0", "to": "y1", "u": 0, "v": 1},
        ],
    }


@pytest.mark.parametrize("where,field,value", STRICT_CASES)
def test_fields_must_be_exact_types(tmp_path, capsys, where, field, value):
    data = _one_arrow_file()
    data[where][1][field] = value
    path = tmp_path / "bad.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    entry = "generator entry #1" if where == "generators" else "differential entry #1"
    assert entry in str(err.value) and repr(field) in str(err.value)
    assert main(["validate", "--expr", f"@{path}"]) == 3
    out, err_text = capsys.readouterr()
    assert out == "" and entry in err_text


@pytest.mark.parametrize("generators", [[], "x"], ids=["empty", "string"])
def test_format_1_generators_must_be_a_nonempty_list(tmp_path, capsys, generators):
    data = _one_arrow_file()
    data["generators"] = generators
    path = tmp_path / "bad.cfk"
    path.write_text(json.dumps(data))
    message = f"{path}: 'generators' must be a nonempty list"
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    assert str(err.value) == message
    assert main(["validate", f"--expr=@{path}"]) == 3
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")


def _colliding_sum():
    """A valid tensor product in which the label 'a|b|c' occurs twice."""
    left = from_terms(
        [Generator("a", 0, 0), Generator("a|b", 1, 1), Generator("z", 0, 0)],
        [("a|b", "z", 0, 0)],
    )
    right = from_terms(
        [Generator("c", 0, 0), Generator("b|c", 1, 1), Generator("w", 0, 0)],
        [("b|c", "w", 0, 0)],
    )
    return left.tensor(right)


def test_save_rejects_repeated_labels(tmp_path):
    path = tmp_path / "sum.cfk"
    with pytest.raises(ValidationError) as err:
        save_complex(_colliding_sum(), str(path))
    assert "'a|b|c'" in str(err.value)
    assert not path.exists()


# --- the writer against the format-2 oracle --------------------------------

# Settings for the property tests: fixed seeds, no example database, and
# one temporary directory reused by every example.
PROPERTY = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _load_homogeneous(path):
    """load_complex(path), with what it accepts checked against the checks of a fresh complex.

    A fresh complex and a fresh skew map, built from the loaded columns,
    compute `illegal_terms` and the first violation of iota
    (`ChainMap.illegal_entries`), the U = 0 and V = 0 quotients, and the
    target lists by a walk of the columns. The loader's must equal them,
    for a file of either format: the reader keeps the target lists that
    the checks, the quotients and the writer read.
    """
    c, iota = load_complex(str(path))
    fresh = BigradedComplex(c.labels, c.grw, c.grz, c.cols)
    assert c.illegal_terms == fresh.illegal_terms == (), path
    for mode, drop in (("U0", c.grw), ("V0", c.grz)):
        quotient = reduce_complex(fresh, mode)
        assert quotient.degrees == drop, path
        loaded = reduce_complex(c, mode)
        assert (fu_cols(loaded), loaded.degrees) == (fu_cols(quotient), quotient.degrees), (path, mode)
    assert c.d.targets == fresh.d.targets, path
    if iota is not None:
        fresh_iota = SkewMap(fresh, iota.cols)
        assert verify_chain_map(fresh_iota) is None, path
        assert iota.targets == fresh_iota.targets, path
    return c, iota


def _contents(c, iota):
    return c.labels, c.grw, c.grz, c.cols, iota and iota.cols


def _assert_matches_oracle(tmp_path, c, name="", iota=None):
    """save_complex writes the format-2 oracle's bytes, and save(load(f)) keeps them.

    The format-1 file of the same complex loads to the same complex and
    iota, and saving what it loads gives the format-2 bytes too.
    """
    new, ref, old = tmp_path / "new.cfk", tmp_path / "ref.cfk", tmp_path / "old.cfk"
    save_complex(c, str(new), name, iota)
    save_complex_columns(c, str(ref), name, iota)
    first = new.read_bytes()
    assert first == ref.read_bytes()
    save_complex_json(c, str(old), name, iota)
    from_v1, from_v2 = _load_homogeneous(old), _load_homogeneous(new)
    assert _contents(*from_v2) == _contents(*from_v1) == _contents(c, iota)
    for loaded, loaded_iota in (from_v2, from_v1):
        save_complex(loaded, str(new), name, loaded_iota)
        assert new.read_bytes() == first


def _sum(expr):
    c, iota = realize_with_iota(parse_knot_expr(expr))
    return c, expr, iota


def _hw_round_trip():
    c, iota = load_complex(os.path.join(DATA, "hw.cfk"))
    return c, "hw", iota


def _odd_labels():
    s2 = staircase(2)
    s2 = s2.relabel(dict(zip(s2.labels, ['q"', "b\\s", "é", "x\ny", "a|b"])))
    return s2, 'ünï"x', staircase_iota(s2)


ORACLE_CASES = {
    **{expr: functools.partial(_sum, expr) for expr in SAVED},
    "hw round trip": _hw_round_trip,
    "unknot": lambda: (UNKNOT, "", None),
    "odd labels": _odd_labels,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_writer_matches_json_dump(tmp_path, case):
    _assert_matches_oracle(tmp_path, *ORACLE_CASES[case]())


SMALL_KNOTS = ["T(2,3)", "T(2,5)", "T(2,7)", "T(3,4)", "T(3,5)"]


@settings(max_examples=25, **PROPERTY)
@given(
    parts=st.lists(st.tuples(st.booleans(), st.sampled_from(SMALL_KNOTS)), min_size=1, max_size=3),
    with_iota=st.booleans(),
)
def test_writer_matches_json_dump_on_random_sums(tmp_path, parts, with_iota):
    expr = "#".join(("-" if mirrored else "") + knot for mirrored, knot in parts)
    c, iota = realize_with_iota(parse_knot_expr(expr))
    _assert_matches_oracle(tmp_path, c, expr, iota if with_iota else None)


@pytest.mark.parametrize(
    "complex_,kwargs",
    [
        (_colliding_sum(), {}),
        (staircase(1), {"name": object()}),
        (staircase(1), {"name": 5}),
        (staircase(1), {"iota": staircase_iota(staircase(2))}),
    ],
    ids=["repeated label", "name object", "name int", "iota of another complex"],
)
def test_failed_save_keeps_existing_file(tmp_path, complex_, kwargs):
    path = tmp_path / "keep.cfk"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(ValidationError):
        save_complex(complex_, str(path), **kwargs)
    assert path.read_bytes() == b"old bytes\n"


# --- the format-1 front end's single pass against the checked oracle --------

# The program writes only format 2; the format-1 files of these tests come
# from the oracle's json.dump writer.


def test_single_pass_matches_checked_path(tmp_path):
    path = tmp_path / "sum.cfk"
    for seed in range(40):
        rng = random.Random(seed)
        expr = random_torus_sum(rng, 3, 250)
        c, iota = realize_with_iota(parse_knot_expr(expr))
        save_complex_json(c, str(path), expr, iota)
        loaded, loaded_iota = _load_homogeneous(path)
        checked, checked_iota = load_complex_checked(str(path))
        assert loaded.cols == checked.cols == c.cols, expr
        assert loaded_iota.cols == checked_iota.cols == iota.cols, expr


# --- loader errors late in a long file --------------------------------------

LONG_SUM = "T(2,5)#T(2,7)#-T(2,3)"  # 105 generators, 244 differential and 152 iota entries


@pytest.fixture(scope="module")
def long_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "long.cfk"
    c, iota = realize_with_iota(parse_knot_expr(LONG_SUM))
    save_complex_json(c, str(path), LONG_SUM, iota)
    return json.loads(path.read_text())


def _set(key, value):
    def edit(entries, k):
        entries[k][key] = value

    return edit


def _delete(key):
    def edit(entries, k):
        del entries[k][key]

    return edit


def _replace(value):
    def edit(entries, k):
        entries[k] = value

    return edit


def _duplicate(entries, k):
    entries[k] = dict(entries[k - 1])


def _bump(key, by):
    def edit(entries, k):
        entries[k][key] += by

    return edit


def _insert_copy(entries, k):
    entries.insert(k, dict(entries[k - 1]))


def _insert_bumped(entries, k):
    """A second entry for the pair of entry k - 1, with other exponents."""
    entry = dict(entries[k - 1])
    entry["u"] += 1
    entry["v"] += 1
    entries.insert(k, entry)


def _bumped_twice(entries, k):
    """Entry k - 1 made inhomogeneous, then given again as entry k."""
    _bump("v", 2)(entries, k - 1)
    _insert_copy(entries, k)


def _two_faults(entries, k):
    entries[k]["u"] = -1
    entries[k + 30] = "not an object"


LATE_FAULTS = [
    # (list, entry index, edit, message after "<kind> entry #<k>: ")
    ("differential", 200, _replace(["from"]), "expected an object"),
    ("differential", 200, _delete("u"), "missing field 'u'"),
    ("differential", 200, _set("u", 1.0), "field 'u' must be an integer, got 1.0"),
    ("differential", 200, _set("v", True), "field 'v' must be an integer, got True"),
    ("differential", 200, _set("from", 7), "field 'from' must be a string, got 7"),
    ("differential", 200, _set("u", -1), "field 'u' must be nonnegative, got -1"),
    ("differential", 200, _set("to", "nowhere"), "unknown generator 'nowhere' in 'to'"),
    ("differential", 200, _duplicate, "duplicate term"),
    ("differential", 243, _insert_copy, "duplicate term"),
    ("differential", 230, _insert_bumped, "inhomogeneous term"),
    ("differential", 210, _bump("v", 2), "inhomogeneous term"),
    ("differential", 211, _bumped_twice, "duplicate term"),
    ("differential", 180, _two_faults, "field 'u' must be nonnegative, got -1"),
    ("generators", 100, _replace("x"), "expected an object"),
    ("generators", 100, _delete("grw"), "missing field 'grw'"),
    ("generators", 100, _set("grz", "-3"), "field 'grz' must be an integer, got '-3'"),
    ("generators", 100, _set("grw", 1.0), "field 'grw' must be an integer, got 1.0"),
    ("generators", 100, _set("grw", True), "field 'grw' must be an integer, got True"),
    ("generators", 100, _set("id", 5), "field 'id' must be a string, got 5"),
    ("iota", 150, _set("v", -2), "field 'v' must be nonnegative, got -2"),
    ("iota", 150, _duplicate, "duplicate term"),
]


@pytest.mark.parametrize("where,k,edit,message", LATE_FAULTS)
def test_late_fault_is_named(tmp_path, long_file, where, k, edit, message):
    data = json.loads(json.dumps(long_file))
    edit(data[where], k)
    path = tmp_path / "bad.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    kind = "generator" if where == "generators" else where
    entry = data[where][k]
    if message == "duplicate term":
        message += f" {(entry['from'], entry['to'], entry['u'], entry['v'])}"
    if message == "inhomogeneous term":
        # Well-formed entries; the homogeneity check names the term.
        gens = {g["id"]: (g["grw"], g["grz"]) for g in data["generators"]}
        (sw, sz), (tw, tz) = gens[entry["from"]], gens[entry["to"]]
        u, v = entry["u"], entry["v"]
        assert str(err.value) == (
            f"{path}: complex fails validation: inhomogeneous term U^{u}V^{v}*{entry['to']} "
            f"in d({entry['from']}): target grading ({tw},{tz}), needs ({sw - 1 + 2 * u},{sz - 1 + 2 * v})"
        )
        return
    assert str(err.value) == f"{path}: {kind} entry #{k}: {message}"


REPEATED_ID_CASES = [
    # (differential entry index, edit, message after "<path>: ", None for the id)
    (None, None, None),
    (200, _set("u", -1), "differential entry #200: field 'u' must be nonnegative, got -1"),
    (210, _bump("v", 2), None),
]


@pytest.mark.parametrize(
    "k,edit,message", REPEATED_ID_CASES, ids=["clean", "late malformed", "inhomogeneous"]
)
def test_repeated_id_precedence(tmp_path, long_file, k, edit, message):
    # A malformed entry is named first, then the repeated id, and an
    # inhomogeneous term only when no id repeats.
    data = json.loads(json.dumps(long_file))
    gens = data["generators"]
    gens.insert(100, dict(gens[99]))
    if edit is not None:
        edit(data["differential"], k)
    path = tmp_path / "repeated.cfk"
    path.write_text(json.dumps(data))
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    if message is None:
        message = f"complex fails validation: duplicate generator id {gens[99]['id']!r}"
    assert str(err.value) == f"{path}: {message}"


# --- validate on mutated files ----------------------------------------------

FUZZ_SUM = "T(2,5)#-T(3,4)"
MUTATIONS = ("delete", "retype", "bump", "duplicate", "truncate")


@pytest.fixture(scope="module")
def fuzz_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.cfk"
    c, iota = realize_with_iota(parse_knot_expr(FUZZ_SUM))
    save_complex_json(c, str(path), FUZZ_SUM, iota)
    return path.read_text()


@settings(max_examples=200, **PROPERTY)
@given(data=st.data())
def test_validate_survives_mutated_files(tmp_path, capsys, fuzz_text, data):
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if mutation == "truncate":
        text = fuzz_text[: data.draw(st.integers(0, len(fuzz_text) - 1), label="length")]
    else:
        obj = json.loads(fuzz_text)
        where = data.draw(st.sampled_from(["generators", "differential", "iota"]), label="list")
        entries = obj[where]
        k = data.draw(st.integers(0, len(entries) - 1), label="entry")
        if mutation == "delete":
            holder = data.draw(st.sampled_from([obj, entries[k]]), label="holder")
            del holder[data.draw(st.sampled_from(sorted(holder)), label="key")]
        elif mutation == "retype":
            key = data.draw(st.sampled_from(sorted(entries[k])), label="key")
            entries[k][key] = data.draw(
                st.sampled_from([None, True, 1.5, "1", str(entries[k][key]), [], {}, -1]),
                label="value",
            )
        elif mutation == "bump":
            key = data.draw(
                st.sampled_from(["grw", "grz"] if where == "generators" else ["u", "v"]),
                label="key",
            )
            entries[k][key] += data.draw(st.sampled_from([-2, -1, 1, 2]), label="by")
        else:
            entries.insert(k, dict(entries[k]))
        text = json.dumps(obj, indent=1)
    path = tmp_path / "mutated.cfk"
    path.write_text(text)
    assert main(["validate", f"--expr=@{path}"]) in (0, 2, 3)
    capsys.readouterr()
    assert _outcome(_load_homogeneous, path) == _outcome(load_complex_checked, path)


@pytest.mark.parametrize("with_iota", [True, False], ids=["with iota", "without iota"])
def test_loader_accepts_only_homogeneous_files(tmp_path, fuzz_text, with_iota):
    # Each generator's grw or grz moved by 2 keeps every parity and every
    # column, so d^2 = 0 still holds: only the comparison of each entry's
    # stated exponents with its gradings can reject such a file.
    base = json.loads(fuzz_text)
    if not with_iota:
        del base["iota"]
    path = tmp_path / "moved.cfk"
    for k in range(len(base["generators"])):
        for key in ("grw", "grz"):
            for by in (-2, 2):
                obj = json.loads(json.dumps(base))
                obj["generators"][k][key] += by
                path.write_text(json.dumps(obj))
                with pytest.raises(FileFormatError):
                    _load_homogeneous(path)


def _outcome(load, path):
    """The error a loader raises on path, or what it reads."""
    try:
        c, iota = load(str(path))
    except Exception as exc:
        return type(exc), str(exc)
    return c.labels, c.grw, c.grz, c.d.cols, iota and iota.cols


# --- format 2: faults named by field and generator ---------------------------


def _columns_file():
    """The format-2 object of the staircase y-1 <- y0 -> y1 with its reflection.

    id ['y-1', 'y0', 'y1'], grw [0, -1, -2], grz [-2, -1, 0],
    differential [[], [0, 2], []], iota [[2], [1], [0]].
    """
    s1 = staircase(1)
    return {
        "format": 2,
        "name": "s1",
        "id": list(s1.labels),
        "grw": list(s1.grw),
        "grz": list(s1.grz),
        "differential": [[], [0, 2], []],
        "iota": [[2], [1], [0]],
    }


def _put(key, value, k=None):
    def edit(data):
        if k is None:
            data[key] = value
        else:
            data[key][k] = value

    return edit


def _drop(key):
    def edit(data):
        del data[key]

    return edit


COLUMN_FAULTS = [
    # (id, edit, message); each message follows the path
    ("format 3", _put("format", 3), ": field 'format' must be 2, or absent in a format-1 file, got 3"),
    ("format 1", _put("format", 1), ": field 'format' must be 2, or absent in a format-1 file, got 1"),
    ("format string", _put("format", "2"), ": field 'format' must be 2, or absent in a format-1 file, got '2'"),
    ("format float", _put("format", 2.0), ": field 'format' must be 2, or absent in a format-1 file, got 2.0"),
    ("format bool", _put("format", True), ": field 'format' must be 2, or absent in a format-1 file, got True"),
    ("no ids", _drop("id"), ": field 'id' must be a nonempty list of strings"),
    ("empty ids", _put("id", []), ": field 'id' must be a nonempty list of strings"),
    ("id not a string", _put("id", 5, 1), ": id of generator #1: must be a string, got 5"),
    ("repeated id", _put("id", "y-1", 2), ": id of generator #2 'y-1': repeats generator #0"),
    ("grw not a list", _put("grw", {}), ": field 'grw' must be a list of 3 integers, one per id"),
    ("grz too short", _put("grz", [-2, -1]), ": field 'grz' must be a list of 3 integers, one per id"),
    ("grw bool", _put("grw", True, 1), ": grw of generator #1 'y0': must be an integer, got True"),
    ("grz float", _put("grz", 0.0, 2), ": grz of generator #2 'y1': must be an integer, got 0.0"),
    ("differential missing", _drop("differential"),
     ": field 'differential' must be a list of 3 target lists, one per id"),
    ("differential not a list", _put("differential", {"1": [0, 2]}),
     ": field 'differential' must be a list of 3 target lists, one per id"),
    ("differential too long", _put("differential", [[], [0, 2], [], []]),
     ": field 'differential' must be a list of 3 target lists, one per id"),
    ("column not a list", _put("differential", 0, 1),
     ": differential of generator #1 'y0': expected a list of target indices, got 0"),
    ("bool target", _put("differential", [True, 2], 1),
     ": differential of generator #1 'y0': target must be an integer, got True"),
    ("float target", _put("differential", [0, 2.0], 1),
     ": differential of generator #1 'y0': target must be an integer, got 2.0"),
    ("string target", _put("differential", ["0", 2], 1),
     ": differential of generator #1 'y0': target must be an integer, got '0'"),
    ("negative target", _put("differential", [-1, 2], 1),
     ": differential of generator #1 'y0': target -1 is not a generator index (0..2)"),
    ("target out of range", _put("differential", [0, 3], 1),
     ": differential of generator #1 'y0': target 3 is not a generator index (0..2)"),
    ("repeated target", _put("differential", [0, 2, 0], 1),
     ": differential of generator #1 'y0': target 0 is repeated"),
    ("iota not a list", _put("iota", None), ": field 'iota' must be a list of 3 target lists, one per id"),
    ("iota target out of range", _put("iota", [5], 2),
     ": iota of generator #2 'y1': target 5 is not a generator index (0..2)"),
    ("repeated iota target", _put("iota", [1, 1], 1), ": iota of generator #1 'y0': target 1 is repeated"),
    # grw(y-1) = -4 implies U^-1 on y-1 in d(y0), with every parity kept.
    ("negative implied exponent", _put("grw", [-4, -1, -2]),
     ": complex fails validation: inhomogeneous term y-1 in d(y0): target grading (-4,-2) "
     "admits no monomial from (-1,-1)"),
    ("odd alexander grading", _put("grz", [-1, -1, 0]),
     ": complex fails validation: generator 'y-1': grw-grz = 1 is odd, Alexander grading is not an integer; "
     "inhomogeneous term y-1 in d(y0): target grading (0,-1) admits no monomial from (-1,-1)"),
    ("d squared", lambda data: data.update(
        id=["a", "b", "c"], grw=[2, 1, 0], grz=[2, 1, 0], differential=[[1], [2], []], iota=[[], [], []]),
     ": complex fails validation: d^2(a) has term U^0V^0*c"),
    ("inhomogeneous iota", _put("iota", [[0], [1], [2]]),
     ": iota rejected: skew map does not swap gradings on term y-1 of image of y-1"),
    ("iota not a chain map", _put("iota", [[2], [1], []]), ": iota rejected: d f != f d on generator 'y0'"),
]


@pytest.mark.parametrize("edit,message", [case[1:] for case in COLUMN_FAULTS], ids=[c[0] for c in COLUMN_FAULTS])
def test_columns_fault_is_named(tmp_path, capsys, edit, message):
    data = _columns_file()
    edit(data)
    path = tmp_path / "bad.cfk"
    path.write_text(json.dumps(data))
    message = f"{path}{message}"
    with pytest.raises(FileFormatError) as err:
        load_complex(str(path))
    assert str(err.value) == message
    with pytest.raises(FileFormatError):
        load_columns_checked(str(path))
    assert main(["validate", f"--expr=@{path}"]) == 3
    out, err_text = capsys.readouterr()
    assert (out, err_text) == ("", f"invalid input: {message}\n")


def test_columns_base_file_is_valid(tmp_path, capsys):
    path = tmp_path / "s1.cfk"
    path.write_text(json.dumps(_columns_file()))
    c, iota = load_complex(str(path))
    assert _contents(c, iota) == _contents(*load_columns_checked(str(path)))
    assert c.cols == staircase(1).cols and iota.cols == staircase_iota(staircase(1)).cols
    assert main(["validate", f"--expr=@{path}"]) == 0
    assert capsys.readouterr().out == "ok: 3 generators, involution verified\n"


@pytest.mark.parametrize("order", ["reversed", 0, 1, 2])
def test_unsorted_target_lists_load_and_save_as_sorted(tmp_path, order):
    # The reader sorts each target list before it keeps the lists as the
    # maps' targets, so a file whose lists are reversed or shuffled loads
    # to the same complex and iota, and saves to the bytes of the original.
    c, iota = realize_with_iota(parse_knot_expr(LONG_SUM))
    original, permuted = tmp_path / "original.cfk", tmp_path / "permuted.cfk"
    save_complex(c, str(original), LONG_SUM, iota)
    data = json.loads(original.read_text())
    rng = random.Random(order)
    for key in ("differential", "iota"):
        for row in data[key]:
            if order == "reversed":
                row.reverse()
            else:
                rng.shuffle(row)
    assert data != json.loads(original.read_text())
    permuted.write_text(json.dumps(data))
    loaded, loaded_iota = _load_homogeneous(permuted)
    assert _contents(loaded, loaded_iota) == _contents(c, iota)
    save_complex(loaded, str(permuted), LONG_SUM, loaded_iota)
    assert permuted.read_bytes() == original.read_bytes()


# --- format 2: validate on mutated files ---------------------------------------


@pytest.fixture(scope="module")
def columns_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("columns") / "base.cfk"
    c, iota = realize_with_iota(parse_knot_expr(FUZZ_SUM))
    save_complex(c, str(path), FUZZ_SUM, iota)
    return path.read_text()


COLUMN_VALUES = [None, True, 1.5, "1", [], {}, -1, 0, 1, 10**6]


@settings(max_examples=200, **PROPERTY)
@given(data=st.data())
def test_validate_survives_mutated_columns_files(tmp_path, capsys, columns_text, data):
    # Each mutation ends in exit 0 or 3, never a traceback; the loader
    # accepts exactly what the format-1 translation of the file passes.
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if mutation == "truncate":
        text = columns_text[: data.draw(st.integers(0, len(columns_text) - 1), label="length")]
    else:
        obj = json.loads(columns_text)
        # A top-level field, an element of its list, or a target in such an element.
        places = [(key,) for key in obj]
        places += [(key, i) for key in obj if isinstance(obj[key], list) for i in range(len(obj[key]))]
        places += [(key, i, t) for key in ("differential", "iota") for i, ts in enumerate(obj[key]) for t in range(len(ts))]
        *steps, k = data.draw(st.sampled_from(places), label="place")
        holder = obj
        for step in steps:
            holder = holder[step]
        if mutation == "delete":
            del holder[k]
        elif mutation == "bump" and type(holder[k]) is int:
            holder[k] += data.draw(st.sampled_from([-2, -1, 1, 2]), label="by")
        elif mutation == "duplicate" and isinstance(holder, list):
            holder.insert(k, json.loads(json.dumps(holder[k])))
        else:
            holder[k] = data.draw(st.sampled_from(COLUMN_VALUES + [str(holder[k])]), label="value")
        text = json.dumps(obj)
    path = tmp_path / "mutated.cfk"
    path.write_text(text)
    assert main(["validate", f"--expr=@{path}"]) in (0, 3)
    capsys.readouterr()
    assert _accepts(_load_homogeneous, path) == _accepts(load_columns_checked, path)


def _accepts(load, path):
    """What a loader reads from path, or None when it raises FileFormatError."""
    try:
        return _contents(*load(str(path)))
    except FileFormatError:
        return None


# --- format 2: the loader's checks against those of a fresh complex ----------


def _fresh_verdict(data, path):
    """The error message for a format-2 object of sound shape, from a fresh complex and skew map; None if valid.

    The complex and the map are built from the columns of the object's
    target lists, so `illegal_terms` and `verify_chain_map`
    (`ChainMap.illegal_entries`) read lists walked off those columns, not
    the file's lists that the loader keeps.
    """

    def columns(lists):
        return [sum(1 << j for j in targets) for targets in lists]

    c = BigradedComplex(data["id"], data["grw"], data["grz"], columns(data["differential"]))
    violations = c.validate()
    if violations:
        return f"{path}: complex fails validation: {'; '.join(violations)}"
    violation = verify_chain_map(SkewMap(c, columns(data["iota"])))
    return None if violation is None else f"{path}: iota rejected: {violation}"


@pytest.mark.parametrize("seed", range(60))
def test_columns_reader_matches_mask_checks(tmp_path, columns_text, seed):
    # One to three edits that keep the file's shape: a new target in a list
    # of d or iota, or a grading moved by 1 or 2. The loader names the
    # inhomogeneous entries of d and the first one of iota exactly as the
    # checks of a fresh complex do, and what it accepts passes
    # `_load_homogeneous`.
    rng = random.Random(seed)
    obj = json.loads(columns_text)
    n = len(obj["id"])
    for _ in range(rng.randint(1, 3)):
        key, i, j = rng.choice(["differential", "iota", "grw", "grz"]), rng.randrange(n), rng.randrange(n)
        if key in ("grw", "grz"):
            obj[key][i] += rng.choice([-2, -1, 1, 2])
        elif j not in obj[key][i]:
            obj[key][i].insert(rng.randint(0, len(obj[key][i])), j)
    path = tmp_path / "edited.cfk"
    path.write_text(json.dumps(obj))
    expected = _fresh_verdict(obj, path)
    if expected is None:
        _load_homogeneous(path)
    else:
        with pytest.raises(FileFormatError) as err:
            load_complex(str(path))
        assert str(err.value) == expected


@pytest.mark.parametrize("name", sorted(os.listdir(DATA)))
def test_data_files_pass_the_mask_checks(name):
    path = os.path.join(DATA, name)
    if name == "not_utf8.cfk":
        with pytest.raises(FileFormatError):
            load_complex(path)
    else:
        _load_homogeneous(path)


def test_unit_entry_is_in_both_quotients(tmp_path):
    # d(a) = b with u = v = 0: the entry is in the columns of both
    # quotients, from the format-2 file and from its format-1 copy.
    path = os.path.join(DATA, "unit_pair.cfk")
    copy = tmp_path / "unit_pair_v1.cfk"
    c, iota = load_complex(path)
    save_complex_json(c, str(copy), "", iota)
    for source in (path, copy):
        c, _ = _load_homogeneous(source)
        a, b = c.index["a"], c.index["b"]
        for mode in ("U0", "V0"):
            assert fu_cols(reduce_complex(c, mode))[a] == 1 << b, (source, mode)


def test_a_path_that_open_rejects_is_named(tmp_path, capsys):
    # open refuses a null byte with ValueError; only an in-process caller can pass one.
    path = f"{tmp_path}/nope\x00.cfk"
    message = f"{path!r}: cannot read: embedded null byte"
    with pytest.raises(FileFormatError) as exc:
        load_complex(path)
    assert str(exc.value) == message
    assert main(["validate", "--expr", f"@{path}"]) == 3
    assert capsys.readouterr() == ("", f"invalid input: {message}\n")
