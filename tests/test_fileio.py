import json
import os

import pytest

from knotfloer.builders import named_complex, staircase
from knotfloer.errors import FileFormatError
from knotfloer.fileio import load_complex, save_complex
from knotfloer.involutive import staircase_iota

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_load_model_file():
    c, iota = load_complex(os.path.join(DATA, "hw.cfk"))
    assert iota is None
    hw = named_complex("HW")
    assert [(g.name, g.grw, g.grz) for g in c.gens] == [
        (g.name, g.grw, g.grz) for g in hw.gens
    ]
    assert c.cols == hw.cols
    assert c.terms() == [("b", "a", 2, 0), ("b", "c", 0, 2)]


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
    assert loaded.terms() == iota.terms()


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
    from knotfloer.cli import main

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


def test_save_rejects_repeated_labels(tmp_path):
    from knotfloer.complexes import BigradedComplex, Generator
    from knotfloer.errors import ValidationError

    left = BigradedComplex.from_terms(
        [Generator("a", 0, 0), Generator("a|b", 1, 1), Generator("z", 0, 0)],
        [("a|b", "z", 0, 0)],
    )
    right = BigradedComplex.from_terms(
        [Generator("c", 0, 0), Generator("b|c", 1, 1), Generator("w", 0, 0)],
        [("b|c", "w", 0, 0)],
    )
    path = tmp_path / "sum.cfk"
    with pytest.raises(ValidationError) as err:
        save_complex(left.tensor(right), str(path))
    assert "'a|b|c'" in str(err.value)
    assert not path.exists()
