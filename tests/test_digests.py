"""Byte-identity of the program's output.

The corpus reports must hash to the sha256 values in
`perfbench/digests.json` (read here, never written), and their human
and csv forms to the values in `TEXT_REPORTS` below. The saved files of
three torus sums with their involutions, and of a round trip of
`tests/data/hw.cfk`, must hash to the values below; these pin the file
writer's canonical order. `SAVED_COLUMNS` and `HW_ROUND_TRIP_COLUMNS`
pin the format-2 files that `save_complex` writes; `SAVED` and
`HW_ROUND_TRIP` pin the format-1 files of the reference writer in
`tests/oracle_io.py`, which the program wrote before format 2. So must
the `plotdata` tables of the corpus sums and of one three-term sum
hash to the values below.
"""

import hashlib
import json
import os

import pytest

from knotfloer.cli import main
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import load_complex, save_complex
from knotfloer.involutive import realize_with_iota
from oracle_io import save_complex_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = {
    "J": "T(2,11)#T(4,7)#-T(5,6)",
    "K": "T(2,3)#T(4,7)#-T(5,6)",
    "K1": "T(2,11)#-T(4,5)",
    "HW": "@tests/data/hw.cfk",
}
SAVED = {
    "T(2,3)#T(2,3)": "662e179885ca63885816659da5499bfb9b642960cd5cf8e01e48843ce1e058a4",
    "T(2,5)#-T(3,4)": "e4f3bc2c609c20c28b08d8e3282af3e7e5e64a4c9b3fcabb0f1e567ef862d92b",
    "T(2,3)#T(4,7)#-T(5,6)": "63f8187c0682244b2904587629997fd9cf69db6e62759d9c785a506f50fb9293",
}
SAVED_COLUMNS = {
    "T(2,3)#T(2,3)": "44e4435b24e6b8dbf6ffb452aaf9b14faa297da814ccb039c972627bc90fa9fd",
    "T(2,5)#-T(3,4)": "6959d47bd6725393d184cea90f929f6b2787939d82eea50d22133783c7156acb",
    "T(2,3)#T(4,7)#-T(5,6)": "6b95a5a4c5bac6e0a0a7b84f2d10989674080cc498ddde8a910a1bb948b3564b",
}
PLOTDATA = {
    ("J", "--full"): "88e252786a5977af5e7d1e7505a66e8f8ec037bdb17b337eec6c17756f2b33ad",
    ("K", "--full"): "93f9faf996bf2eecba0c9244ef91f05d2b2d86ce67678ebae09b3f3d174ae6a5",
    ("K1", "--full"): "8e878191341551e5bf9c1ddf67f9efdf5df0cd7b2876eb8877d91df78610a420",
    ("K1", ""): "5103b123f459335fd79b1680d99cdc9c82011079aa8bd32f99d91abebe7ea3fc",
    ("T(3,4)#-T(2,5)#T(2,7)", "--full"): "16a3666baf32ca6524f412f647db6fe10f538a51f5af2000c500d9f2ba6ae91c",
}
TEXT_REPORTS = {
    ("J", "human"): "9a05b915feaa8a0d012f1d22dcfd766b76c1cbc1c815a1fbf1a99cb34103013f",
    ("J", "csv"): "09a8bbbd35ca5352a13bc9437913f8b8a28d2cb07a7d76f621145bdb3b66ab2c",
    ("K", "human"): "2bc949bf136b8bf470dceaa1704802f230f669df61b0e005522ad1327491bfed",
    ("K", "csv"): "d23e38d339e74aa0f7ce1477f5627180254a78550e9df5e93d61c5364891a342",
    ("K1", "human"): "051c4776354933d866f8d3b071fbfc268e8580b683e85823d8bbc3152ed3d987",
    ("K1", "csv"): "40eedb3d4613c644a9d87ff220209db1bb4d46ba7737c2404ec7ece4249481c8",
    ("HW", "human"): "78ad691e07de82d756e43f151d5402efc4377f9b872e2ff1f3fd0be333de1137",
    ("HW", "csv"): "1f00e61d8362fd443a63e0b615d34b8bac5ba8a4e47bb3120c5286d0359811d9",
}
HW_ROUND_TRIP = "c89eb16c113ed21ccf7dc5970ef1e49fde3dca7f2fd5dffcd6ce5712f6c38e1b"
HW_ROUND_TRIP_COLUMNS = "a54cae7378a11ed329753700c7420dc8a99c2246898154b55b23cb1cc5ffc152"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_corpus_report_digest(label, capsys, monkeypatch):
    with open(os.path.join(ROOT, "perfbench", "digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)["reports"][label]
    monkeypatch.chdir(ROOT)  # the HW report prints its relative path
    assert main(["report", f"--expr={CORPUS[label]}", "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    assert sha256(out.encode()) == want


@pytest.mark.parametrize("label, fmt", sorted(TEXT_REPORTS))
def test_corpus_text_report_digest(label, fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the HW report prints its relative path
    assert main(["report", f"--expr={CORPUS[label]}", "--format", fmt]) == 0
    out, _ = capsys.readouterr()
    assert sha256(out.encode()) == TEXT_REPORTS[label, fmt]


@pytest.mark.parametrize("label, flag", sorted(PLOTDATA))
def test_plotdata_digest(label, flag, capsys):
    argv = ["plotdata", f"--expr={CORPUS.get(label, label)}"] + ([flag] if flag else [])
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert sha256(out.encode()) == PLOTDATA[label, flag]


@pytest.mark.parametrize("expr", sorted(SAVED))
def test_saved_sum_digest(expr, tmp_path):
    c, iota = realize_with_iota(parse_knot_expr(expr))
    path = tmp_path / "sum.cfk"
    save_complex_json(c, str(path), expr, iota)
    assert sha256(path.read_bytes()) == SAVED[expr]


def test_hw_round_trip_digest(tmp_path):
    c, iota = load_complex(os.path.join(ROOT, "tests", "data", "hw.cfk"))
    path = tmp_path / "hw.cfk"
    save_complex_json(c, str(path), "hw", iota)
    assert sha256(path.read_bytes()) == HW_ROUND_TRIP


@pytest.mark.parametrize("expr", sorted(SAVED_COLUMNS))
def test_saved_sum_columns_digest(expr, tmp_path):
    c, iota = realize_with_iota(parse_knot_expr(expr))
    path = tmp_path / "sum.cfk"
    save_complex(c, str(path), expr, iota)
    assert sha256(path.read_bytes()) == SAVED_COLUMNS[expr]


def test_hw_round_trip_columns_digest(tmp_path):
    c, iota = load_complex(os.path.join(ROOT, "tests", "data", "hw.cfk"))
    path = tmp_path / "hw.cfk"
    save_complex(c, str(path), "hw", iota)
    assert sha256(path.read_bytes()) == HW_ROUND_TRIP_COLUMNS
