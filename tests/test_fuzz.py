"""Bad input never ends in a traceback: `cli.main` on mutated files and on expressions of a small grammar.

Hypothesis draws each case from a fixed seed (`derandomize`) within a
fixed budget of examples:

* a mutation of a `tests/data` file, or of a small sum saved in either
  file format: a value replaced by one of another type, a huge or
  negative integer, NaN, a string or an empty container; an entry
  deleted, copied, or swapped with another; or the text cut short.
  `validate` and `report` run on it;
* an expression of a small grammar: torus knots whose parameters include
  0, 1, negatives, pairs that are not coprime and numbers past
  `MAX_TORUS_DEGREE` and 2^63; HW and an unknown name; files that exist,
  do not, or are directories; mirrors, sums and stray characters. `report`, `validate` and `plotdata` run on it.

Each run must return 0, 2, 3 or 5 and raise nothing. The valid torus
parameters stay below 5 and a sum has at most three leaves, so no drawn
report outgrows a few hundred generators. argparse reads an `--expr`
value that starts with "--" as a flag and exits through SystemExit(2),
so such an expression is passed as one `--expr=` token.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle_io import save_complex_json

from knotfloer import cli
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import save_complex
from knotfloer.involutive import realize_with_iota

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
EXITS = (0, 2, 3, 5)
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**30, -(10**30), 2**63, float("nan"), float("inf"), 0.5]),
    st.text(max_size=3),
    st.sampled_from([[], {}]),
)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """(directory, documents): the JSON data files and a small sum saved in both formats, parsed."""
    root = tmp_path_factory.mktemp("fuzz")
    c, iota = realize_with_iota(parse_knot_expr("T(2,3)#-T(2,5)"))
    for save in (save_complex, save_complex_json):
        save(c, str(root / f"{save.__name__}.cfk"), "T(2,3)#-T(2,5)", iota)
    paths = [os.path.join(DATA, n) for n in sorted(os.listdir(DATA)) if n != "not_utf8.cfk"]
    paths += [str(root / n) for n in sorted(os.listdir(root))]
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return root, documents


def _mutated(draw, document) -> str:
    """The text of document with one entry, drawn by draw, replaced, deleted, copied or swapped, or cut short."""
    document = copy.deepcopy(document)
    parent = document
    while True:
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        key = draw(st.sampled_from(keys))
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
            break
        parent = child
    op = draw(st.sampled_from(["set", "delete", "copy", "swap", "cut"]))
    if op == "set":
        parent[key] = draw(VALUES)
    elif op == "delete":
        del parent[key]
    elif op in ("copy", "swap"):
        other = draw(st.sampled_from(keys))
        if op == "swap":
            parent[key], parent[other] = parent[other], parent[key]
        elif isinstance(parent, list):
            parent.insert(other, copy.deepcopy(parent[key]))
        else:
            parent[other] = copy.deepcopy(parent[key])
    text = json.dumps(document)
    return text[: draw(st.integers(0, len(text)))] if op == "cut" else text


@FUZZ
@given(data=st.data())
def test_mutated_files_exit_cleanly(sources, data):
    root, documents = sources
    path = str(root / "mutated.cfk")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_mutated(data.draw, data.draw(st.sampled_from(documents))))
    for argv in (["validate", "--expr", f"@{path}"], ["report", "--expr", f"@{path}", "--involutive", "on"]):
        assert _run(argv) in EXITS, argv


NUMBERS = st.one_of(st.integers(2, 4), st.integers(-1, 4), st.sampled_from([0, 1, 6, 30003, 2**63, 10**25]))
TORUS = st.builds("T({},{})".format, NUMBERS, NUMBERS)
ATOMS = st.one_of(
    TORUS,
    st.sampled_from(["T(2,3)", "T(3,2)", "T(2,5)", "T(3,4)"]),
    st.sampled_from(["HW", "XY", f"@{DATA}/hw.cfk", f"@{DATA}/missing.cfk", f"@{DATA}", "@"]),
    st.text(alphabet="T()-#,@ HW", max_size=6),
)
EXPRESSIONS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds("-{}".format, inner),
        st.builds("{}#{}".format, inner, inner),
        st.builds("{} # {}".format, inner, inner),
    ),
    max_leaves=3,
)
COMMANDS = st.sampled_from([
    ["report", "--format", "json"],
    ["report", "--involutive", "on"],
    ["validate"],
    ["plotdata", "--full"],
])


@FUZZ
@given(expr=EXPRESSIONS, command=COMMANDS)
def test_drawn_expressions_exit_cleanly(expr, command):
    argv = [*command, f"--expr={expr}"] if expr.startswith("--") else [*command, "--expr", expr]
    assert _run(argv) in EXITS, argv
