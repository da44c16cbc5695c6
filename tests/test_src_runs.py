"""`src/` holds what a command runs: every `def` of the package is entered by some `knotfloer` command.

The commands run in process under `sys.setprofile`, on the corpus
reports in every format, every file in tests/data, a saved sum, the
plot tables and one input per kind of bad input. Then each module-level
and class-level `def` in `src/knotfloer` must have been entered. A code
object reports the line of its first decorator, so a decorated `def` is
matched there. Test oracles belong under `tests/`; what no command runs
is named in `UNREACHED`, with the reason it stays.
"""

import ast
import json
import os
import sys

from knotfloer import cli
from knotfloer.expressions import parse_knot_expr
from knotfloer.fileio import save_complex
from knotfloer.involutive import realize_with_iota

SRC = os.path.dirname(os.path.realpath(cli.__file__))
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CORPUS = ["T(2,11)#T(4,7)#-T(5,6)", "T(2,3)#T(4,7)#-T(5,6)", "T(2,11)#-T(4,5)", "HW"]
SAVED = "T(2,3)#-T(2,5)"

UNREACHED = {
    "builders.staircase": "waits for the torus-summand level route (ROADMAP item 1)",
    "builders.staircase_dual": "waits for the torus-summand level route (ROADMAP item 1)",
    "complexes.BigradedComplex.relabel": "perfbench/tracer.py wraps it by name",
    "complexes.BigradedComplex.gens": "perfbench/tracer.py reads it for its sizes",
    "linalg.LinearSystem.__init__": "perfbench/tracer.py looks up LinearSystem.solve, so the class stays whole",
    "linalg.LinearSystem.new_vars": "perfbench/tracer.py looks up LinearSystem.solve, so the class stays whole",
    "linalg.LinearSystem.add_equation": "perfbench/tracer.py looks up LinearSystem.solve, so the class stays whole",
    "linalg.LinearSystem.solve": "perfbench/tracer.py wraps it by name",
    "involutive.realize_expr": "perfbench/selftest.py and README call it",
    "complexes.Generator.alexander": "public library API that no command reaches",
    "complexes.ChainMap.problem": "public library API that no command reaches",
}

TREFOIL_V1 = {
    "generators": [{"id": "y-1", "grw": 0, "grz": -2}, {"id": "y0", "grw": -1, "grz": -1}, {"id": "y1", "grw": -2, "grz": 0}],
    "differential": [{"from": "y0", "to": "y-1", "u": 1, "v": 0}, {"from": "y0", "to": "y1", "u": 0, "v": 1}],
}
TREFOIL_V2 = {"format": 2, "name": "T(2,3)", "id": ["y-1", "y0", "y1"], "grw": [0, -1, -2], "grz": [-2, -1, 0],
              "differential": [[], [0, 2], []], "iota": [[2], [1], [0]]}


def _defs():
    """(qualified name, path, first line) of every module-level and class-level def."""
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        scopes = [("", tree.body)] + [(f"{node.name}.", node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                    yield f"{name[:-3]}.{prefix}{node.name}", path, line


def _write(path, content):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(content, fh)
    return f"@{path}"


def _runs(tmp_path, saved):
    """(argv, the exit codes it may end with) of every command the gate runs; `saved` is the path of SAVED's file."""
    out = []
    for expr in CORPUS:
        for fmt in ("human", "json", "csv"):
            for involutive in ("on", "off"):
                # HW comes without an involution.
                code = 3 if (expr, involutive) == ("HW", "on") else 0
                out.append((["report", "--expr", expr, "--format", fmt, "--involutive", involutive], {code}))
    for name in sorted(os.listdir(DATA)):
        ref = f"@{os.path.join(DATA, name)}"
        out += [(["validate", "--expr", ref], {0, 3}), (["report", "--expr", ref], {0, 3})]
    out += [(["validate", "--expr", f"@{saved}"], {0}), (["report", "--expr", f"@{saved}", "--involutive", "on"], {0})]
    out += [(["plotdata", "--expr", "T(2,3)#-T(3,4)", "--full"], {0}), (["plotdata", "--expr", "HW", "--full"], {5})]
    bad_grading = dict(TREFOIL_V2, grw=[0, -1.0, -2])
    repeated_id = dict(TREFOIL_V1, generators=TREFOIL_V1["generators"] + [{"id": "y1", "grw": -2, "grz": 0}])
    inhomogeneous = dict(TREFOIL_V1, differential=[{"from": "y0", "to": "y-1", "u": 2, "v": 0}])
    bad_iota = dict(TREFOIL_V2, iota=[[1], [0], [2]])
    out.append((["report", "--expr", "T(2,3)#"], {2}))
    for stem, content in (("grading", bad_grading), ("repeated", repeated_id), ("entry", inhomogeneous), ("iota", bad_iota)):
        ref = _write(str(tmp_path / f"{stem}.cfk"), content)
        out += [(["validate", "--expr", ref], {3}), (["report", "--expr", ref, "--involutive", "on"], {3})]
    return out


def test_every_def_in_src_is_entered_by_a_command(tmp_path, capsys):
    saved = str(tmp_path / "saved.cfk")
    runs = _runs(tmp_path, saved)
    c, iota = realize_with_iota(parse_knot_expr(SAVED))
    cli._parser.cache_clear()  # built once per process: an earlier test may have built it
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        save_complex(c, saved, SAVED, iota)
        codes = [cli.main(argv) for argv, _allowed in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert [(argv, code) for (argv, allowed), code in zip(runs, codes) if code not in allowed] == []
    entered = {(os.path.realpath(path), line) for path, line in entered}
    unreached = {name for name, path, line in _defs() if (path, line) not in entered}
    assert sorted(unreached) == sorted(UNREACHED)
