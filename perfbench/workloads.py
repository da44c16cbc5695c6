"""Seeded operation lists for the three workloads, and their output checks.

An operation is one thing a user does: a CLI command (`report`,
`validate`, `plotdata`) or, in `files`, building a complex with its
involution and saving it. The program sees only the expressions and the
files; sizes, signed genera and digests come from `knots.py` and
`digests.json`, never from the program.

* `wide`: the corpus J, K, K1 and HW, then seeded mixed-sign 3-term sums
  with 539-891 generators and small |signed genus|. Many generators,
  small omega+: the nu scan and the involutive cone dominate.
* `tall`: seeded positive 1-2 term torus sums with few generators and
  omega+ 14-36: the Y_n ladder (tensor, knot-likeness, tower reduction)
  dominates.
* `files`: seeded 2-3 term mixed sums with 117-1485 generators; per sum
  a build-and-save, a `validate` of the saved file and a `plotdata
  --full`. Construction, verification and file I/O instead of
  reduction.

Each workload's candidates are sorted by an analytic work estimate
(`wide_work`, `tall_work`, generator count for `files`), cut into as many
strata as the run has ops, and each seed draws one candidate per
stratum, so every seed yields an op list of about the same cost: the
run length stays steady while the inputs change. The `wide` candidate
with the largest Y_n ladder is in every run, so peak memory does not
depend on the seed.
"""

import hashlib
import itertools
import json
import os
import random
import statistics
from dataclasses import dataclass
from typing import Optional, Tuple

from knots import TORUS, alexander_size, expression, genus, signed_genus, size

HERE = os.path.dirname(os.path.abspath(__file__))

CORPUS = (
    ("J", "T(2,11)#T(4,7)#-T(5,6)", ((1, 2, 11), (1, 4, 7), (-1, 5, 6))),
    ("K", "T(2,3)#T(4,7)#-T(5,6)", ((1, 2, 3), (1, 4, 7), (-1, 5, 6))),
    ("K1", "T(2,11)#-T(4,5)", ((1, 2, 11), (-1, 4, 5))),
    ("HW", "@tests/data/hw.cfk", None),
)
HW_GENERATORS = 3
# Candidates outside these work bands are not drawn: cheaper ones are not
# the workload's regime, dearer ones would make one op a large share of the
# run. At the commit the bands were set they span about 2-4.5 s a report.
WORK_BAND = {"wide": (15000, 33000), "tall": (100000, 160000)}
# Mean seconds of one seeded report, and of the corpus reports in a `wide`
# run, at the commit the bands were set; they size the op list.
OP_COST_S = {"wide": 3.2, "tall": 2.6}
CORPUS_COST_S = 19.0
# `files` sums per run second at the same commit.
FILES_SUMS_PER_S = 7.0
FILES_SIZE = (117, 1485)
# Terms of genus above this make upsilon, not construction and I/O, the cost.
FILES_MAX_TERM_GENUS = 15
FILES_KNOTS = tuple(k for k in TORUS if genus(*k) <= FILES_MAX_TERM_GENUS)

# `tall` is not in BENCHMARK.json: a full benchmark round makes 22 runs per
# workload, and three workloads of 30-s runs (about 45 s each with set-up)
# would not fit its time limit. Run it by hand to see the Y_n ladder alone.
WORKLOADS = ("wide", "tall", "files")


@dataclass(frozen=True)
class Op:
    kind: str  # report | save | validate | plotdata
    expr: str
    terms: Optional[Tuple[Tuple[int, int, int], ...]]  # (sign, p, q) of a torus sum
    label: str = ""  # corpus name, when the output has a recorded digest
    path: str = ""  # complex file of save/validate, relative to the work dir

    def argv(self, workdir):
        if self.kind == "report":
            return ["report", f"--expr={self.expr}", "--format", "json"]
        if self.kind == "validate":
            return ["validate", f"--expr=@{os.path.join(workdir, self.path)}"]
        if self.kind == "plotdata":
            return ["plotdata", f"--expr={self.expr}", "--full"]
        raise ValueError(self.kind)


def _load(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def _stratified(pool, count, rng):
    """One candidate from each of `count` equal slices of the sorted pool."""
    count = max(1, min(count, len(pool)))
    bounds = [round(i * len(pool) / count) for i in range(count + 1)]
    return [rng.choice(pool[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _ladder(terms):
    """Generators of the top Y_n tensor, about size x (2 |genus| + 1)."""
    return size(terms) * (2 * abs(signed_genus(terms)) + 1)


def wide_work(terms):
    """Generators x the Alexander span 2 (g1 + g2 + g3) + 1 the nu scan walks.

    omega+ is small in this family, so the scan, not the ladder, sets
    the cost.
    """
    return size(terms) * (2 * sum(genus(p, q) for _s, p, q in terms) + 1)


def tall_work(terms):
    """Generators x (2 omega+ + 1)^2, the Y_n ladder's work; omega+ is the genus."""
    return size(terms) * (2 * signed_genus(terms) + 1) ** 2


def wide_candidates():
    """Mixed-sign 3-term sums with 539-891 generators and |signed genus| <= 4."""
    sizes = {k: alexander_size(*k) for k in TORUS}
    out = []
    for knots in itertools.combinations(TORUS, 3):
        if not 539 <= sizes[knots[0]] * sizes[knots[1]] * sizes[knots[2]] <= 891:
            continue
        for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            terms = tuple((s,) + k for s, k in zip(signs, knots))
            if abs(signed_genus(terms)) <= 4:
                out.append(terms)
    return out


def tall_candidates():
    """Positive 1-2 term torus sums: few generators, omega+ 14-36."""
    out = [((1, p, q),) for p, q in TORUS if 15 <= genus(p, q) <= 36 and alexander_size(p, q) <= 60]
    for a, b in itertools.combinations(TORUS, 2):
        terms = ((1,) + a, (1,) + b)
        if size(terms) <= 200 and 14 <= signed_genus(terms) <= 22:
            out.append(terms)
    return out


def _report_ops(workload, seconds, rng):
    family, work = {"wide": (wide_candidates, wide_work), "tall": (tall_candidates, tall_work)}[workload]
    lo, hi = WORK_BAND[workload]
    pool = sorted((t for t in family() if lo <= work(t) <= hi), key=lambda t: (work(t), t))
    count = round(seconds / OP_COST_S[workload])
    if workload == "wide":
        # The largest ladder sets peak memory, so every seed runs the same one.
        anchor = max(pool, key=lambda t: (_ladder(t), t))
        pool.remove(anchor)
        chosen = [anchor] + _stratified(pool, count - 1, rng)
    else:
        chosen = _stratified(pool, count, rng)
    rng.shuffle(chosen)
    return [Op("report", expression(terms), terms) for terms in chosen]


def _files_sums(count, rng):
    """`count` distinct mixed sums, stratified by term count and size."""
    families = [
        sorted(
            (size(tuple((1,) + k for k in knots)), knots)
            for knots in itertools.combinations(FILES_KNOTS, terms)
        )
        for terms in (2, 3)
    ]
    families = [[knots for n, knots in fam if FILES_SIZE[0] <= n <= FILES_SIZE[1]] for fam in families]
    total = sum(map(len, families))
    out = []
    for fam in families:
        for knots in _stratified(fam, round(count * len(fam) / total), rng):
            knots = list(knots)
            rng.shuffle(knots)
            signs = [1, -1] + [rng.choice((1, -1)) for _ in knots[2:]]
            rng.shuffle(signs)
            out.append(tuple((s, p, q) for s, (p, q) in zip(signs, knots)))
    rng.shuffle(out)
    return out


def _file_ops(terms, path):
    """Build-and-save, validate and plotdata for one torus sum."""
    expr = expression(terms)
    return [Op("save", expr, terms, path=path), Op("validate", expr, terms, path=path), Op("plotdata", expr, terms)]


def build(workload, seed, seconds):
    """The run's operation list; the same arguments give the same list.

    Each workload ends with a few cheap ops of the other kinds (a files
    triple, or the K1 report), so every layer is entered in every traced
    run; they cost well under 1% of the run.
    """
    rng = random.Random(f"{workload}:{seed}")
    corpus = [Op("report", expr, terms, label) for label, expr, terms in CORPUS]
    if workload == "wide":
        seeded = _report_ops("wide", max(seconds - CORPUS_COST_S, 1), rng)
        return corpus + seeded + _file_ops(corpus[2].terms, "k1.cfk")
    if workload == "tall":
        seeded = _report_ops("tall", seconds, rng)
        return seeded + _file_ops(seeded[0].terms, "tall.cfk")
    if workload == "files":
        ops = []
        for i, terms in enumerate(_files_sums(round(seconds * FILES_SUMS_PER_S), rng)):
            ops += _file_ops(terms, f"sum{i:04d}.cfk")
        return ops + [corpus[2]]
    raise ValueError(f"unknown workload {workload!r}")


def input_stats(ops):
    """Generators and signed genus of the distinct torus-sum inputs."""
    inputs = {op.expr: op.terms for op in ops if op.terms is not None}
    gens = [size(t) for t in inputs.values()]
    genera = [signed_genus(t) for t in inputs.values()]
    return {
        "input.count": len(inputs),
        "input.generators.min": min(gens),
        "input.generators.median": statistics.median(gens),
        "input.generators.max": max(gens),
        "input.signed_genus.min": min(genera),
        "input.signed_genus.max": max(genera),
    }


# --- output checks ----------------------------------------------------------


def check(op, rc, out, result=None):
    """None when the output is right, else the reason it is wrong."""
    if rc != 0:
        return f"exit {rc}"
    if op.kind == "save":
        complex_, iota = result
        if iota is None:
            return "no involution built"
        if len(complex_.gens) != size(op.terms):
            return f"{len(complex_.gens)} generators, expected {size(op.terms)}"
        return None
    if op.kind == "validate":
        want = f"ok: {size(op.terms)} generators, involution verified\n"
        return None if out == want else f"validate printed {out!r}, expected {want!r}"
    if op.kind == "plotdata":
        # The second table's t = 0 row is the upsilon slope, -tau.
        want = f"0\t{-signed_genus(op.terms)}"
        lines = out.splitlines()
        try:
            row = lines[lines.index("# t\tupsilon_over_t") + 1]
        except (ValueError, IndexError):
            return "plotdata has no ratio table"
        return None if row == want else f"slope row {row!r}, expected {want!r}"
    if op.label:
        digest = hashlib.sha256(out.encode()).hexdigest()
        want = _load("digests.json")["reports"][op.label]
        if digest != want:
            return f"{op.label} report digest {digest[:12]} != recorded {want[:12]}"
    report = json.loads(out)
    if op.terms is None:
        return None if report["generator_count"] == HW_GENERATORS else "HW generator count"
    sg = signed_genus(op.terms)
    problems = []
    if report["generator_count"] != size(op.terms):
        problems.append(f"generator_count {report['generator_count']} != {size(op.terms)}")
    if report["invariants"]["tau"] != sg or report["mirror_invariants"]["tau"] != -sg:
        problems.append(f"tau {report['invariants']['tau']} != signed genus {sg}")
    if all(s > 0 for s, _p, _q in op.terms) and report["invariants"]["omega_plus"] != sg:
        problems.append(f"omega+ {report['invariants']['omega_plus']} != genus {sg}")
    return "; ".join(problems) or None
