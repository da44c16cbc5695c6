"""Level-by-level scan for tau, kept as an oracle for `invariants.tau_invariant`.

`tau_invariant` reads tau off the generator left unpaired by the U = 0
tower reduction. This scan makes no use of that reduction: it walks the
Alexander levels from the bottom and returns the least level s at which
the subcomplex of generators with A <= s contains a cycle outside the
full column space of the pure-V differential. Below the tower the
restricted kernels consist of boundaries; at the tower level a
non-torsion cycle appears.
"""

from typing import Dict, List

from knotfloer.complexes import BigradedComplex, reduce_complex
from knotfloer.errors import ConsistencyError

from echelon import ColumnSolver, Echelon, set_bits
from fu_views import fu_cols


def tau_scan(c: BigradedComplex) -> int:
    cols = fu_cols(reduce_complex(c, "U0"))
    full = Echelon(cols)
    levels = sorted(set(c.alexander))
    by_level: Dict[int, List[int]] = {}
    for i, a in enumerate(c.alexander):
        by_level.setdefault(a, []).append(i)
    chosen: List[int] = []
    for s in range(min(levels), max(levels) + 1):
        chosen.extend(by_level.get(s, ()))
        solver = ColumnSolver(cols[i] for i in chosen)
        for combo in solver.kernel:
            vec = 0
            for q in set_bits(combo):
                vec |= 1 << chosen[q]
            if not full.contains(vec):
                return s
    raise ConsistencyError("no non-torsion class found in the U = 0 reduction")
