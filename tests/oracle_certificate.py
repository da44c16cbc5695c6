"""The report's level-0 certificate as first defined: a tower's terms placed in the level-0 basis.

Basis element i of level 0 is U^A x_i, or V^-A x_i when A < 0, with A
the Alexander grading of x_i. So the tower term (i, t), T^t times basis
element i, is the monomial U^(max(A, 0) + t) V^(max(-A, 0) + t) x_i.
Terms sort by label, then by T-power. The program reads the same
monomials off the bigradings of the tower cycle instead
(`cli._tower_certificate`). This module imports nothing from `knotfloer`.
"""

from typing import Dict, List, Sequence

from fu_views import tower_terms


def certificate(labels: Sequence[str], alexander: Sequence[int], split) -> List[Dict]:
    """The level-0 tower cycle of `split`, a reduction of level 0, as the report's terms."""
    terms = sorted(tower_terms(split), key=lambda t: (labels[t[0]], t[1]))
    return [{"gen": labels[i], "u": max(alexander[i], 0) + t, "v": max(-alexander[i], 0) + t} for i, t in terms]
