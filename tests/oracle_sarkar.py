"""Sarkar's law for the involution, in its H = 0 form: iota^2 = 1 + Phi Psi.

Sarkar (2015) shows that iota^2 is homotopic to 1 + Phi Psi, with Phi
and Psi the basepoint maps (`complexes.basepoint_map`, the formal
derivatives of d in U and in V). On the staircase reflections, their
transposes and Zemke's connected-sum involutions the homotopy is 0, so
the two sides agree column by column. Exponents along a path depend
only on its end points, so both sides are XORs of columns: iota^2 takes
column i to `image(iota.cols, iota.cols[i])`, and Phi Psi to
`image(Phi.cols, Psi.cols[i])`.

Not every valid involution obeys the law: an acyclic box whose iota
is the plain reflection (the boxes of `conftest.scramble`, and so
`tests/data/scrambled_k1.cfk`) keeps iota a valid skew chain map but
breaks it, so those copies are iota-complexes, not iota_K-complexes.
So the oracle runs on realized sums, their mirrors and their saved
files only: in `tests/test_involutive.py`, and in CI on the saved files
of J, imported with `tests` on `PYTHONPATH`.
"""

from typing import Optional

from knotfloer.complexes import BigradedComplex, SkewMap, basepoint_map
from knotfloer.linalg import image


def sarkar_violation(c: BigradedComplex, iota: SkewMap) -> Optional[str]:
    """None when iota^2 = 1 + Phi Psi on every generator, else the first that fails."""
    phi, psi = basepoint_map(c, "U"), basepoint_map(c, "V")
    for i, (col, psi_col) in enumerate(zip(iota.cols, psi.cols)):
        if image(iota.cols, col) != (1 << i) ^ image(phi.cols, psi_col):
            return f"iota^2 != 1 + Phi Psi on generator {c.labels[i]!r}"
    return None
