"""The U = 0 and V = 0 quotients by grading masks: the oracle of `complexes.reduce_complex`.

`reduce_complex` reads the differential's target lists and keeps each
target j of x_i whose dropped grading is one less than that of x_i. This
filter builds, for every value of the dropped grading, the bitmask of the
generators at it, and ANDs each column with the mask one below its own
generator's value, so it never reads a target list.
"""

from typing import Dict, Tuple

from knotfloer.complexes import BigradedComplex


def mask_quotient(c: BigradedComplex, mode: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(cols, degrees) of the quotient: "U0" drops grw, "V0" drops grz."""
    drop = {"U0": c.grw, "V0": c.grz}[mode]
    masks: Dict[int, int] = {}
    for j, g in enumerate(drop):
        masks[g] = masks.get(g, 0) | 1 << j
    return tuple(col & masks.get(g - 1, 0) for col, g in zip(c.cols, drop)), tuple(drop)
