"""The U = 0 and V = 0 quotients by grading masks: the oracle of `complexes.reduce_complex`.

`reduce_complex` reads the differential's target lists and keeps each
target j of x_i whose dropped grading is one less than that of x_i. This
filter builds, for every value of the dropped grading, the bitmask of the
generators at it, and ANDs each column with the mask one below its own
generator's value, so it never reads a target list.

`entry_violations` holds a quotient entry that `invariants._quotient`
derives (Kunneth, universal coefficients, index reversal) to the direct
reduction of the same quotient.
"""

from typing import Dict, List, Tuple

from knotfloer.complexes import BigradedComplex, reduce_complex
from knotfloer.fu import tower_reduce
from knotfloer.linalg import iter_bits


def mask_quotient(c: BigradedComplex, mode: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(cols, degrees) of the quotient: "U0" drops grw, "V0" drops grz."""
    drop = {"U0": c.grw, "V0": c.grz}[mode]
    masks: Dict[int, int] = {}
    for j, g in enumerate(drop):
        masks[g] = masks.get(g, 0) | 1 << j
    return tuple(col & masks.get(g - 1, 0) for col, g in zip(c.cols, drop)), tuple(drop)


def entry_violations(c: BigradedComplex, mode: str, entry) -> List[str]:
    """What a (tower index, cocycle, tower cycle) entry of `invariants._quotient` gets wrong, [] when nothing.

    Held to the direct route, `tower_reduce(reduce_complex(c, mode))`: the
    same verdict (an entry exactly when the quotient has one tower), an
    index at the gradings of the direct tower generator, and, with T = 1,
    a cocycle that vanishes on every boundary and a cycle, each in the
    degree of the tower (the dropped grading, where `invariants._end`
    slices), each pairing to 1 with the direct route's cycle or cocycle.
    Parities are read off the target lists, so no column mask is built.
    """
    quotient = reduce_complex(c, mode)
    direct = tower_reduce(quotient)
    if (entry is None) != (direct.rank != 1):
        return [f"{mode}: entry {'absent' if entry is None else 'given'}, direct tower rank {direct.rank}"]
    if entry is None:
        return []
    index, cocycle, cycle = entry
    tower, degree = direct.indices[0], quotient.degrees
    out = []
    if (c.grw[index], c.grz[index]) != (c.grw[tower], c.grz[tower]):
        out.append(f"{mode}: index {index} at {(c.grw[index], c.grz[index])}, tower at {(c.grw[tower], c.grz[tower])}")
    on = set(iter_bits(cocycle))
    if any(sum(j in on for j in row) % 2 for row in quotient.targets):
        out.append(f"{mode}: the cocycle is odd on a boundary")
    boundary = bytearray(len(c))
    for j in iter_bits(cycle):
        for i in quotient.targets[j]:
            boundary[i] ^= 1
    if any(boundary):
        out.append(f"{mode}: the cycle has a boundary")
    for name, mask in (("cocycle", cocycle), ("cycle", cycle)):
        if {degree[i] for i in iter_bits(mask)} != {degree[tower]}:
            out.append(f"{mode}: the {name} is not in the tower's degree {degree[tower]} alone")
    if not (cocycle & direct.cycle()).bit_count() % 2:
        out.append(f"{mode}: the cocycle is even on the direct tower cycle")
    if not (cycle & direct.cocycle()).bit_count() % 2:
        out.append(f"{mode}: the cycle is even on the direct cocycle")
    return out
