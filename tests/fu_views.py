"""Views of a `knotfloer.fu` complex and of its reduction that only the tests read.

The program stores a `FUComplex` as target lists, and a `Reduction` as
its basis (`vectors`, in position space) with the position tables
`order` and `pos`; these functions give the same data in the forms the
tests compare. They read attributes only and import nothing from
`knotfloer`.
"""

from typing import List, Tuple

from echelon import set_bits


def fu_cols(fu) -> Tuple[int, ...]:
    """The columns of fu as bitmasks of row indices, built from its target lists."""
    out = []
    for row in fu.targets:
        col = 0
        for j in row:
            col |= 1 << j
        out.append(col)
    return tuple(out)


def tower_terms(red, t: int = 0) -> List[Tuple[int, int]]:
    """Tower t's basis vector of a reduction as (basis index, T-power) terms, ascending.

    The vector is homogeneous at its tower's top grading, so the term of
    index i carries T^((g_i - top) / 2).
    """
    order, gradings = red.order, red.fu.gradings
    p = red.pos[red.indices[t]]
    top = gradings[order[p]]
    return sorted((order[q], (gradings[order[q]] - top) // 2) for q in set_bits(red.vectors[p]))
