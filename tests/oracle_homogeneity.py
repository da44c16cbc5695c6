"""Entry-by-entry homogeneity scans: the oracle of `ChainMap.illegal_entries`.

`ChainMap.illegal_entries` reads the map's target lists and tests the
parity and sign of both doubled exponents at once, by OR-ing them. These
scans walk the column bits themselves, test each exponent on its own
from the exponent formulas, and list the faults in index order.
`validate_messages` rebuilds the violation list of
`BigradedComplex.validate` from them. A `FUComplex` checks nothing
itself, since the program builds only valid ones; `fu_illegal_entries`
and `fu_validate_messages` are the checks the tests run on them (natural
T-powers, d^2 = 0).
"""

from typing import List, Tuple

from knotfloer.complexes import BigradedComplex, ChainMap, SkewMap
from knotfloer.fu import FUComplex

from fu_views import fu_cols


def _bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def map_illegal_entries(f: ChainMap) -> List[Tuple[int, int]]:
    """(i, j) of each entry of f whose exponents are not nonnegative integers.

    A term U^u V^v y_j of f(x_i) has 2u = grw(y_j) - grw(x_i) - dw and
    2v = grz(y_j) - grz(x_i) - dz; a skew map has 2u = grw(y_j) - grz(x_i)
    and 2v = grz(y_j) - grw(x_i).
    """
    src, tgt = f.source, f.target
    dw, dz = f.bidegree
    out = []
    for i, col in enumerate(f.cols):
        if isinstance(f, SkewMap):
            w, z = src.grz[i], src.grw[i]
        else:
            w, z = src.grw[i] + dw, src.grz[i] + dz
        for j in _bits(col):
            two_u, two_v = tgt.grw[j] - w, tgt.grz[j] - z
            if two_u < 0 or two_v < 0 or two_u % 2 or two_v % 2:
                out.append((i, j))
    return out


def fu_illegal_entries(fu: FUComplex) -> List[Tuple[int, int]]:
    """(j, i) of each entry j -> i whose T-power (r_i - r_j + 1) / 2 is not a natural number."""
    r = fu.gradings
    return [
        (j, i)
        for j, col in enumerate(fu_cols(fu))
        for i in _bits(col)
        if r[i] - r[j] + 1 < 0 or (r[i] - r[j] + 1) % 2
    ]


def _square(cols, col: int) -> int:
    out = 0
    for k in _bits(col):
        out ^= cols[k]
    return out


def validate_messages(c: BigradedComplex) -> List[str]:
    """The violations `BigradedComplex.validate` lists, in its order."""
    out = [
        f"generator {g.name!r}: grw-grz = {g.grw - g.grz} is odd, Alexander grading is not an integer"
        for g in c.gens
        if (g.grw - g.grz) % 2
    ]
    d = c.d
    out += [d.problem(i, j) for i, j in map_illegal_entries(d)]
    for i, col in enumerate(c.cols):
        for k in _bits(_square(c.cols, col)):
            two_u = c.grw[k] - c.grw[i] + 2
            two_v = c.grz[k] - c.grz[i] + 2
            if two_u < 0 or two_v < 0 or two_u % 2 or two_v % 2:
                # No monomial: only the target is named, as for an entry of d.
                out.append(f"d^2({c.labels[i]}) has term {c.labels[k]}")
            else:
                out.append(f"d^2({c.labels[i]}) has term U^{two_u // 2}V^{two_v // 2}*{c.labels[k]}")
    return out


def fu_validate_messages(fu: FUComplex) -> List[str]:
    """Every entry without a natural T-power, then every basis element where d^2 != 0."""
    r = fu.gradings
    out = [
        f"entry #{j} -> #{i}: grading gap {r[j]} -> {r[i]} admits no T-power"
        for j, i in fu_illegal_entries(fu)
    ]
    cols = fu_cols(fu)
    out += [f"d^2 != 0 on basis element #{j}" for j, col in enumerate(cols) if _square(cols, col)]
    return out
