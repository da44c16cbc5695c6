"""Complexes and maps as monomial terms, the form the tests write them in.

A term (source label, target label, u, v) is one entry U^u V^v target of
the image of source. The program holds only bitmask columns, since
homogeneity fixes every exponent from the gradings; these functions
translate between the two forms. `from_terms`, `map_from_terms` and
`skew_from_terms` check every term against the gradings, name an
unknown generator at once, a repeated generator id before any
inhomogeneous term, and the inhomogeneous terms together. `terms` lists
the entries of a map, or of a complex's differential, with the exponents
the gradings imply.

The reference format-1 reader (`oracle_io.load_complex_checked`) builds
its complexes here, so it shares no term code with the program's reader.
"""

from typing import Iterable, List, Sequence, Tuple

from knotfloer.complexes import BigradedComplex, ChainMap, Generator, SkewMap
from knotfloer.errors import ValidationError

# (source label, target label, u, v): one monomial term U^u V^v target.
Term = Tuple[str, str, int, int]


def from_terms(gens: Sequence[Tuple[str, int, int]], terms: Iterable[Term]) -> BigradedComplex:
    """Complex from (name, grw, grz) generator rows and monomial terms of d.

    Every term must carry the exponents its gradings imply; the
    inhomogeneous ones are reported together.
    """
    labels, grw, grz = [g[0] for g in gens], [g[1] for g in gens], [g[2] for g in gens]
    shape = BigradedComplex(labels, grw, grz, [0] * len(gens))
    dup = shape.repeated_label()
    if dup is not None:
        raise ValidationError(f"duplicate generator id {dup!r}")
    return BigradedComplex(labels, grw, grz, _columns_from_terms(shape.d, terms))


def map_from_terms(source, target, terms: Iterable[Term], bidegree) -> ChainMap:
    cols = _columns_from_terms(ChainMap(source, target, (), bidegree), terms)
    return ChainMap(source, target, cols, bidegree)


def skew_from_terms(c, terms: Iterable[Term]) -> SkewMap:
    return SkewMap(c, _columns_from_terms(SkewMap(c, ()), terms))


def _columns_from_terms(f: ChainMap, terms: Iterable[Term]) -> Tuple[int, ...]:
    """Columns of f from monomial terms; raises on every inhomogeneous one."""
    src_index, tgt_index = f.source.index, f.target.index
    bw, bz = f.bases
    cols = [0] * len(f.source)
    bad = []
    for src, tgt, u, v in terms:
        try:
            i, j = src_index[src], tgt_index[tgt]
        except KeyError as missing:
            raise ValidationError(f"term {src} -> {tgt}: {missing} is not a generator") from None
        if (f.target.grw[j] - bw[i], f.target.grz[j] - bz[i]) != (2 * u, 2 * v):
            bad.append(f.problem(i, j, u, v))
        cols[i] ^= 1 << j
    if bad:
        raise ValidationError(bad)
    return tuple(cols)


def exponents(f: ChainMap, i: int, j: int) -> Tuple[int, int]:
    """(u, v) of the entry from source i to target j."""
    bw, bz = f.bases
    return (f.target.grw[j] - bw[i]) // 2, (f.target.grz[j] - bz[i]) // 2


def terms(f) -> List[Term]:
    """Every entry of a map, or of a complex's differential, as (source label, target label, u, v), in index order."""
    if isinstance(f, BigradedComplex):
        f = f.d
    src, tgt = f.source.labels, f.target.labels
    return [
        (src[i], tgt[j], *exponents(f, i, j))
        for i, row in enumerate(f.targets)
        for j in row
    ]


def gen(c: BigradedComplex, name: str) -> Generator:
    return c.gens[c.index[name]]
