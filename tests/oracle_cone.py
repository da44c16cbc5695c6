"""Cones assembled by hand: the reference for `fu.cone` and `fu.transfer`.

`model_cone` is the model of level s of C tensor St*_n (the program
builds level 0 only) and `involutive_cone` the cone of
1 + pi_0 iota iota_0 on M_0, each laid out block by block and arrow by
arrow, with its own shifts and projections, as `invariants._cone` and
`involutive.ai0_cone` built them before both
went through `fu`. Both read the splits that `invariants.level_split`
keeps on the complex, and `model_cone` the glue that `invariants._cone`
builds there, so call them after the program has built the same cone.
"""

from __future__ import annotations

from typing import List

from knotfloer.complexes import BigradedComplex, SkewMap, verify_chain_map
from knotfloer.errors import ValidationError
from knotfloer.fu import FUComplex
from knotfloer.invariants import level_split
from knotfloer.linalg import image, iter_bits

from fu_views import fu_cols


def model_cone(c: BigradedComplex, s: int, n: int) -> FUComplex:
    """A model of level s of C tensor St*_n."""
    models = [level_split(c, s + n - k).model for k in range(2 * n + 1)]
    glue = c.__dict__["_glue"]
    offsets = [0]
    gradings: List[int] = []
    cols: List[int] = []
    for k, model in enumerate(models):
        gradings.extend(r + k for r in model.gradings)
        cols.extend(col << offsets[k] for col in fu_cols(model))
        offsets.append(len(cols))
    for k in range(0, 2 * n + 1, 2):
        for b in (k - 1, k + 1):
            if 0 <= b <= 2 * n:
                base, shift = offsets[k], offsets[b]
                for m, col in enumerate(glue[s + n - k, s + n - b]):
                    cols[base + m] |= col << shift
    return FUComplex(gradings, list(map(iter_bits, cols)))


def involutive_cone(c: BigradedComplex, iota: SkewMap) -> FUComplex:
    """Cone of 1 + pi_0 iota iota_0 on the level-0 model M_0, Q of degree -1."""
    violation = verify_chain_map(iota)
    if violation is not None:
        raise ValidationError(f"involution fails verification: {violation}")
    split = level_split(c, 0)
    model, n = split.model, len(split.model)
    one_plus = [split.project(image(iota.cols, inc)) ^ (1 << m) for m, inc in enumerate(split.inc)]
    model_cols = fu_cols(model)
    cols = [col | (op << n) for col, op in zip(model_cols, one_plus)]
    cols += [col << n for col in model_cols]
    return FUComplex(model.gradings + tuple(r - 1 for r in model.gradings), list(map(iter_bits, cols)))
