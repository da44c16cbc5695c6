"""The full-width passes that a split's model and the hat ends no longer make: oracles of `fu` and `invariants`.

`fu.Reduction` builds its minimal model from the pairs it keeps, and
`invariants._end` cuts each probe by walking its cocycle's own set
bits. These are the definitions they replaced, each a pass over every
position or generator:

* `reference_kept`: every position outside the contractible pairs
  (k = 0), by a scan of all positions against the set of theirs;
* `reference_model`: the model with one entry appended for every pair
  whose row is kept;
* `reference_hat_ends`: the hat ends with each probe the cocycle ANDed
  with a `flag_mask` over all generators.
"""

from typing import FrozenSet, List, Tuple

from knotfloer.fu import FUComplex, Reduction
from knotfloer.invariants import _quotient, level_split
from knotfloer.linalg import flag_mask


def reference_kept(split: Reduction) -> List[int]:
    order, gradings = split.order, split.fu.gradings
    contractible = set()
    for row, col in split.pairs.items():
        if gradings[order[row]] == gradings[order[col]] - 1:
            contractible.update((row, col))
    return [p for p in range(len(order)) if p not in contractible]


def reference_model(split: Reduction) -> FUComplex:
    order, gradings, kept = split.order, split.fu.gradings, reference_kept(split)
    coord = [-1] * len(order)
    for m, p in enumerate(kept):
        coord[p] = m
    targets = [[] for _ in kept]
    for row, col in split.pairs.items():
        if coord[row] >= 0:
            targets[coord[col]].append(coord[row])
    return FUComplex([gradings[order[p]] for p in kept], targets)


def reference_hat_ends(c, split: Reduction, s: int, n: int) -> FrozenSet[Tuple[int, int]]:
    (u0_tower, phi_u, _), phi_v = _quotient(c, "U0"), _quotient(c, "V0")[1]
    g = c.grw[u0_tower]
    first, last = level_split(c, s + n), level_split(c, s - n)
    v1_probe = phi_u & flag_mask(a <= s + n for a in c.alexander)
    u1_probe = phi_v & flag_mask(a >= s - n for a in c.alexander)
    gradings = split.fu.gradings
    end = len(gradings) - len(last.inc)
    v1_end = flag_mask(h == g and (inc & v1_probe).bit_count() & 1 for h, inc in zip(gradings, first.inc))
    u1_end = flag_mask(h == g and (inc & u1_probe).bit_count() & 1 for h, inc in zip(gradings[end:], last.inc)) << end
    basis = (inc for inc, h in zip(split.inc, split.model.gradings) if h == g)
    return frozenset(((z & v1_end).bit_count() & 1, (z & u1_end).bit_count() & 1) for z in basis)
