"""The chain conditions checked the plain way: the oracle of the chain kernel.

`complexes.chain_violation` XORs both sides of d f = f d into one
accumulator per generator, over the target lists of f and of d
(`ChainMap.targets`). Here each side is its own matrix-vector product
over the raw columns, lowest bit first, and the two are compared, as
the program did before; d^2 is one such product per generator. Both return the index of the first generator that fails.
"""

from typing import Optional, Sequence

from knotfloer.complexes import BigradedComplex, ChainMap


def _product(cols: Sequence[int], mask: int) -> int:
    """XOR of the columns that mask selects."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= cols[low.bit_length() - 1]
        mask ^= low
    return out


def first_chain_failure(f: ChainMap) -> Optional[int]:
    """The first source index i with d f(x_i) != f d(x_i), or None."""
    fcols, dtgt = f.cols, f.target.cols
    for i, (fcol, dcol) in enumerate(zip(fcols, f.source.cols)):
        if _product(dtgt, fcol) != _product(fcols, dcol):
            return i
    return None


def first_square_failure(c: BigradedComplex) -> Optional[int]:
    """The first index i with d^2(x_i) != 0, or None."""
    return next((i for i, col in enumerate(c.cols) if _product(c.cols, col)), None)
