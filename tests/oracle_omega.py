"""Affine omega system, kept as an oracle for `invariants.omega_hat`.

The program decides "is there a staircase map at n" by one hat-cycle
test on the level-0 complex of C tensor the n-step dual staircase,
against dual-tower cocycles. This oracle shares none of that: it writes
the staircase map out variable block by variable block in the bigrading
slices of the UV = 0 quotient, pins its two end cycles to the
non-torsion cosets by pushing them deep into a saturated slice (where
multiplication by the tower variable is an isomorphism of slices), and
solves the whole system with a `LinearSystem`.
"""

from typing import Dict, List, Tuple

from knotfloer.complexes import BigradedComplex, reduce_complex
from knotfloer.linalg import LinearSystem, transpose

from echelon import ColumnSolver, Echelon, set_bits
from fu_views import fu_cols


def _rows(cols: List[int], nrows: int) -> List[int]:
    """The rows of an nrows-row bitmask matrix: the columns of its transpose."""
    return transpose([set_bits(col) for col in cols], nrows)[0]


class HatSlices:
    """Bigrading slices of the UV = 0 reduction.

    Elements are pure monomials U^du x or V^dv x, keyed (gen index, du, dv)
    with du * dv = 0. The hat ring kills every mixed product, which makes
    the U- and V-actions partial shift maps.
    """

    def __init__(self, c: BigradedComplex):
        self.grw, self.grz = c.grw, c.grz
        self.no_u = fu_cols(reduce_complex(c, "U0"))
        self.no_v = fu_cols(reduce_complex(c, "V0"))
        self._cache: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}

    def slice(self, w: int, z: int) -> List[Tuple[int, int, int]]:
        key = (w, z)
        if key not in self._cache:
            out = []
            for i, (gw, gz) in enumerate(zip(self.grw, self.grz)):
                if gz == z and gw >= w and (gw - w) % 2 == 0:
                    out.append((i, (gw - w) // 2, 0))
                if gw == w and gz > z and (gz - z) % 2 == 0:
                    out.append((i, 0, (gz - z) // 2))
            self._cache[key] = sorted(out)
        return self._cache[key]

    def boundary_cols(self, keys, target_keys) -> List[int]:
        pos = {k: m for m, k in enumerate(target_keys)}
        grw, grz = self.grw, self.grz
        cols = []
        for i, du, dv in keys:
            # U^du V^dv times an entry stays pure only when the entry has no
            # V (du > 0), no U (dv > 0), or is pure itself (du = dv = 0).
            entries = self.no_v[i] if du else self.no_u[i] if dv else self.no_u[i] | self.no_v[i]
            mask = 0
            for t in set_bits(entries):
                u = (grw[t] - grw[i] + 1) // 2
                v = (grz[t] - grz[i] + 1) // 2
                mask ^= 1 << pos[(t, du + u, dv + v)]
            cols.append(mask)
        return cols

    def shift_cols(self, keys, target_keys, du: int, dv: int) -> List[int]:
        """Multiplication by U^du V^dv; mixed results die."""
        pos = {k: m for m, k in enumerate(target_keys)}
        cols = []
        for i, u0, v0 in keys:
            nu, nv = u0 + du, v0 + dv
            if nu > 0 and nv > 0:
                cols.append(0)
            else:
                cols.append(1 << pos[(i, nu, nv)])
        return cols

    def saturation_cap(self, w: int, z: int, variable: str) -> int:
        """Power beyond which the shifted slices are all saturated."""
        if variable == "v":
            floor = min(self.grz)
            return max(1, (z - floor) // 2 + 2)
        floor = min(self.grw)
        return max(1, (w - floor) // 2 + 2)

    def nontorsion_rows(self, w: int, z: int, variable: str):
        """Affine rows pinning a cycle at (w, z) to the non-torsion coset.

        `variable` is "v" or "u": which tower must survive. None when no
        non-torsion cycle lives at this bigrading.
        """
        cap = self.saturation_cap(w, z, variable)
        if variable == "v":
            dw_, dz_ = w, z - 2 * cap
            shift = (0, cap)
        else:
            dw_, dz_ = w - 2 * cap, z
            shift = (cap, 0)
        deep = self.slice(dw_, dz_)
        im = Echelon(self.boundary_cols(self.slice(dw_ + 1, dz_ + 1), deep))
        keys = self.slice(w, z)
        shifted = self.shift_cols(keys, deep, *shift)
        phi = [im.reduce(v) for v in shifted]
        below = self.slice(w - 1, z - 1)
        cycles = ColumnSolver(self.boundary_cols(keys, below)).kernel
        rep = None
        for zvec in cycles:
            acc = 0
            for q in set_bits(zvec):
                acc ^= phi[q]
            if acc:
                rep = acc
                break
        if rep is None:
            return None
        bits = rep
        for p in phi:
            bits |= p
        phi_rows = _rows(phi, bits.bit_length())
        return keys, [(phi_rows[bit], (rep >> bit) & 1) for bit in set_bits(bits)]


def omega_feasible(c: BigradedComplex, n: int) -> bool:
    """Is there a staircase map St_n -> C/(UV) with non-torsion ends?"""
    slices = HatSlices(c)
    # Each variable block is a contiguous range, so a row over a block is
    # a row of the transposed columns shifted to the block's start.
    system = LinearSystem()
    zstart: Dict[int, int] = {}
    zkeys: Dict[int, List[Tuple[int, int, int]]] = {}
    for i in range(-n, n + 1, 2):
        keys = slices.slice(-n + i, -n - i)
        zkeys[i] = keys
        zstart[i] = system.new_vars(len(keys)).start
    # end conditions: the extreme cycles must be non-torsion
    v_rows = slices.nontorsion_rows(0, -2 * n, "v")
    u_rows = slices.nontorsion_rows(-2 * n, 0, "u")
    if v_rows is None or u_rows is None:
        return False
    for mask_pos, rhs in v_rows[1]:
        system.add_equation(mask_pos << zstart[n], rhs)
    for mask_pos, rhs in u_rows[1]:
        system.add_equation(mask_pos << zstart[-n], rhs)
    # cycle conditions
    for i in range(-n, n + 1, 2):
        below = slices.slice(-n + i - 1, -n - i - 1)
        for row in _rows(slices.boundary_cols(zkeys[i], below), len(below)):
            if row:
                system.add_equation(row << zstart[i], 0)
    # staircase relations: U z_i + V z_(i-2) must bound
    for i in range(-n + 2, n + 1, 2):
        tgt = slices.slice(-n + i - 2, -n - i)
        wkeys = slices.slice(-n + i - 1, -n - i + 1)
        wstart = system.new_vars(len(wkeys)).start
        brows = _rows(slices.boundary_cols(wkeys, tgt), len(tgt))
        urows = _rows(slices.shift_cols(zkeys[i], tgt, 1, 0), len(tgt))
        vrows = _rows(slices.shift_cols(zkeys[i - 2], tgt, 0, 1), len(tgt))
        for b, u, v in zip(brows, urows, vrows):
            mask = (b << wstart) | (u << zstart[i]) | (v << zstart[i - 2])
            if mask:
                system.add_equation(mask, 0)
    return system.solve() is not None
