"""The invariant engine.

Everything here reduces to exact linear algebra in a grading slice:

* the level-s subcomplex over GF(2)[T]: one basis element per generator,
  the minimal monomial U^i V^j x of Alexander level s with i, j >= 0 and
  min(i, j) = 0, graded by the grw of that monomial;
* correction terms: V_s is minus half the top tower grading of the
  level-s subcomplex, and the staircase-twisted variant Y_n applies V_0
  to the tensor with a dual staircase;
* tau is the Alexander grading of the tower generator of the U = 0
  reduction, which the knot-likeness check reduces anyway;
* nu / omega live in the UV = 0 quotient of the coefficient ring and
  are decided by affine feasibility with exact stabilization caps: once
  a grading slice is saturated, multiplication by the tower variable is
  an isomorphism of slices, so "for all powers" is decidable at a
  finite, provable cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import BigradedComplex, reduce_complex
from .errors import ConsistencyError, ValidationError
from .fu import FUComplex, tower_reduce
from .linalg import ColumnSolver, Echelon, LinearSystem, gap_guard, iter_bits, transpose


# --- level subcomplexes over GF(2)[T] --------------------------------------


@dataclass
class ALevel:
    """Level-s subcomplex: free GF(2)[T]-complex on the minimal monomials."""

    fu: FUComplex
    min_monomials: Tuple[Tuple[int, int], ...]
    level: int


def a_level_complex(c: BigradedComplex, s: int, *, check: bool = True) -> ALevel:
    """Subcomplex of Alexander level s with nonnegative exponents.

    Basis element for generator x: U^(A-s) x when A(x) >= s, else
    V^(s-A) x; grading is the grw of that monomial. Every entry x -> y of
    d rewrites as T^k times the basis element of y, with the T-power
    k = (g(y) - g(x) + 1) / 2 implied by the level gradings g, so the
    level complex shares the complex's own columns. Rejects complexes
    without rank-one localized towers.
    """
    if check and not is_knotlike(c):
        raise ValidationError("complex is not knot-like (localized tower rank != 1)")
    mins = tuple((a - s, 0) if a >= s else (0, s - a) for a in c.alexander)
    gradings = tuple(w - 2 * iu for w, (iu, _jv) in zip(c.grw, mins))
    guard = gap_guard(gradings)
    for i, col in enumerate(c.cols):
        bad = col & guard(gradings[i] - 1)
        if bad:
            j = (bad & -bad).bit_length() - 1
            raise ConsistencyError(f"level-{s} rewrite failed on {c.labels[i]} -> {c.labels[j]}")
    return ALevel(FUComplex(c.labels, gradings, c.cols), mins, s)


def d_invariant(level) -> int:
    """Top grading of a T-non-torsion homogeneous homology class."""
    fu = level.fu if isinstance(level, ALevel) else level
    red = tower_reduce(fu)
    if red.rank != 1:
        raise ValidationError(
            f"d-invariant undefined: localized homology has rank {red.rank}"
        )
    return red.top_grading()


@dataclass
class TowerCycle:
    grading: int
    terms: List[Tuple[int, int]]  # (basis index, T-power)


def tower_cycle(level: ALevel) -> TowerCycle:
    """A homogeneous non-torsion cycle generating the tower."""
    red = tower_reduce(level.fu, with_reps=True)
    if red.rank != 1:
        raise ValidationError(f"tower rank is {red.rank}, not 1")
    return TowerCycle(red.unpaired[0][1], red.reps[0])


# --- knot-likeness ----------------------------------------------------------


def _reduced(c: BigradedComplex, mode: str) -> FUComplex:
    """`reduce_complex(c, mode)`, built once per complex."""
    memo = c.__dict__.setdefault("_reduced", {})
    if mode not in memo:
        memo[mode] = reduce_complex(c, mode)
    return memo[mode]


def is_knotlike(c: BigradedComplex) -> bool:
    """True when both one-variable reductions have rank-one towers.

    Keeps the basis index of the U = 0 tower generator, which gives tau.
    """
    cached = c.__dict__.get("_knotlike")
    if cached is None:
        red_u0 = tower_reduce(_reduced(c, "U0"))
        rank_v0 = tower_reduce(_reduced(c, "V0")).rank
        cached = red_u0.rank == 1 and rank_v0 == 1
        if cached:
            c.__dict__["_tau_index"] = red_u0.indices[0]
        c.__dict__["_knotlike"] = cached
    return cached


# --- correction terms -------------------------------------------------------


def _correction_term(level: ALevel) -> int:
    """-d/2 of a level complex; its tower grading must be even."""
    d = d_invariant(level)
    if d % 2:
        raise ConsistencyError(f"tower grading {d} at level {level.level} is odd")
    return -d // 2


def v_invariant(c: BigradedComplex, s: int) -> int:
    """Correction term of the level-s subcomplex: -d/2 (memoized per complex)."""
    memo = c.__dict__.setdefault("_v", {})
    if s not in memo:
        memo[s] = _correction_term(a_level_complex(c, s))
    return memo[s]


def y_invariant(c: BigradedComplex, n: int) -> int:
    """V_0 of the tensor with the n-step dual staircase (memoized per complex).

    Knot-likeness is checked on the two factors only: a tensor product of
    knot-like complexes is knot-like (Kunneth over the localized ring).
    """
    from .builders import staircase_dual

    if n < 0:
        raise ValidationError("index must be nonnegative")
    if n == 0:
        return v_invariant(c, 0)
    memo = c.__dict__.setdefault("_y", {})
    if n not in memo:
        dual = staircase_dual(n)
        if not (is_knotlike(c) and is_knotlike(dual)):
            raise ValidationError("complex is not knot-like (localized tower rank != 1)")
        level = a_level_complex(c.tensor(dual), 0, check=False)
        memo[n] = _correction_term(level)
    return memo[n]


def _default_cap(c: BigradedComplex) -> int:
    return 4 * max(c.max_alexander(), 0) + 4


def nu_plus(c: BigradedComplex, cap: Optional[int] = None) -> int:
    """Minimal s >= 0 with V_s = 0."""
    limit = _default_cap(c) if cap is None else cap
    for s in range(limit + 1):
        if v_invariant(c, s) == 0:
            return s
    raise ConsistencyError(f"V_s did not vanish by the iteration cap {limit}")


def omega_plus(c: BigradedComplex, cap: Optional[int] = None) -> int:
    """Minimal n >= 0 with Y_n = 0."""
    limit = _default_cap(c) if cap is None else cap
    for n in range(limit + 1):
        if y_invariant(c, n) == 0:
            return n
    raise ConsistencyError(f"Y_n did not vanish by the iteration cap {limit}")


# --- invariants of the UV = 0 reduction -------------------------------------


def tau_invariant(c: BigradedComplex) -> int:
    """Alexander grading of the tower generator of the U = 0 reduction.

    The U = 0 reduction is a free GF(2)[V]-complex graded by grz. V keeps
    grw, so the tower lies in one grw, where A = (grw - grz) / 2: its top
    grz is the least Alexander level at which CF-hat has a non-torsion
    class, which is tau (Ozsvath-Szabo, Knot Floer homology and the
    four-ball genus). `is_knotlike` runs that reduction and keeps the
    unpaired generator, so no further reduction runs here.
    """
    if not is_knotlike(c):
        raise ValidationError("tau undefined: complex is not knot-like")
    return c.alexander[c.__dict__["_tau_index"]]


class HatSlices:
    """Bigrading slices of the UV = 0 reduction.

    Elements are pure monomials U^du x or V^dv x, keyed (gen index, du, dv)
    with du * dv = 0. The hat ring kills every mixed product, which makes
    the U- and V-actions partial shift maps.
    """

    def __init__(self, c: BigradedComplex):
        self.grw, self.grz = c.grw, c.grz
        self.no_u = _reduced(c, "U0").cols
        self.no_v = _reduced(c, "V0").cols
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
            for t in iter_bits(entries):
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
            for q in iter_bits(zvec):
                acc ^= phi[q]
            if acc:
                rep = acc
                break
        if rep is None:
            return None
        bits = rep
        for p in phi:
            bits |= p
        phi_rows = transpose(phi, bits.bit_length())
        return keys, [(phi_rows[bit], (rep >> bit) & 1) for bit in iter_bits(bits)]


def nu_hat(c: BigradedComplex) -> int:
    """Least level whose hat cycles hit the generator of the V = 1 quotient.

    nu is tau or tau + 1 (Hom-Wu), so only three levels are tested: tau - 1
    must miss, and the first of tau, tau + 1 to hit is nu. Any other
    outcome is a consistency failure, so the shortcut stays certified.
    """
    if not is_knotlike(c):
        raise ValidationError("nu undefined: complex is not knot-like")
    tau = tau_invariant(c)
    hits = _v1_class_test(c)
    if hits(tau - 1):
        raise ConsistencyError(f"level {tau - 1} hits the V = 1 class below tau = {tau}")
    for s in (tau, tau + 1):
        if hits(s):
            return s
    raise ConsistencyError(f"nu outside {{tau, tau+1}}, tau={tau}")


def _v1_class_test(c: BigradedComplex):
    """Predicate on s: does a level-s hat cycle map to the V = 1 generator?"""
    no_u = _reduced(c, "U0").cols  # also the differential with V = 1
    no_v = _reduced(c, "V0").cols
    im1 = Echelon(no_u)
    gen_class = None
    for combo in ColumnSolver(no_u).kernel:
        reduced = im1.reduce(combo)
        if reduced:
            gen_class = reduced
            break
    if gen_class is None:
        raise ValidationError("V = 1 reduction has trivial homology")
    alex = c.alexander
    quotient = [im1.reduce(1 << j) for j in range(len(alex))]

    def hits(s: int) -> bool:
        # The basis element of x is U^(A-s) x above level s and V^(s-A) x
        # below it; a hat entry survives when the product stays pure.
        cols = [
            no_v[j] if a > s else no_u[j] if a < s else no_u[j] | no_v[j]
            for j, a in enumerate(alex)
        ]
        # Only basis elements without a U-power survive in the V = 1 quotient.
        proj = [quotient[j] if a <= s else 0 for j, a in enumerate(alex)]
        images = Echelon()
        for z in ColumnSolver(cols).kernel:
            acc = 0
            for q in iter_bits(z):
                acc ^= proj[q]
            images.add(acc)
        return images.contains(gen_class)

    return hits


def omega_hat(c: BigradedComplex) -> int:
    """Staircase-mapping invariant of the UV = 0 reduction.

    tau when the joint cycle system is solvable at n = tau, else tau + 1;
    below tau = 0 the single-cycle system at n = 0 must be solvable. The
    fallback feasibility is verified rather than assumed.
    """
    tau = tau_invariant(c)
    slices = HatSlices(c)
    candidates = [n for n in (tau, tau + 1) if n >= 0] or [0]
    for n in candidates:
        if _omega_feasible(slices, n):
            return n
    raise ConsistencyError(
        f"omega dichotomy failed: no staircase map at n in {candidates}"
    )


def _omega_feasible(slices: HatSlices, n: int) -> bool:
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
        for row in transpose(slices.boundary_cols(zkeys[i], below), len(below)):
            if row:
                system.add_equation(row << zstart[i], 0)
    # staircase relations: U z_i + V z_(i-2) must bound
    for i in range(-n + 2, n + 1, 2):
        tgt = slices.slice(-n + i - 2, -n - i)
        wkeys = slices.slice(-n + i - 1, -n - i + 1)
        wstart = system.new_vars(len(wkeys)).start
        brows = transpose(slices.boundary_cols(wkeys, tgt), len(tgt))
        urows = transpose(slices.shift_cols(zkeys[i], tgt, 1, 0), len(tgt))
        vrows = transpose(slices.shift_cols(zkeys[i - 2], tgt, 0, 1), len(tgt))
        for b, u, v in zip(brows, urows, vrows):
            mask = (b << wstart) | (u << zstart[i]) | (v << zstart[i - 2])
            if mask:
                system.add_equation(mask, 0)
    return system.solve() is not None


# --- assembled table --------------------------------------------------------


@dataclass
class InvariantTable:
    v: Dict[int, int]
    y: Dict[int, int]
    nu_plus: int
    omega_plus: int
    tau: int
    nu_hat: int
    omega_hat: int

    def consistency_violations(self) -> List[str]:
        out = []
        for s, val in self.v.items():
            if s >= 0 and val < 0:
                out.append(f"V_{s} = {val} < 0")
            nxt = self.v.get(s + 1)
            if nxt is not None and not (nxt <= val <= nxt + 1):
                out.append(f"V_{s}={val}, V_{s+1}={nxt} breaks monotonicity")
        for n, val in self.y.items():
            nxt = self.y.get(n + 1)
            if nxt is not None and not (nxt <= val <= nxt + 1):
                out.append(f"Y_{n}={val}, Y_{n+1}={nxt} breaks monotonicity")
            vval = self.v.get(n)
            if vval is not None and vval > val:
                out.append(f"V_{n}={vval} > Y_{n}={val}")
        if 0 in self.v and 0 in self.y and self.v[0] != self.y[0]:
            out.append(f"Y_0={self.y[0]} != V_0={self.v[0]}")
        if self.nu_hat not in (self.tau, self.tau + 1):
            out.append(f"nu={self.nu_hat} outside {{tau, tau+1}}, tau={self.tau}")
        if self.tau >= 0 and self.omega_hat not in (self.tau, self.tau + 1):
            out.append(f"omega={self.omega_hat} outside {{tau, tau+1}}, tau={self.tau}")
        if self.tau < 0 and self.omega_hat != 0:
            out.append(f"omega={self.omega_hat} nonzero with tau={self.tau} < 0")
        if self.nu_hat > self.omega_hat:
            out.append(f"nu={self.nu_hat} > omega={self.omega_hat}")
        if self.nu_plus > self.omega_plus:
            out.append(f"nu+={self.nu_plus} > omega+={self.omega_plus}")
        return out


def compute_invariant_table(
    c: BigradedComplex,
    v_indices: Sequence[int] = (),
    y_indices: Sequence[int] = (),
    cap: Optional[int] = None,
) -> InvariantTable:
    """All integer invariants of one complex; raises on self-inconsistency."""
    nu_p = nu_plus(c, cap)
    omega_p = omega_plus(c, cap)
    v: Dict[int, int] = {}
    for s in sorted(set(range(nu_p + 1)) | set(v_indices)):
        v[s] = v_invariant(c, s)
    y: Dict[int, int] = {}
    for n in sorted(set(range(omega_p + 1)) | set(y_indices)):
        y[n] = y_invariant(c, n)
    table = InvariantTable(
        v=v,
        y=y,
        nu_plus=nu_p,
        omega_plus=omega_p,
        tau=tau_invariant(c),
        nu_hat=nu_hat(c),
        omega_hat=omega_hat(c),
    )
    problems = table.consistency_violations()
    if problems:
        raise ConsistencyError("; ".join(problems))
    return table
