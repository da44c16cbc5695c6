"""The invariant engine.

Everything here reduces to exact linear algebra over GF(2):

* the level-s subcomplex A_s over GF(2)[T]: one basis element per
  generator, the minimal monomial U^i V^j x of Alexander level s with
  i, j >= 0 and min(i, j) = 0, graded by the grw of that monomial. Its
  tower reduction splits it (`fu.Reduction`): the minimal model M_s,
  the inclusion iota_s: M_s -> A_s and the projection pi_s: A_s -> M_s;
* correction terms: V_s is minus half the top tower grading of A_s, and
  Y_n is V_0 of C tensor the dual staircase St*_n. Level 0 of that
  tensor is the levels A_n(C), ..., A_-n(C) side by side, glued by the
  staircase arrows from its even blocks to its odd ones: a mapping cone,
  which the models replace up to homotopy (`_cone`);
* tau is the Alexander grading of the tower generator of the U = 0
  reduction, which the knot-likeness check reduces anyway;
* nu and omega live in the UV = 0 quotient, the complexes with T = 0
  (hat complexes): of M_s for nu and of the model cone of level 0 of C
  tensor St*_n for omega. Each asks whether a hat cycle maps to the
  generator of the V = 1 complex (and, for omega, of the U = 1 complex
  too), read through iota. One cocycle per quotient answers that by a
  parity: the tower's coordinate functional, with T = 1.

Each complex keeps the tower index, cocycle and tower cycle of each
quotient (`_quotient`), and only an atom (a torus knot, HW or a file)
reduces them: a sum gets both from its summands' when it is built
(Kunneth, `connected_sum`), and a mirror from its child's (universal
coefficients, `release_to_dual`); each inherits its parts' reversal symmetry.
An atom's V = 0 quotient is read off its U = 0 one through index
reversal when that is a skew chain automorphism, as on every torus
knot and on HW: it swaps U with V and grw with grz, so it carries one
quotient onto the other.

The readers split along two axes. V_s and nu read the split of level s
(`level_split`): its tower top, and its model's hat ends through iota_s
(`_end`); they build no cone. Y_n and omega read level 0 of C tensor
St*_n, one visit per n (`_level`): the tower top of its model cone and,
at the n omega tests, the end parities of its hat homology. Each
complex keeps the split of every level it builds, so a level is built
and reduced once for V_s, Y_n, nu and omega, and the glue into each odd
block of a Y_n cone. The first cone to read the glue into a level
builds it (`_cone`) and drops that level's basis, keeping its towers,
model and iota; level 0 keeps its basis for the involution. The Y
ladder runs first, so each level the V ladder reads was split in a cone
before, and dropped there unless it is 0 or ends the ladder. All four
memos last until `release`.

The same reversal sigma halves the level splits. It swaps grw with grz
and so negates A: level -s is level s under sigma with every grading
lowered by 2s. So when sigma is a skew chain automorphism of c, the
split of level s > 0 also gives that of -s, with the same pairs and
basis at reflected indices and its towers lowered by 2s
(`Reduction.reflected`), and a negative level is never built or
reduced. The glue between two negative levels is their positive twins'
(`_cone`). Level 0, and every level of any other complex, is reduced
directly; that route is the oracle the tests hold the sigma route to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .complexes import BigradedComplex, reduce_complex
from .errors import ConsistencyError, ValidationError
from .fu import FUComplex, Reduction, cone, tower_reduce, transfer
from .linalg import flag_mask, iter_bits, spread

MODES = ("U0", "V0")


# --- level subcomplexes over GF(2)[T] --------------------------------------


def a_level_complex(c: BigradedComplex, s: int) -> FUComplex:
    """Level s of C: the subcomplex A_s over GF(2)[T].

    Basis element for generator x: U^(A-s) x when A(x) >= s, else
    V^(s-A) x, graded by the grw of that monomial. Every entry x -> y of d
    is T^k times the basis element of y, with k = (g(y) - g(x) + 1) / 2
    implied by the level gradings g, so a level shares C's own target
    lists (`BigradedComplex.targets`), and its `label_order` as ties. Rejects complexes without rank-one
    localized towers.

    Every k is a natural number, so a level is not checked itself. Take
    an entry x -> U^u V^v y of C with u, v >= 0, and basis elements
    U^a_x V^b_x x and U^a_y V^b_y y. d preserves A, so
    u + a_x - a_y = v + b_x - b_y = k, and min(a_y, b_y) = 0 makes k
    equal to u + a_x or to v + b_x, natural either way. The premise,
    natural exponents on every entry of C, is checked once per complex
    by `is_knotlike`.
    """
    if not is_knotlike(c):
        raise ValidationError("complex is not knot-like (localized tower rank != 1)")
    gradings = [w - 2 * (a - s) if a > s else w for w, a in zip(c.grw, c.alexander)]
    return FUComplex(gradings, c.targets, ties=c.label_order)


def level_split(c: BigradedComplex, s: int) -> Reduction:
    """The split of level s into towers and pairs (`fu.Reduction`), built once per complex.

    Its tower gives V_s and the level-0 tower cycle; its model M_s and
    iota_s give nu (`_end`), and with pi_s the cones of Y_n and omega. pi_s is read
    only by the glue into s (`_cone`, which then drops the basis) and, at
    level 0, by the involution (`involutive.ai0_cone`).

    When c is reversal-symmetric, level -s is stored with level s > 0
    (`Reduction.reflected`) and never built; level 0, and every level of
    any other complex, is reduced directly.
    """
    memo = c.__dict__.setdefault("_splits", {})
    if s not in memo:
        if s < 0 and c.reversal_symmetric:
            level_split(c, -s)
        else:
            memo[s] = tower_reduce(a_level_complex(c, s))
            if s > 0 and c.reversal_symmetric:
                memo[-s] = memo[s].reflected(-2 * s)
    return memo[s]


def release(c: BigradedComplex) -> None:
    """Drop c's memos (quotients, splits, glue, visits), rebuilt on a later read; c is freed at its last reference."""
    for key in ("_quotients", "_splits", "_glue", "_levels"):
        c.__dict__.pop(key, None)


def _cone(c: BigradedComplex, n: int) -> FUComplex:
    """A model of level 0 of C tensor St*_n, read by Y_n and omega.

    x(k - n) sits at bigrading (k, 2n - k), so block k = 0..2n of the level
    is A_(n-k)(C) raised by k, and generator k of St*_n maps by V to k - 1
    and by U to k + 1 when k is even: the level is the cone of f from its
    even blocks to its odd ones. f, U or V on every generator, is the
    identity on C's indices, with natural T-powers implied by the gradings.
    The model cone (`fu.cone`) has M_(n-k) for block k, glued by
    pi f iota. For n = 0 it is M_0, in a cone of its own, so Y_0 = V_0
    compares two reductions.

    The levels are split in block order. Once the block after odd block
    b is split, the glue into b from its two neighbours is built, if no
    earlier cone built it, and b's level, unless it is 0, drops its basis
    (`Reduction.drop_basis`): only that glue and level 0's involution
    project onto a level.

    On a reversal-symmetric c the glue between two negative levels is
    that of their positive twins: the two splits are the twins' at
    reflected indices (`Reduction.reflected`), so both models have the
    same generators, and pi_t iota_s reads the same positions. The twins
    are the mirror blocks, split earlier in the same cone, so their glue
    is built.
    """
    levels = [n - k for k in range(2 * n + 1)]
    glue, splits = c.__dict__.setdefault("_glue", {}), [level_split(c, n)]
    for b in range(1, 2 * n, 2):
        splits += [level_split(c, levels[b]), level_split(c, levels[b + 1])]
        for a in (b - 1, b + 1):
            key = levels[a], levels[b]
            if key not in glue:
                aliased = max(key) < 0 and c.reversal_symmetric
                glue[key] = glue[-key[0], -key[1]] if aliased else transfer(splits[a], splits[b])
        if levels[b]:
            splits[b].drop_basis()
    arrows = [(k, b, glue[levels[k], levels[b]]) for b in range(1, 2 * n, 2) for k in (b - 1, b + 1)]
    return cone([(split.model, k) for k, split in enumerate(splits)], arrows)


# --- knot-likeness ----------------------------------------------------------


def _quotient(c: BigradedComplex, mode: str) -> Optional[Tuple[int, int, int]]:
    """(tower index, cocycle, tower cycle) of `reduce_complex(c, mode)`, or None unless it has one tower.

    Mode "U0" gives the V = 1 complex, "V0" the U = 1 complex; the
    dropped grading (grw for "U0", grz for "V0") is the quotient's degree.
    The cocycle and the cycle are bitmasks of generators. Setting T = 1
    kills the torsion of a free GF(2)[T]-complex and leaves one GF(2) of
    the tower, so a cycle z of that complex represents its generator
    exactly when z & cocycle has odd weight, and any two cocycles odd on
    one nonzero cycle are cohomologous and pair alike with every cycle.
    The readers take the index's gradings only, and the cocycle only as
    that parity, sliced by degree (`_hat_ends`). So an entry serves when
    its index has the gradings of the tower generator, its cocycle and
    cycle are a cocycle and a cycle at T = 1 in the tower's degree, and
    they pair to 1. A sum built by `connected_sum` and a dual built by
    `release_to_dual` get theirs when built; any other complex gets each
    entry from one of the two routes below, once per mode. A derived
    index may differ from the direct route's, which breaks grading ties
    by label.

    Direct: `tower_reduce` of the quotient, with `Reduction.cocycle` and
    `Reduction.cycle`. Every basis vector of that reduction lies in one
    degree, since its columns drop the degree by one and the reduction
    adds only columns that share a pivot row, and `Reduction.cocycle`
    adds a position only where it meets a basis vector, so it never
    leaves the tower's degree.

    Index reversal, for the V = 0 quotient when index reversal sigma is a
    skew chain automorphism of c (`BigradedComplex.reversal_symmetric`,
    true of every torus knot and of HW). sigma swaps grw with grz and U
    with V, so it maps the U = 0 quotient onto the V = 0 quotient,
    gradings and degrees included: it takes the tower generator i to
    n - 1 - i, at the same grading, and the cocycle and the cycle to
    their bit reversals.
    """
    memo = c.__dict__.setdefault("_quotients", {})
    if mode not in memo:
        if mode == "V0" and c.reversal_symmetric:
            n, quotient = len(c), _quotient(c, "U0")
            memo[mode] = quotient and (n - 1 - quotient[0], *(_reversed(mask, n) for mask in quotient[1:]))
        else:
            red = tower_reduce(reduce_complex(c, mode))
            memo[mode] = (red.indices[0], red.cocycle(), red.cycle()) if red.rank == 1 else None
    return memo[mode]


def _reversed(mask: int, n: int) -> int:
    """mask with bit i moved to bit n - 1 - i."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def connected_sum(left: BigradedComplex, right: BigradedComplex) -> BigradedComplex:
    """left.tensor(right), with both quotient entries read off the summands' (Kunneth, `_quotient`).

    With m = |right|, generator (i, j) is at index i * m + j. An entry
    of the sum keeps its killed variable's exponent from its factor, so
    each quotient of the sum is the tensor of the summands' over the
    other variable's ring, a PID. There H(C tensor S) is H(C) tensor
    H(S) plus a Tor term that is torsion, so modulo torsion it is the
    tensor of the two towers: one tower exactly when each summand has
    one, and the entry is None exactly when a summand's is. Its
    generator is the tensor of theirs, at the summed gradings, so index
    i * m + j serves. At T = 1 the quotient is the tensor over GF(2) of
    the summands', where the tensor of two cocycles is a cocycle
    (delta(phi x psi) = delta phi x psi + phi x delta psi), that of two
    cycles a cycle, and they pair to 1 x 1, all in the sum of the
    summands' degrees. Each is a mask Kronecker product, `spread(x, m) * y`,
    whose shifted copies of y fill disjoint blocks of bits. A nested sum
    reads the entries its inner sums got when built, so only atoms are reduced.

    The sum is reversal-symmetric when both summands are: sigma_N(i * m
    + j) = sigma_C(i) * m + sigma_S(j) swaps grw and grz factor by
    factor, and sigma_C x sigma_S commutes with d x 1 + 1 x d.
    """
    m, quotients = len(right), {}
    for mode in MODES:
        a, b = _quotient(left, mode), _quotient(right, mode)
        if a and b:
            (i, phi, z), (j, psi, w) = a, b
            quotients[mode] = (i * m + j, spread(phi, m) * psi, spread(z, m) * w)
        else:
            quotients[mode] = None
    c = left.tensor(right)
    c.__dict__["_quotients"] = quotients
    if left.reversal_symmetric and right.reversal_symmetric:
        c.__dict__["reversal_symmetric"] = True
    return c


def release_to_dual(c: BigradedComplex) -> BigradedComplex:
    """c.dual(), with its quotients read off c's; c's memos are released before the dual is built.

    Universal coefficients: each quotient of the dual C* is the transpose
    of C's, with negated gradings, over the same ring. Its homology is
    Hom(H(C)) plus an Ext term that is torsion, so C* has one tower
    exactly when C has, topped at minus C's top: C's index serves. At
    T = 1 the transpose's cycles are C's cocycles and its cocycles C's
    cycles, so the dual's entry is C's with cocycle and cycle swapped.
    They stay in one degree, negated, and still pair to 1. The dual of a
    reversal-symmetric c is reversal-symmetric: sigma swaps the negated
    gradings, and the transpose of a matrix that commutes with the
    permutation sigma commutes with it. Every mirror the program builds,
    a mirrored summand or the report's, comes from here.
    """
    quotients = {}
    for mode in MODES:
        entry = _quotient(c, mode)
        quotients[mode] = entry and (entry[0], entry[2], entry[1])
    release(c)
    dual = c.dual()
    dual.__dict__["_quotients"] = quotients
    if c.reversal_symmetric:
        dual.__dict__["reversal_symmetric"] = True
    return dual


def is_knotlike(c: BigradedComplex) -> bool:
    """True when both one-variable reductions have rank-one towers.

    `_quotient` keeps the tower index, cocycle and cycle of each: the
    U = 0 tower gives tau, `require_knot_complex` reads the gradings of
    both, and nu and omega pair with the cocycles. First checks the premise of
    every reduction and level complex here, that each entry of d has
    natural exponents, and raises `ValidationError` naming each entry
    that does not.
    """
    if c.illegal_terms:
        raise ValidationError(c.illegal_terms)
    return _quotient(c, "U0") is not None and _quotient(c, "V0") is not None


def _require_tower_at_zero(c: BigradedComplex) -> None:
    """Raise `ValidationError` unless c is knot-like with its U = 0 tower at grw = 0 and its V = 0 tower at grz = 0."""
    if not is_knotlike(c):
        raise ValidationError("complex is not knot-like (localized tower rank != 1)")
    for mode, tower, name, grading in (("U0", "U = 0", "grw", c.grw), ("V0", "V = 0", "grz", c.grz)):
        idx = _quotient(c, mode)[0]
        if grading[idx]:
            raise ValidationError(f"the {tower} tower generator {c.labels[idx]!r} has {name} = {grading[idx]}, not 0")


def require_knot_complex(c: BigradedComplex) -> None:
    """Raise `ValidationError` unless c is knot-like with a knot's towers.

    The complex of a knot in S^3 has its U = 0 tower at grw = 0 and its
    V = 0 tower at grz = 0 (both compute HF-hat(S^3)), and its graded
    Euler characteristic sum (-1)^grw t^A is the Alexander polynomial,
    which is symmetric under A -> -A. A shifted or asymmetric complex can
    be knot-like, but its nu and omega need not lie in {tau, tau + 1}.
    These are necessary conditions only; the complex itself may still be asymmetric.
    """
    _require_tower_at_zero(c)
    chi = Counter()
    for w, a in zip(c.grw, c.alexander):
        chi[a] += -1 if w % 2 else 1
    for a in sorted(chi, reverse=True):
        if chi[a] != chi[-a]:
            raise ValidationError(f"graded Euler characteristic is not symmetric: coefficient "
                                  f"{chi[a]} at Alexander grading {a}, {chi[-a]} at {-a}")


# --- the level visit --------------------------------------------------------


def _candidates(c: BigradedComplex) -> Tuple[int, ...]:
    """The staircase sizes omega tests at level 0 (Hom-Wu): tau and tau + 1 when tau >= 0, and 0 below."""
    tau = tau_invariant(c)
    return tuple(n for n in (tau, tau + 1) if n >= 0) or (0,)


def _level(c: BigradedComplex, n: int) -> Tuple[int, Optional[FrozenSet[Tuple[int, int]]]]:
    """(tower top d, hat ends or None) of level 0 of C tensor St*_n, read once per complex.

    Both are read off the split of the model cone (`_cone`): d by Y_n, and
    the hat ends, only at the n omega tests, by omega.
    """
    memo = c.__dict__.setdefault("_levels", {})
    if n not in memo:
        # The cone first, so a complex that is not knot-like fails the level's own check, not tau's.
        split = tower_reduce(_cone(c, n))
        memo[n] = split.top_grading(), _hat_ends(c, split, n) if n in _candidates(c) else None
    return memo[n]


def _end(c: BigradedComplex, mode: str, s: int, g: int) -> int:
    """The grading-g generators of M_s whose image under iota_s hits the `mode` quotient's generator, as a mask.

    The probe is that quotient's cocycle (`_quotient`) cut to level s's
    Alexander range: A <= s for "U0", read in the V = 1 complex, which
    drops the U-powers of V^(s-A) x, and A >= s for "V0", in the U = 1
    complex, on U^(A-s) x. It needs no level grading: every route of
    `_quotient` keeps phi_U at the grw of its tower, the level grading of
    V^(s-A) x, and phi_V at the grz of its tower, U^(A-s) x being at grz + 2s.

    M_s has no T^0 entries and iota_s stays a homotopy equivalence at
    T = 0, so the grading-g generators, read through iota_s, are a basis
    of grading-g hat homology of A_s, and the probe's functional vanishes
    on boundaries. At "U0" and g the grw of the U = 0 tower, the mask is
    nonzero exactly when a hat cycle of A_s hits the V = 1 generator (`nu_hat`).
    """
    phi = probe = _quotient(c, mode)[1]
    alexander = c.alexander
    # Cut by walking the cocycle's own bits, which cost its weight, not a pass over every generator.
    for i in iter_bits(phi):
        if (alexander[i] > s) if mode == "U0" else (alexander[i] < s):
            probe ^= 1 << i
    split = level_split(c, s)
    return flag_mask(h == g and (inc & probe).bit_count() & 1 for h, inc in zip(split.model.gradings, split.inc))


def _hat_ends(c: BigradedComplex, split: Reduction, n: int) -> FrozenSet[Tuple[int, int]]:
    """End parities (v1, u1) of a basis of grading-g hat homology of the model cone of St*_n (`_cone`), given its split.

    g is the grw of the U = 0 tower generator. As on M_s (`_end`), the
    split's grading-g model generators, read through its inclusion, are a
    basis of hat homology. At g = 0 a hat cycle of level 0 of C tensor
    St*_n is a degree-0 chain map St_n -> C/(UV) whose ends y(-n), y(n)
    are its blocks 0 and 2n, M_n and M_-n raised by 2n: v1 is 1 when
    block 0 hits the V = 1 generator, and u1 when block 2n hits the U = 1
    generator, read on M_-n at grading g - 2n, which meets phi_V when the
    V = 0 tower is at grz = g: u1 is read only by `omega_hat`, once both
    towers are at 0. Blocks 0 and 2n are even, in E, where the homotopy
    equivalence from the model cone to the level (`fu`) is iota_E, also
    at T = 0: so a basis of the cone's hat homology spans the level's end
    pairs, all that `_admits_map` reads.
    """
    g = c.grw[_quotient(c, "U0")[0]]
    # Block 2n, the model of level -n, ends the cone.
    end = len(split.fu) - len(level_split(c, -n).model)
    v1_end, u1_end = _end(c, "U0", n, g), _end(c, "V0", -n, g - 2 * n) << end
    basis = (inc for inc, h in zip(split.inc, split.model.gradings) if h == g)
    return frozenset(((z & v1_end).bit_count() & 1, (z & u1_end).bit_count() & 1) for z in basis)


def _admits_map(ends: FrozenSet[Tuple[int, int]]) -> bool:
    """Is (1, 1) in the span of the end pairs: a staircase map with both ends non-torsion?"""
    return (1, 1) in ends or {(1, 0), (0, 1)} <= ends


# --- correction terms -------------------------------------------------------


def _correction(d: int, s: int, n: int) -> int:
    """-d/2 for the tower top d of level s of C tensor St*_n; d must be even."""
    if d % 2:
        raise ConsistencyError(f"tower grading {d} at level {s} of C tensor St*_{n} is odd")
    return -d // 2


def v_invariant(c: BigradedComplex, s: int) -> int:
    """Correction term of the level-s subcomplex: -d/2, read off its split."""
    return _correction(level_split(c, s).top_grading(), s, 0)


def y_invariant(c: BigradedComplex, n: int) -> int:
    """V_0 of C tensor the n-step dual staircase; Y_0 = V_0."""
    if n < 0:
        raise ValidationError("index must be nonnegative")
    return _correction(_level(c, n)[0], 0, n)


def _default_cap(c: BigradedComplex) -> int:
    return 4 * max(c.max_alexander(), 0) + 4


def _first_zero(values, name: str, c: BigradedComplex) -> int:
    """Least k >= 0 with values(c, k) = 0; crossing `_default_cap` raises `ConsistencyError`.

    The cap is a guard only: every s >= max A gives the same level, so on a knot V_s vanishes by max A.
    """
    limit = _default_cap(c)
    for k in range(limit + 1):
        if values(c, k) == 0:
            return k
    raise ConsistencyError(f"{name} did not vanish by the iteration cap {limit}")


def nu_plus(c: BigradedComplex) -> int:
    """Minimal s >= 0 with V_s = 0; at most max A, past which `a_level_complex` raises no generator."""
    return _first_zero(v_invariant, "V_s", c)


def omega_plus(c: BigradedComplex) -> int:
    """Minimal n >= 0 with Y_n = 0."""
    return _first_zero(y_invariant, "Y_n", c)


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
    return c.alexander[_quotient(c, "U0")[0]]


def nu_hat(c: BigradedComplex) -> int:
    """Least level whose hat cycles hit the generator of the V = 1 complex.

    Each level is read off its own split, at the grw of the U = 0 tower
    generator (`_end`), with no cone. Only the candidate levels are
    tested: tau - 1 must miss, and the first of tau, tau + 1 to hit is nu.
    Any other outcome is a consistency failure, so the shortcut stays
    certified.
    """
    if not is_knotlike(c):
        raise ValidationError("nu undefined: complex is not knot-like")
    tau, g = tau_invariant(c), c.grw[_quotient(c, "U0")[0]]
    for s in (tau - 1, tau, tau + 1):
        if _end(c, "U0", s, g):
            if s < tau:
                raise ConsistencyError(f"level {s} hits the V = 1 class below tau = {tau}")
            return s
    raise ConsistencyError(f"nu outside {{tau, tau+1}}, tau={tau}")


def omega_hat(c: BigradedComplex) -> int:
    """Least n >= 0 with a staircase map St_n -> C/(UV) whose ends are non-torsion.

    Such a map is a grading-0 hat cycle of level 0 of C tensor St*_n
    whose ends hit both generators (`_hat_ends`), so the towers must sit
    at grw = 0 and grz = 0. Only the candidates are tested; the first to
    admit a map is omega, and a failure of all is a consistency failure.
    """
    _require_tower_at_zero(c)
    candidates = _candidates(c)
    for n in candidates:
        if _admits_map(_level(c, n)[1]):
            return n
    raise ConsistencyError(f"omega dichotomy failed: no staircase map at n in {list(candidates)}")


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


def compute_invariant_table(c: BigradedComplex) -> InvariantTable:
    """All integer invariants of one complex; raises on self-inconsistency.

    The tables end at V_(nu+) and Y_(omega+), read from the scans' memo;
    past them both are 0: V_s >= V_(s+1) >= 0 makes V_s <= V_(nu+) = 0,
    and Y_n >= Y_(n+1) with Y_n >= V_n gives 0 <= Y_n <= Y_(omega+) = 0.
    """
    omega_p = omega_plus(c)
    nu_p = nu_plus(c)
    v = {s: v_invariant(c, s) for s in range(nu_p + 1)}
    y = {n: y_invariant(c, n) for n in range(omega_p + 1)}
    table = InvariantTable(v, y, nu_p, omega_p, tau_invariant(c), nu_hat(c), omega_hat(c))
    problems = table.consistency_violations()
    if problems:
        raise ConsistencyError("; ".join(problems))
    return table
