"""Bigraded chain complexes over GF(2)[U, V] and maps between them.

A complex is a finite list of generators carrying two integer gradings
(grw, grz) together with a differential. U and V carry bidegrees (-2, 0)
and (0, -2) and the differential drops both gradings by one, so
homogeneity pins every entry to a single monomial: a term U^u V^v y of dx
has

    2u = grw(y) - grw(x) + 1,    2v = grz(y) - grz(x) + 1.

The differential is therefore stored as one GF(2) bitmask column per
generator (bit j of cols[i] is set when y_j occurs in d(x_i)) and every
exponent is implied by the gradings. Chain maps of a fixed bidegree
(dw, dz) and skew maps (f(U x) = V f(x), which swap the gradings) are
stored the same way.

The structural rules enforced by `validate`:

* every implied exponent is a nonnegative integer;
* grw - grz is even for every generator, so the Alexander grading
  A = (grw - grz) / 2 is an integer;
* d^2 = 0. The exponents along a path depend only on its end points, so
  d^2 is the XOR of the columns d hits.

Homogeneity is one rule, applied entry by entry: an entry is legal when
both of its doubled exponents are nonnegative and even. Where it is
checked:

* a format-1 file entry states its exponents, and the format-1 front
  end of `fileio` checks them against the gradings; only the entries
  that agree reach the target lists;
* every complex and map, those read from a file included, is checked by
  `illegal_terms` and `verify_chain_map` over the map's target lists
  (`ChainMap.illegal_entries`).

`BigradedComplex.targets` lists the targets of each generator's d, and
`ChainMap.targets` those of any other map: each walks a column's bits
once, through `linalg.iter_bits`, the one walk over a mask's bits. The
d^2 check, the d f = f d check (`chain_violation`), the file writer,
the homogeneity rule, the levels and `reduce_complex` read those lists.
A builder that holds the lists already passes them at construction: the
file reader those it has read, for the complex and for iota, and `dual`
and `involutive.mirror_iota` the transposed lists, so their bits are
never walked; other lists are walked on first read. `d` is a view built
on each read, so a complex keeps nothing that points back at it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ValidationError
from .fu import FUComplex
from .linalg import flag_mask, iter_bits, spread, transpose


class Generator(NamedTuple):
    name: str
    grw: int
    grz: int

    @property
    def alexander(self) -> int:
        return (self.grw - self.grz) // 2


class BigradedComplex:
    """Finitely generated free complex over GF(2)[U, V].

    Labels, grw and grz tuples plus one bitmask column per generator.
    Immutable after construction; `validate` returns a list of violation
    strings (empty when the complex is well formed) and `require_valid`
    raises on the first dirty input.
    """

    def __init__(
        self, labels: Sequence[str], grw: Sequence[int], grz: Sequence[int], cols: Sequence[int], targets=None
    ):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.grw: Tuple[int, ...] = tuple(grw)
        self.grz: Tuple[int, ...] = tuple(grz)
        self.cols: Tuple[int, ...] = tuple(cols)
        if not len(self.labels) == len(self.grw) == len(self.grz) == len(self.cols):
            raise ValidationError("grading and column lists differ in length")
        if targets is not None:
            self.targets = targets

    # -- basic access --------------------------------------------------

    @functools.cached_property
    def gens(self) -> Tuple[Generator, ...]:
        return tuple(map(Generator, self.labels, self.grw, self.grz))

    @functools.cached_property
    def index(self) -> dict:
        return {name: i for i, name in enumerate(self.labels)}

    @functools.cached_property
    def label_order(self) -> List[int]:
        """The indices sorted by label: the tie order of the levels and quotients (`fu.FUComplex`)."""
        return sorted(range(len(self)), key=self.labels.__getitem__)

    @functools.cached_property
    def alexander(self) -> Tuple[int, ...]:
        return tuple((w - z) // 2 for w, z in zip(self.grw, self.grz))

    @functools.cached_property
    def targets(self) -> Tuple[List[int], ...]:
        """Per generator, the targets of its d, ascending: given at construction, or walked once (`iter_bits`)."""
        return tuple(map(iter_bits, self.cols))

    @property
    def d(self) -> "Differential":
        return Differential(self)

    def __len__(self) -> int:
        return len(self.cols)

    def repeated_label(self) -> Optional[str]:
        """The first label that occurs twice, if any (tensor labels may collide)."""
        seen = set()
        return next((n for n in self.labels if n in seen or seen.add(n)), None)

    def max_alexander(self) -> int:
        return max(self.alexander)

    @functools.cached_property
    def reversal_symmetric(self) -> bool:
        """True when the index reversal sigma: i -> n - 1 - i is a skew chain automorphism.

        That is grw(x_i) = grz(x_(n-1-i)), and d(x_(n-1-i)) = sigma d(x_i)
        on the targets: sigma swaps the gradings, so its entries, and those
        of d it matches, carry the implied exponents with U and V traded.
        It holds on every torus-sum complex the program builds or saves
        (the staircase reflection, kept by tensor products and duals) and
        on HW. Checked in C-level passes over `targets`: the list lengths
        read the same backwards, and then the flattened lists equal their
        own reversal mapped through sigma.
        """
        if self.grw != self.grz[::-1]:
            return False
        targets = self.targets
        lengths = list(map(len, targets))
        if lengths != lengths[::-1]:
            return False
        flat = list(itertools.chain.from_iterable(targets))
        return flat == list(map((len(self) - 1).__sub__, reversed(flat)))

    # -- validation ----------------------------------------------------

    @functools.cached_property
    def illegal_terms(self) -> Tuple[str, ...]:
        """A message for every entry of d whose implied exponents are not natural numbers.

        Computed once per complex by `ChainMap.illegal_entries`; `validate`
        and the invariants share it.
        """
        d = self.d
        return tuple(d.problem(i, j) for i, j in d.illegal_entries())

    def validate(self) -> List[str]:
        labels, grw, grz, cols = self.labels, self.grw, self.grz, self.cols
        out = [
            f"generator {name!r}: grw-grz = {w - z} is odd, Alexander grading is not an integer"
            for name, w, z in zip(labels, grw, grz)
            if (w - z) % 2
        ]
        out.extend(self.illegal_terms)
        for i, targets in enumerate(self.targets):
            square = 0
            for j in targets:
                square ^= cols[j]
            if not square:
                continue
            for k in iter_bits(square):
                # After an inhomogeneous entry the implied exponents of a d^2
                # term need not be natural; then only its target is named.
                two_u, two_v = grw[k] - grw[i] + 2, grz[k] - grz[i] + 2
                natural = two_u >= 0 and two_v >= 0 and two_u % 2 == two_v % 2 == 0
                term = f"U^{two_u // 2}V^{two_v // 2}*{labels[k]}" if natural else labels[k]
                out.append(f"d^2({labels[i]}) has term {term}")
        return out

    def require_valid(self) -> "BigradedComplex":
        violations = self.validate()
        if violations:
            raise ValidationError(violations)
        return self

    # -- constructions -------------------------------------------------

    def tensor(self, other: "BigradedComplex") -> "BigradedComplex":
        """Tensor product over GF(2)[U, V] with the Leibniz differential.

        Generator (i, j) gets index i * len(other) and the label
        "left|right"; bigradings add.
        """
        m = len(other)
        cols = []
        for i, col in enumerate(self.cols):
            left, base = spread(col, m), i * m
            cols.extend((left << j) ^ (ocol << base) for j, ocol in enumerate(other.cols))
        return BigradedComplex(
            [f"{a}|{b}" for a in self.labels for b in other.labels],
            [w + x for w in self.grw for x in other.grw],
            [z + y for z in self.grz for y in other.grz],
            cols,
        )

    def dual(self) -> "BigradedComplex":
        """Dual complex: gradings negate, differential transposes.

        Computes the mirror: the complex of the mirror knot is the dual of
        the complex of the knot. It is built with the transposed target
        lists of d, so no bit of either is walked.
        """
        cols, targets = transpose(self.targets, len(self))
        labels = [name + "*" for name in self.labels]
        return BigradedComplex(labels, [-w for w in self.grw], [-z for z in self.grz], cols, targets)

    def relabel(self, mapping) -> "BigradedComplex":
        labels = [mapping.get(name, name) for name in self.labels]
        return BigradedComplex(labels, self.grw, self.grz, self.cols)


# --- chain maps -------------------------------------------------------


class ChainMap:
    """GF(2)[U,V]-equivariant map of bidegree (dw, dz).

    Bit j of cols[i] is set when target generator j occurs in f(x_i); its
    monomial U^u V^v has 2u = grw(y_j) - grw(x_i) - dw and
    2v = grz(y_j) - grz(x_i) - dz. `verify_chain_map` checks that every
    implied exponent is a nonnegative integer and that df = fd.
    """

    def __init__(
        self,
        source: BigradedComplex,
        target: BigradedComplex,
        cols: Sequence[int],
        bidegree: Tuple[int, int],
        targets=None,
    ):
        self.source = source
        self.target = target
        self.cols: Tuple[int, ...] = tuple(cols)
        self.bidegree = tuple(bidegree)
        if targets is not None:
            self.targets = targets

    @functools.cached_property
    def bases(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Per source generator, the target (grw, grz) of an exponent-0 entry."""
        dw, dz = self.bidegree
        return (
            tuple(w + dw for w in self.source.grw),
            tuple(z + dz for z in self.source.grz),
        )

    @functools.cached_property
    def targets(self) -> Tuple[List[int], ...]:
        """Per source generator, the indices of its targets in ascending order.

        Given at construction, or each column walked once (`iter_bits`);
        every reader of the entries shares the lists.
        """
        return tuple(map(iter_bits, self.cols))

    @functools.cached_property
    def violation(self) -> Optional[str]:
        """The result of `verify_chain_map`, found once per map."""
        for i, j in self.illegal_entries():
            return self.problem(i, j)
        return chain_violation(self)

    def illegal_entries(self) -> Iterator[Tuple[int, int]]:
        """(i, j) of every entry whose implied exponents are not nonnegative integers, in index order.

        One pass over `targets`, the one home of the homogeneity rule: an
        entry is illegal when either doubled exponent is negative or odd.
        """
        grw, grz = self.target.grw, self.target.grz
        for i, (row, w, z) in enumerate(zip(self.targets, *self.bases)):
            for j in row:
                gaps = (grw[j] - w) | (grz[j] - z)  # negative when either is, odd when either is
                if gaps < 0 or gaps & 1:
                    yield i, j

    def _term(self, j: int, u: Optional[int], v: Optional[int]) -> str:
        name = self.target.labels[j]
        return name if u is None else f"U^{u}V^{v}*{name}"

    def problem(self, i: int, j: int, u: Optional[int] = None, v: Optional[int] = None) -> str:
        dw, dz = self.bidegree
        return (
            f"entry {self._term(j, u, v)} of image of {self.source.labels[i]} is not "
            f"homogeneous of bidegree ({dw},{dz})"
        )


class Differential(ChainMap):
    """The differential of a complex, as a map of bidegree (-1, -1): a view over the complex's target lists."""

    def __init__(self, c: BigradedComplex):
        super().__init__(c, c, c.cols, (-1, -1), c.targets)

    def problem(self, i, j, u=None, v=None) -> str:
        c = self.source
        out = (
            f"inhomogeneous term {self._term(j, u, v)} in d({c.labels[i]}): "
            f"target grading ({c.grw[j]},{c.grz[j]})"
        )
        if u is None:
            return out + f" admits no monomial from ({c.grw[i]},{c.grz[i]})"
        return out + f", needs ({c.grw[i] - 1 + 2 * u},{c.grz[i] - 1 + 2 * v})"


class SkewMap(ChainMap):
    """Conjugation-skew-equivariant endomorphism: f(U x) = V f(x).

    Columns are the images of the generators; the skew rule extends the
    map to the whole module. A valid skew map swaps grw and grz: an entry
    U^u V^v y of f(x) has 2u = grw(y) - grz(x) and 2v = grz(y) - grw(x).
    """

    def __init__(self, complex_: BigradedComplex, cols: Sequence[int], targets=None):
        super().__init__(complex_, complex_, cols, (0, 0), targets)

    @functools.cached_property
    def bases(self):
        return self.source.grz, self.source.grw

    def is_on(self, c: BigradedComplex) -> bool:
        """Is this a map on c: c itself, or a complex with c's labels, gradings and differential?"""
        s = self.source
        return s is c or (s.labels, s.grw, s.grz, s.cols) == (c.labels, c.grw, c.grz, c.cols)

    def problem(self, i, j, u=None, v=None) -> str:
        return (
            f"skew map does not swap gradings on term {self._term(j, u, v)} "
            f"of image of {self.source.labels[i]}"
        )


def chain_violation(f: ChainMap) -> Optional[str]:
    """None when d f = f d, else the first generator where it fails.

    Exponents along a path depend only on its end points (for skew maps
    too), so both sides are XORs of columns, taken into one accumulator
    over the target lists of f and of the source's d.
    """
    fcols, dtgt = f.cols, f.target.cols
    for i, (ftargets, dtargets) in enumerate(zip(f.targets, f.source.targets)):
        acc = 0
        for j in ftargets:
            acc ^= dtgt[j]
        for j in dtargets:
            acc ^= fcols[j]
        if acc:
            return f"d f != f d on generator {f.source.labels[i]!r}"
    return None


def verify_chain_map(f: ChainMap) -> Optional[str]:
    """None when f is a valid (skew) chain map, else the first violation: homogeneity, then `chain_violation`.

    The result is kept on f (`ChainMap.violation`), so a map is checked once.
    """
    return f.violation


# --- basepoint endomorphisms ---------------------------------------------


def basepoint_map(c: BigradedComplex, variable: str) -> ChainMap:
    """One basepoint endomorphism, as a formal partial derivative of d.

    Differentiating in "U" (a term U^u V^v y of dx contributes
    u * U^(u-1) V^v y, coefficient mod 2) gives Phi: it keeps the entries
    of d with odd u and has bidegree (1, -1). u is odd exactly when
    grw(y) = grw(x) + 1 mod 4. Differentiating in "V" gives Psi, of
    bidegree (-1, 1), from the entries with odd v.

    The result is a valid chain map whenever c is valid, so it is not
    checked here. It is homogeneous: a kept entry has odd u >= 1, and
    U^(u-1) V^v is the monomial that bidegree (1, -1) implies. It
    commutes with d: the formal derivative of a product of matrices over
    GF(2)[U, V] obeys the product rule, so differentiating d d = 0 gives
    Phi d + d Phi = 0, which over GF(2) is Phi d = d Phi. The same holds
    for Psi. `validate` checks every complex that comes from outside,
    and the tests check Phi and Psi with `verify_chain_map`.
    """
    if variable not in ("U", "V"):
        raise ValueError(f"unknown variable {variable!r}")
    grading, bidegree = (c.grw, (1, -1)) if variable == "U" else (c.grz, (-1, 1))
    mod4 = [flag_mask(h % 4 == r for h in grading) for r in range(4)]
    return ChainMap(c, c, [col & mod4[(g + 1) % 4] for col, g in zip(c.cols, grading)], bidegree)


# --- quotient reductions ---------------------------------------------------


def reduce_complex(c: BigradedComplex, mode: str) -> FUComplex:
    """Quotient reductions of the coefficient ring, as filters of the target lists.

    mode "U0" -> free GF(2)[V]-complex (a FUComplex graded by grz) on the
                 entries without U; its columns are also those of the
                 finite GF(2) complex with U = 0 and V = 1;
    mode "V0" -> free GF(2)[U]-complex (graded by grw) on those without V.

    The kept entries are those whose exponent of the killed variable is 0:
    they lower the dropped grading (grw for "U0", grz for "V0") by exactly
    one, so it is a homological degree of the quotient. The result
    carries it as its `degrees`, by which `tower_reduce` clears, c's
    `label_order` as its ties, and the filtered lists as its targets.
    The pure-monomial entries (the UV = 0 quotient) are the union of the
    two modes' columns.
    """
    if mode not in ("U0", "V0"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    drop, keep = (c.grw, c.grz) if mode == "U0" else (c.grz, c.grw)
    # An explicit loop: on Python 3.11 it filters faster than a comprehension per list.
    targets = []
    for row, g in zip(c.targets, drop):
        g -= 1
        kept = []
        for j in row:
            if drop[j] == g:
                kept.append(j)
        targets.append(kept)
    return FUComplex(keep, targets, degrees=drop, ties=c.label_order)
