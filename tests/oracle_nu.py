"""Full-range scan for nu, kept as an oracle for `invariants.nu_hat`.

`nu_hat` tests only the levels tau - 1, tau and tau + 1. This scan makes
no use of tau: it walks every Alexander level from the bottom and, at
each one, solves the explicit affine system "z is a hat cycle of the
level-s subcomplex whose image in the V = 1 quotient is the generator
class" with a `LinearSystem`. The first solvable level is nu.
"""

from knotfloer.complexes import BigradedComplex
from knotfloer.errors import ConsistencyError, ValidationError
from knotfloer.linalg import LinearSystem

from echelon import ColumnSolver, Echelon
from oracle_terms import terms


def nu_hat_scan(c: BigradedComplex) -> int:
    n = len(c.gens)
    # The monomials are written out (by `oracle_terms.terms`), not filtered by masks
    # as the program does: the hat entries are the pure ones, and the V = 1
    # differential keeps those without U.
    hat = [[] for _ in range(n)]
    d1 = [0] * n
    for src, tgt, u, v in terms(c):
        i, j = c.index[src], c.index[tgt]
        if u == 0 or v == 0:
            hat[i].append((j, u, v))
        if u == 0:
            d1[i] ^= 1 << j
    im1 = Echelon(d1)
    gen_class = None
    for combo in ColumnSolver(d1).kernel:
        reduced = im1.reduce(combo)
        if reduced:
            gen_class = reduced
            break
    if gen_class is None:
        raise ValidationError("V = 1 reduction has trivial homology")
    alex = [g.alexander for g in c.gens]
    lo, hi = min(alex), max(alex)
    for s in range(lo, hi + 2):
        mins = [((a - s, 0) if a >= s else (0, s - a)) for a in alex]
        system = LinearSystem()
        z = list(system.new_vars(n))
        # cycle condition: one equation per row of the level differential
        rows = [0] * n
        for j in range(n):
            iu, jv = mins[j]
            for ti, a, b in hat[j]:
                nu_, nv_ = iu + a, jv + b
                if nu_ > 0 and nv_ > 0:
                    continue
                if (nu_, nv_) != mins[ti]:
                    raise ConsistencyError("hat level differential mismatch")
                rows[ti] ^= 1 << z[j]
        for mask in rows:
            if mask:
                system.add_equation(mask, 0)
        # image in the V = 1 quotient must represent the generator class
        proj_reduced = [
            im1.reduce(1 << j) if mins[j][0] == 0 else 0 for j in range(n)
        ]
        bits = gen_class
        for p in proj_reduced:
            bits |= p
        b = bits
        while b:
            low = b & -b
            bit = low.bit_length() - 1
            b ^= low
            mask = 0
            for j in range(n):
                if (proj_reduced[j] >> bit) & 1:
                    mask |= 1 << z[j]
            system.add_equation(mask, (gen_class >> bit) & 1)
        if system.solve() is not None:
            return s
    raise ConsistencyError("nu scan exhausted the Alexander range")
