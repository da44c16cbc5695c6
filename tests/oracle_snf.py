"""Smith-normal-form oracle for the tower engine.

GF(2)[T] is a principal ideal domain with unit group {1}, so the Smith
form needs no sign or leading-coefficient bookkeeping: pivoting on an
entry of minimal degree with exact division always terminates. The
transforms U, V are products of elementary operations, hence have
determinant 1; `verify_snf` re-multiplies the certificates.

`oracle_rank_and_top` computes the homology towers of a `FUComplex`
from the Smith form alone, independently of `fu.tower_reduce`: kernel
basis, image expressed in the kernel, invariant factors, and a rank
test for the non-torsion homogeneous component. `oracle_torsion` reads
the torsion off the invariant factors. It is deliberately simple and
only meant for small matrices.

A GF(2)[T] polynomial is an int bitmask whose bit k is the coefficient
of T^k.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from knotfloer.errors import ConsistencyError
from knotfloer.fu import FUComplex
from echelon import set_bits
from fu_views import fu_cols
from oracle_involutive import power

TMatrix = List[List[int]]


# --- GF(2)[T] as int bitmasks ----------------------------------------------


def t_from_exps(exps) -> int:
    out = 0
    for k in exps:
        if k < 0:
            raise ValueError("negative T exponent")
        out ^= 1 << k
    return out


def t_exps(p: int) -> tuple:
    return tuple(k for k in range(p.bit_length()) if (p >> k) & 1)


def t_deg(p: int) -> int:
    """Degree, with deg(0) == -1."""
    return p.bit_length() - 1


def t_mul(a: int, b: int) -> int:
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return acc


def t_divmod(a: int, b: int) -> tuple:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = t_deg(b)
    while t_deg(a) >= db:
        s = t_deg(a) - db
        q ^= 1 << s
        a ^= b << s
    return q, a


# --- matrices over GF(2)[T] --------------------------------------------------


def t_mat_identity(n: int) -> TMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def t_mat_mul(a: TMatrix, b: TMatrix) -> TMatrix:
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if not x:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] ^= t_mul(x, bt[j])
    return out


def t_mat_det(a: TMatrix) -> int:
    """Determinant by Laplace expansion; fine for the small certificates."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    det = 0
    for j in range(n):
        if not a[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        det ^= t_mul(a[0][j], t_mat_det(minor))
    return det


def smith_normal_form(mat: TMatrix) -> Tuple[List[int], TMatrix, TMatrix]:
    """Return (factors, U, V) with U*mat*V diagonal.

    `factors` lists the diagonal d_0 | d_1 | ... (zeros trimmed from the
    end). U and V are invertible, built from row/column swaps and
    polynomial-multiple additions only.
    """
    a = [row[:] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = t_mat_identity(nrows)
    v = t_mat_identity(ncols)

    def row_add(dst: int, src: int, q: int) -> None:
        for j in range(ncols):
            if a[src][j]:
                a[dst][j] ^= t_mul(q, a[src][j])
        for j in range(nrows):
            if u[src][j]:
                u[dst][j] ^= t_mul(q, u[src][j])

    def col_add(dst: int, src: int, q: int) -> None:
        for i in range(nrows):
            if a[i][src]:
                a[i][dst] ^= t_mul(q, a[i][src])
        for i in range(ncols):
            if v[i][src]:
                v[i][dst] ^= t_mul(q, v[i][src])

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < min(nrows, ncols):
        # Degree-minimal pivot in the trailing block.
        pivot = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if a[i][j]:
                    d = t_deg(a[i][j])
                    if best is None or d < best:
                        best = d
                        pivot = (i, j)
        if pivot is None:
            break
        row_swap(k, pivot[0])
        col_swap(k, pivot[1])

        dirty = False
        for i in range(k + 1, nrows):
            if a[i][k]:
                q, r = t_divmod(a[i][k], a[k][k])
                row_add(i, k, q)
                if r:
                    dirty = True
        for j in range(k + 1, ncols):
            if a[k][j]:
                q, r = t_divmod(a[k][j], a[k][k])
                col_add(j, k, q)
                if r:
                    dirty = True
        if dirty:
            continue

        # Divisibility of the remaining block; pull in an offender and redo.
        offender = None
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
                if a[i][j] and t_divmod(a[i][j], a[k][k])[1]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(k, offender, 1)
            continue
        k += 1

    factors = [a[i][i] for i in range(min(nrows, ncols)) if a[i][i]]
    return factors, u, v


def verify_snf(mat: TMatrix, factors: List[int], u: TMatrix, v: TMatrix) -> bool:
    """Re-multiply the certificates: U*mat*V must equal diag(factors)."""
    prod = t_mat_mul(t_mat_mul(u, mat), v)
    for i, row in enumerate(prod):
        for j, entry in enumerate(row):
            want = factors[i] if (i == j and i < len(factors)) else 0
            if entry != want:
                return False
    for i in range(1, len(factors)):
        if t_divmod(factors[i], factors[i - 1])[1]:
            return False
    return True


def t_mat_rank(mat: TMatrix) -> int:
    """Rank over the fraction field GF(2)(T)."""
    if not mat or not mat[0]:
        return 0
    return len(smith_normal_form(mat)[0])


def solve_in_column_span(mat: TMatrix, target: List[int]):
    """Solve mat * w = target exactly over GF(2)[T]; None when unsolvable."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    factors, u, v = smith_normal_form(mat)
    # U*mat*V = S, so w = V * y with S y = U*target.
    rhs = [0] * nrows
    for i in range(nrows):
        acc = 0
        for j in range(nrows):
            if u[i][j] and target[j]:
                acc ^= t_mul(u[i][j], target[j])
        rhs[i] = acc
    y = [0] * ncols
    for i in range(nrows):
        if i < len(factors):
            q, r = t_divmod(rhs[i], factors[i]) if rhs[i] else (0, 0)
            if r:
                return None
            y[i] = q
        elif rhs[i]:
            return None
    w = [0] * ncols
    for i in range(ncols):
        acc = 0
        for j in range(ncols):
            if v[i][j] and y[j]:
                acc ^= t_mul(v[i][j], y[j])
        w[i] = acc
    return w


# --- homology towers of a FUComplex -------------------------------------------


def _t_matrix(fu: FUComplex) -> TMatrix:
    n = len(fu)
    mat = [[0] * n for _ in range(n)]
    for j, col in enumerate(fu_cols(fu)):
        for i in set_bits(col):
            mat[i][j] = 1 << power(fu, i, j)
    return mat


def oracle_torsion(fu: FUComplex) -> List[int]:
    """T-degrees of the invariant factors of the differential, ascending; 0 marks a unit.

    A homogeneous matrix has monomial invariant factors, and the unit group
    of GF(2)[T] is {1}, so each factor is T^k exactly. The factors with
    k > 0 are the torsion summands GF(2)[T]/(T^k) of the homology.
    """
    if not len(fu):
        return []
    factors = smith_normal_form(_t_matrix(fu))[0]
    if any(f & (f - 1) for f in factors):
        raise ConsistencyError("oracle: an invariant factor of a homogeneous matrix is not a monomial")
    return sorted(f.bit_length() - 1 for f in factors)


def oracle_rank_and_top(fu: FUComplex) -> Tuple[int, Optional[int]]:
    """(free rank of homology, top tower grading) via Smith normal form.

    The top grading is only reported for rank one, which is the case the
    invariants use. Everything here is GF(2)[T]-matrix algebra: kernel from
    the Smith form of the differential, image expressed in the kernel,
    invariant factors of the quotient, and a fraction-field rank test to
    locate the non-torsion homogeneous component of the free generator.
    """
    n = len(fu)
    if n == 0:
        return 0, None
    d = _t_matrix(fu)
    factors, _u, v = smith_normal_form(d)
    rank_d = len(factors)
    # Kernel basis: columns of V past the rank.
    ker: List[List[int]] = []
    for j in range(rank_d, n):
        ker.append([v[i][j] for i in range(n)])
    kdim = len(ker)
    free_rank = kdim - rank_d  # dim ker - dim im
    if free_rank < 0:
        raise ConsistencyError("oracle: negative homology rank")
    if free_rank == 0:
        return 0, None
    # Express the image in the kernel basis.
    kmat = [[ker[c][r] for c in range(kdim)] for r in range(n)]
    im_in_ker: List[List[int]] = [[0] * n for _ in range(kdim)]
    for j in range(n):
        target = [d[i][j] for i in range(n)]
        if not any(target):
            continue
        w = solve_in_column_span(kmat, target)
        if w is None:
            raise ConsistencyError("oracle: image column outside the kernel")
        for r in range(kdim):
            im_in_ker[r][j] = w[r]
    mfac, mu, _mv = smith_normal_form(im_in_ker)
    if kdim - len(mfac) != free_rank:
        raise ConsistencyError("oracle: rank of quotient presentation disagrees")
    if free_rank != 1:
        return free_rank, None
    # Free generator of ker/im: invert the row transform of the presentation.
    muinv = _invert_transform(mu)
    gen_ker = [muinv[r][len(mfac)] for r in range(kdim)]
    # Ambient coordinates of the generator.
    ambient = [0] * n
    for r in range(kdim):
        if gen_ker[r]:
            for i in range(n):
                if ker[r][i]:
                    ambient[i] ^= t_mul(gen_ker[r], ker[r][i])
    # Homogeneous components, graded by r_i - 2k.
    components: Dict[int, List[int]] = {}
    for i in range(n):
        for k in t_exps(ambient[i]):
            g = fu.gradings[i] - 2 * k
            comp = components.setdefault(g, [0] * n)
            comp[i] ^= 1 << k
    tops = []
    for g in sorted(components, reverse=True):
        z = components[g]
        stacked = [[d[i][j] for j in range(n)] + [z[i]] for i in range(n)]
        if t_mat_rank(stacked) == rank_d + 1:
            tops.append(g)
    if len(tops) != 1:
        raise ConsistencyError(
            f"oracle: expected one non-torsion component, found {len(tops)}"
        )
    return 1, tops[0]


def _invert_transform(mat: TMatrix) -> TMatrix:
    """Inverse of a product of elementary GF(2)[T] operations.

    Gauss-Jordan over the fraction field is unnecessary: the Smith
    transforms are invertible over GF(2)[T], and solving column by column
    against the identity with exact division recovers the inverse.
    """
    n = len(mat)
    out = []
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        w = solve_in_column_span(mat, e)
        if w is None:
            raise ConsistencyError("transform is not invertible over GF(2)[T]")
        out.append(w)
    # out[j] is the j-th column of the inverse.
    return [[out[j][i] for j in range(n)] for i in range(n)]
