"""Explicit GF(2)[U, V] polynomial algebra: an oracle for the column form.

The program stores each matrix entry of a complex or map as one bit and
lets the gradings imply its monomial. This module redoes the algebra with
the monomials written out: a polynomial is a frozenset of (u, v) exponent
pairs (addition is symmetric difference), and a matrix is a dict
{source label: {target label: polynomial}} built from `oracle_terms.terms`. Tests
compare the two routes.
"""

UV_ZERO = frozenset()
UV_ONE = frozenset({(0, 0)})


def uv_mono(u, v):
    if u < 0 or v < 0:
        raise ValueError(f"negative exponent in monomial U^{u} V^{v}")
    return frozenset({(u, v)})


def uv_add(p, q):
    return p ^ q


def uv_mul(p, q):
    acc = set()
    for a, b in p:
        for c, d in q:
            acc ^= {(a + c, b + d)}
    return frozenset(acc)


def uv_mul_hat(p, q):
    """Product in GF(2)[U,V]/(UV): mixed monomials are dropped."""
    return frozenset((u, v) for u, v in uv_mul(p, q) if u == 0 or v == 0)


def uv_swap(p):
    """Exchange the two variables (conjugation on coefficients)."""
    return frozenset((b, a) for a, b in p)


def _accumulate(row, key, poly):
    cur = uv_add(row.get(key, UV_ZERO), poly)
    if cur:
        row[key] = cur
    else:
        row.pop(key, None)


def matrix(terms):
    """{source: {target: polynomial}} of (source, target, u, v) terms."""
    out = {}
    for src, tgt, u, v in terms:
        _accumulate(out.setdefault(src, {}), tgt, uv_mono(u, v))
    return {s: row for s, row in out.items() if row}


def compose(outer, inner, outer_skew=False):
    """outer after inner; a skew outer map swaps the inner coefficients."""
    out = {}
    for src, row in inner.items():
        acc = {}
        for mid, p in row.items():
            carried = uv_swap(p) if outer_skew else p
            for tgt, q in outer.get(mid, {}).items():
                _accumulate(acc, tgt, uv_mul(carried, q))
        if acc:
            out[src] = acc
    return out


def add(f, g):
    out = {s: dict(row) for s, row in f.items()}
    for src, row in g.items():
        for tgt, p in row.items():
            _accumulate(out.setdefault(src, {}), tgt, p)
    return {s: row for s, row in out.items() if row}


def tensor_differential(d1, labels1, d2, labels2):
    """Leibniz rule d(a|b) = d(a)|b + a|d(b) on labels."""
    out = {}
    for a in labels1:
        for b in labels2:
            row = {}
            for t, p in d1.get(a, {}).items():
                _accumulate(row, f"{t}|{b}", p)
            for t, p in d2.get(b, {}).items():
                _accumulate(row, f"{a}|{t}", p)
            if row:
                out[f"{a}|{b}"] = row
    return out


def tensor_maps(f1, f2):
    """(f1 x f2)(a|b) = f1(a)|f2(b), coefficients multiplied."""
    out = {}
    for s1, row1 in f1.items():
        for s2, row2 in f2.items():
            acc = {}
            for t1, p1 in row1.items():
                for t2, p2 in row2.items():
                    _accumulate(acc, f"{t1}|{t2}", uv_mul(p1, p2))
            if acc:
                out[f"{s1}|{s2}"] = acc
    return out
