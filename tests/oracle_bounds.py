"""Reference genus and clasp bound records, each written out by hand.

An earlier form of `bounds.genus_bounds` and `bounds.clasp_bounds`:
`genus_bounds` takes the table as loose fields, `clasp_bounds` takes
each table as a dict of nu_plus, omega_plus and y and the signature as
the triple of `bounds.signature_clasp_bound`. Every source record and
both halves of the involutive bound are typed out, so the program's
shared record and involutive rule are checked against a copy that
shares neither.

`format_exact` is an earlier form of `bounds.format_exact`, which
scales the numerator one factor of the denominator at a time.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple


def _parity_bound(values: Dict[int, int]) -> Dict:
    """Largest n + 2*val - 1 over the entries with val >= 1, and where.

    The bound is 0, reached nowhere, when no value is positive.
    """
    best, at = 0, []
    for n, val in sorted(values.items()):
        if val >= 1:
            cand = n + 2 * val - 1
            if cand > best:
                best, at = cand, [n]
            elif cand == best:
                at.append(n)
    return {"bound": best, "certificate": {"achieved_at": at}}


def genus_bounds(
    v: Dict[int, int],
    y: Dict[int, int],
    nu_plus: int,
    omega_plus: int,
    involutive: Optional[Tuple[int, int]],
) -> Dict:
    """Per-source slice-genus lower bounds with their certificates."""
    sources: Dict[str, Dict] = {}
    sources["nu_plus"] = {"bound": nu_plus, "certificate": {"nu_plus": nu_plus}}
    sources["omega_plus"] = {"bound": omega_plus, "certificate": {"omega_plus": omega_plus}}
    sources["v_parity"] = _parity_bound({s: val for s, val in v.items() if s >= 0})
    sources["y_parity"] = _parity_bound(y)
    if involutive is not None:
        # ceil((g+1)/2) >= v_under and >= -v_bar force g >= 2*v - 2.
        v_bar, v_under = involutive
        bound = max(2 * v_under - 2, -2 * v_bar - 2, 0)
        sources["involutive"] = {
            "bound": bound,
            "certificate": {"v0_bar": v_bar, "v0_under": v_under},
        }
    overall = max(src["bound"] for src in sources.values())
    return {"sources": sources, "max": overall}


def clasp_bounds(
    table_k: Dict,
    table_mirror: Dict,
    upsilon_bound: Optional[Fraction],
    signature: Optional[Tuple[int, int, int]],
    involutive: Optional[Tuple[int, int]],
) -> Dict:
    """Per-source clasp-number lower bounds (total, positive, negative)."""
    sources: Dict[str, Dict] = {}
    bcg = table_k["nu_plus"] + table_mirror["nu_plus"]
    sources["nu_plus_sum"] = {
        "bound": bcg,
        "certificate": {
            "nu_plus": table_k["nu_plus"],
            "nu_plus_mirror": table_mirror["nu_plus"],
        },
    }
    osum = table_k["omega_plus"] + table_mirror["omega_plus"]
    sources["omega_plus_sum"] = {
        "bound": osum,
        "certificate": {
            "omega_plus": table_k["omega_plus"],
            "omega_plus_mirror": table_mirror["omega_plus"],
        },
    }
    if upsilon_bound is not None:
        sources["upsilon_ratio"] = {
            "bound_exact": str(upsilon_bound),
            "bound": -(-upsilon_bound.numerator // upsilon_bound.denominator),
            "certificate": {},
        }
    if signature is not None:
        hi, lo, bound = signature
        sources["signature"] = {
            "bound": bound,
            "certificate": {"max": hi, "min": lo},
        }

    plus_sources: Dict[str, Dict] = {}
    minus_sources: Dict[str, Dict] = {}
    plus_sources["omega_plus"] = {"bound": table_k["omega_plus"], "certificate": {}}
    minus_sources["omega_plus_mirror"] = {
        "bound": table_mirror["omega_plus"],
        "certificate": {},
    }
    plus_sources["y_parity"] = _parity_bound(table_k["y"])
    if involutive is not None:
        # ceil((c+1)/2) >= v_under and >= -v_bar force c >= 2*v - 2.
        v_bar, v_under = involutive
        plus_sources["involutive"] = {
            "bound": max(2 * v_under - 2, 0),
            "certificate": {"v0_under": v_under},
        }
        minus_sources["involutive"] = {
            "bound": max(-2 * v_bar - 2, 0),
            "certificate": {"v0_bar": v_bar},
        }
    plus_max = max(src["bound"] for src in plus_sources.values())
    minus_max = max(src["bound"] for src in minus_sources.values())
    sources["signed_sum"] = {
        "bound": plus_max + minus_max,
        "certificate": {"positive": plus_max, "negative": minus_max},
    }
    overall = max(src["bound"] for src in sources.values())
    return {
        "sources": sources,
        "max": overall,
        "positive": {"sources": plus_sources, "max": plus_max},
        "negative": {"sources": minus_sources, "max": minus_max},
    }


def format_exact(x: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else 'p/q'."""
    den = x.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    # Scale to a power of ten exactly.
    k = 0
    num = x.numerator
    while den % 2 == 0:
        den //= 2
        num *= 5
        k += 1
    while den % 5 == 0:
        den //= 5
        num *= 2
        k += 1
    if k == 0:
        return str(num)
    sign = "-" if num < 0 else ""
    num = abs(num)
    whole, frac = divmod(num, 10**k)
    return f"{sign}{whole}.{str(frac).zfill(k)}"
