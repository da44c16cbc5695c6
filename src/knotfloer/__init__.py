"""Exact concordance invariants of bigraded knot complexes over GF(2)[U,V]."""

from .builders import (
    alexander_exponents,
    named_complex,
    staircase,
    staircase_dual,
    torus_knot_complex,
)
from .complexes import (
    BigradedComplex,
    ChainMap,
    Generator,
    SkewMap,
    reduce_complex,
    verify_chain_map,
)
from .expressions import expr_to_string, parse_knot_expr
from .fileio import load_complex, save_complex
from .invariants import (
    a_level_complex,
    compute_invariant_table,
    is_knotlike,
    level_split,
    nu_hat,
    nu_plus,
    omega_hat,
    omega_plus,
    tau_invariant,
    v_invariant,
    y_invariant,
)
from .involutive import (
    ai0_cone,
    connected_sum_iota,
    involutive_d_pair,
    mirror_iota,
    realize_expr,
    realize_with_iota,
    staircase_iota,
    v0_bar_under,
)
from .bounds import (
    lt_signature_of_expr,
    signature_clasp_bound,
    upsilon_of_expr,
    upsilon_ratio_bound,
)

__version__ = "0.1.0"
