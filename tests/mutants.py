"""Mutation check: each mutant of `src/` in MUTANTS must fail the tests named for it.

    python tests/mutants.py

Each row names a file under src/knotfloer, an exact text in it, the text
that replaces it, and the tests that must fail once it is replaced. For
each row the runner copies src/ to a temporary directory, applies the
one mutant to the copy, checks that `knotfloer` imports from the copy,
and runs only the row's tests, with pytest, against it. The run fails
when a mutant survives (its tests pass), or when a row's old text does
not occur exactly once in its file: a change to the code a row names
must re-aim the row.

Two checks keep the run from passing vacuously. The named tests must
pass on an unmutated copy, so a mutant is killed only by a failure it
causes. And the self-test plants BENIGN, a mutant that changes no
behaviour: the runner must report it as surviving.

The runner uses the standard library and pytest only. Its rows take a
pytest run each, so it stays out of the tier-1 suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/knotfloer
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "the format-1 front end compares only the U exponent",
        "fileio.py",
        "if tw[j] - bw[i] == 2 * u and tz[j] - bz[i] == 2 * v:",
        "if tw[j] - bw[i] == 2 * u:",
        ("tests/test_fileio.py::test_late_fault_is_named[differential-210-edit-inhomogeneous term]",),
    ),
    Mutant(
        "reversal_symmetric without its grading comparison",
        "complexes.py",
        "        if self.grw != self.grz[::-1]:\n            return False\n",
        "",
        ("tests/test_quotients.py::test_reversal_asymmetric_inputs",),
    ),
    Mutant(
        "fu.cone adds an arrow at the source block's offset",
        "fu.py",
        "targets[offsets[a] + m].extend(j + offsets[b] for j in iter_bits(mask))",
        "targets[offsets[a] + m].extend(j + offsets[a] for j in iter_bits(mask))",
        ("tests/test_acceptance.py::test_criterion_1_example_knot",),
    ),
    Mutant(
        "level complexes without the label tie order",
        "invariants.py",
        "return FUComplex(gradings, c.targets, ties=c.label_order)",
        "return FUComplex(gradings, c.targets)",
        ("tests/test_digests.py::test_corpus_report_digest[J]",),
    ),
    Mutant(
        "every Upsilon breakpoint of a torus knot moved",
        "bounds.py",
        "start = Fraction(intercept - w, -s[i] - slope)",
        "start = Fraction(intercept - w + 1, -s[i] - slope)",
        ("tests/test_closed_forms.py::test_upsilon_matches_the_torus_closed_form",),
    ),
    Mutant(
        "a Y_n cone drops the basis of level 0 too",
        "invariants.py",
        "        if levels[b]:\n            splits[b].drop_basis()\n",
        "        splits[b].drop_basis()\n",
        ("tests/test_digests.py::test_corpus_report_digest[J]",),
    ),
    Mutant(
        "the glue into an odd block built in the opposite direction",
        "invariants.py",
        "transfer(splits[a], splits[b])",
        "transfer(splits[b], splits[a])",
        ("tests/test_digests.py::test_corpus_report_digest[J]",),
    ),
    Mutant(
        "the table climbs the V ladder before the Y ladder",
        "invariants.py",
        "    omega_p = omega_plus(c)\n    nu_p = nu_plus(c)\n",
        "    nu_p = nu_plus(c)\n    omega_p = omega_plus(c)\n",
        ("tests/test_invariants.py::test_the_table_holds_few_level_bases_at_each_reduction",),
    ),
    Mutant(
        "the transported V = 0 tower index without the index reversal",
        "invariants.py",
        "(n - 1 - quotient[0],",
        "(quotient[0],",
        ("tests/test_quotients.py::test_transported_v0_quotient_matches_the_direct_reduction[0]",),
    ),
    Mutant(
        "the transported V = 0 cocycle and cycle without their bit reversal",
        "invariants.py",
        'format(mask, f"0{n}b")[::-1]',
        'format(mask, f"0{n}b")',
        ("tests/test_quotients.py::test_transported_v0_quotient_matches_the_direct_reduction[0]",),
    ),
    Mutant(
        "flag_mask reads its flags from the top bit down",
        "linalg.py",
        'for f in flags])[::-1] or "0"',
        'for f in flags]) or "0"',
        ("tests/test_linalg.py::test_flag_mask_matches_the_sum_of_bits",),
    ),
    Mutant(
        "the V table stops before nu+",
        "invariants.py",
        "range(nu_p + 1)",
        "range(nu_p)",
        ("tests/test_digests.py::test_corpus_report_digest[J]",),
    ),
    Mutant(
        "TorusKnot.problem without its coprimality test",
        "expressions.py",
        "        if gcd(self.p, self.q) != 1:\n",
        "        if False:\n",
        ("tests/test_expressions.py::test_parse_rejects_non_coprime",),
    ),
    Mutant(
        "a level visit reads tau before it builds the level",
        "invariants.py",
        "        split = tower_reduce(_cone(c, n))\n",
        "        _candidates(c)\n        split = tower_reduce(_cone(c, n))\n",
        ("tests/test_invariants.py::test_level_complex_rejects_non_knotlike",),
    ),
    Mutant(
        "any character before a pair opens a torus knot",
        "expressions.py",
        'if ch == "T" and self._lookahead_torus():',
        'if ch == "T" or self._lookahead_torus():',
        ("tests/test_expressions.py::test_only_T_opens_a_torus_knot",),
    ),
    Mutant(
        "the V ladder may drop by 2",
        "invariants.py",
        "nxt = self.v.get(s + 1)\n            if nxt is not None and not (nxt <= val <= nxt + 1):",
        "nxt = self.v.get(s + 1)\n            if nxt is not None and not (nxt <= val <= nxt + 2):",
        ("tests/test_invariants.py::test_each_broken_law_is_named[V drops by 2]",),
    ),
    Mutant(
        "the Y ladder may drop by 2",
        "invariants.py",
        "nxt = self.y.get(n + 1)\n            if nxt is not None and not (nxt <= val <= nxt + 1):",
        "nxt = self.y.get(n + 1)\n            if nxt is not None and not (nxt <= val <= nxt + 2):",
        ("tests/test_invariants.py::test_each_broken_law_is_named[Y drops by 2]",),
    ),
    Mutant(
        "format-1 generators refused only when empty and not a list",
        "fileio.py",
        "if not isinstance(raw, list) or not raw:",
        "if not isinstance(raw, list) and not raw:",
        ("tests/test_fileio.py::test_format_1_generators_must_be_a_nonempty_list",),
    ),
    Mutant(
        "the symmetry check passes a breakpoint whose mirror is not one",
        "cli.py",
        "if points.get(2 - t) != y:",
        "if points.get(2 - t, y) != y:",
        ("tests/test_cli.py::test_consistency_failure_exits_4_with_one_line[asymmetric kink]",),
    ),
    Mutant(
        "the symmetry check names every asymmetric t",
        "cli.py",
        "                problems.append(f\"concordance function asymmetric at t = {t}\")\n                break\n",
        "                problems.append(f\"concordance function asymmetric at t = {t}\")\n",
        ("tests/test_cli.py::test_consistency_failure_exits_4_with_one_line[asymmetric concordance function]",),
    ),
    Mutant(
        "the initial-slope check reads the mirror's tau",
        "cli.py",
        "if slope != -table.tau:",
        "if slope != mtable.tau:",
        ("tests/test_cli.py::test_consistency_failure_exits_4_with_one_line[tau mirror asymmetry]",),
    ),
    Mutant(
        "the joined problems in reverse order",
        "cli.py",
        'raise ConsistencyError("; ".join(problems))',
        'raise ConsistencyError("; ".join(reversed(problems)))',
        ("tests/test_cli.py::test_consistency_failure_exits_4_with_one_line[two cross-check faults]",),
    ),
    Mutant(
        "the clasp bounds without the ratio bound",
        "cli.py",
        "clasp_bounds(table, mtable, ratio, signature, involutive)",
        "clasp_bounds(table, mtable, None, signature, involutive)",
        ("tests/test_digests.py::test_corpus_report_digest[J]",),
    ),
    Mutant(
        "the mirror's involutive record built from the knot's pair",
        "cli.py",
        '"mirror_involutive": _pair_payload(m_involutive),',
        '"mirror_involutive": _pair_payload(involutive),',
        ("tests/test_digests.py::test_corpus_report_digest[J]",),
    ),
    Mutant(
        "the human V ladder printed in string order",
        "cli.py",
        'print("V:", " ".join(f"{s}:{v}" for s, v in inv["V"].items()))',
        'print("V:", " ".join(f"{s}:{v}" for s, v in sorted(inv["V"].items())))',
        ("tests/test_cli.py::test_human_ladders_print_in_numeric_order",),
    ),
    Mutant(
        "plot_rows drops its end point",
        "bounds.py",
        "return [*rows, (upto, f(upto))]",
        "return rows",
        ("tests/test_cli.py::test_plotdata_locally_trivial_sum_is_zero",),
    ),
    # bisect_right agrees with bisect_left at every t but 2, where it passes
    # the last breakpoint: the closed-form test evaluates every f at t = 2.
    Mutant(
        "PLFunction finds its segment with bisect_right",
        "bounds.py",
        "from bisect import bisect_left\n",
        "from bisect import bisect_right as bisect_left\n",
        ("tests/test_closed_forms.py::test_upsilon_matches_the_torus_closed_form",),
    ),
    # No command reads the towers of a negative level's split, so only the
    # field-by-field check of every stored split kills the first of these.
    Mutant(
        "the split of level -s without its -2s shift",
        "fu.py",
        "[g + shift for g in self.unpaired],",
        "list(self.unpaired),",
        ("tests/test_level_reflection.py::test_every_stored_split_is_the_reduction_of_its_level[0]",),
    ),
    Mutant(
        "glue aliased when only one of the two levels is negative",
        "invariants.py",
        "aliased = max(key) < 0 and",
        "aliased = min(key) < 0 and",
        ("tests/test_invariants.py::test_levels_drop_their_basis_once_their_glue_is_built",),
    ),
    Mutant(
        "the split of level -s without its positions reflected",
        "fu.py",
        "self.pos[::-1],",
        "self.pos,",
        ("tests/test_level_reflection.py::test_every_stored_split_is_the_reduction_of_its_level[0]",),
    ),
    # A cached differential points back at its complex, so the complex outlives its
    # last reference until the cyclic collector runs.
    Mutant(
        "the differential cached on its complex",
        "complexes.py",
        '    @property\n    def d(self) -> "Differential":',
        '    @functools.cached_property\n    def d(self) -> "Differential":',
        ("tests/test_invariants.py::test_a_released_complex_is_freed_at_del[hw.cfk]",),
    ),
    Mutant(
        "a model lists each kept pair's entry transposed",
        "fu.py",
        "targets[coord[col]].append(coord[row])",
        "targets[coord[row]].append(coord[col])",
        ("tests/test_fu.py::test_split_matches_smith_form_on_random_complexes",),
    ),
    Mutant(
        "the split of level -s without its gradings reversed",
        "fu.py",
        "[g + shift for g in reversed(fu.gradings)]",
        "[g + shift for g in fu.gradings]",
        ("tests/test_level_reflection.py::test_every_stored_split_is_the_reduction_of_its_level[0]",),
    ),
    Mutant(
        "the split of level -s without its ties reflected",
        "fu.py",
        "ties=[n - 1 - i for i in fu.ties]",
        "ties=fu.ties",
        ("tests/test_level_reflection.py::test_every_stored_split_is_the_reduction_of_its_level[0]",),
    ),
    # At s = 0 the two end blocks have equal sizes on any complex with the
    # knot symmetry, so only the asymmetric sums tell them apart.
    Mutant(
        "the hat ends take the last block's start from the first block's size",
        "invariants.py",
        "end = len(split.fu) - len(level_split(c, -n).model)",
        "end = len(split.fu) - len(level_split(c, n).model)",
        ("tests/test_invariants.py::test_omega_hat_needs_both_ends_on_asymmetric_complexes",),
    ),
    Mutant(
        "the sum involution takes Psi2 from the first factor",
        "involutive.py",
        'basepoint_map(iota2.source, "V")',
        'basepoint_map(iota1.source, "V")',
        ("tests/test_involutive.py::test_connected_sum_matches_explicit_polynomials",),
    ),
    # The next three leave every report of the corpus unchanged: only the
    # structural check of each derived entry against the direct route kills them.
    # On a torus sum the tower cycle and cocycle of each quotient are one
    # generator, so only a sum with a scrambled summand tells them apart.
    Mutant(
        "the Kunneth cocycle with phi_S replaced by the all-ones mask",
        "invariants.py",
        "spread(phi, m) * psi",
        "spread(phi, m) * ((1 << m) - 1)",
        ("tests/test_quotients.py::test_derived_quotients_match_the_direct_reduction[0]",),
    ),
    Mutant(
        "the Kunneth cocycle with phi_S replaced by e_0",
        "invariants.py",
        "spread(phi, m) * psi",
        "spread(phi, m) * 1",
        ("tests/test_quotients.py::test_derived_quotients_match_the_direct_reduction[0]",),
    ),
    Mutant(
        "the mirror keeps the knot's cocycle instead of its tower cycle",
        "invariants.py",
        "(entry[0], entry[2], entry[1])",
        "(entry[0], entry[1], entry[2])",
        ("tests/test_quotients.py::test_derived_quotients_of_nested_sums_and_of_sums_with_files",),
    ),
    Mutant(
        "a sum given an entry when a summand's entry is None",
        "invariants.py",
        "        if a and b:\n",
        "        if a or b:\n",
        ("tests/test_quotients.py::test_a_sum_with_a_summand_without_one_tower_has_no_entry",),
    ),
    # The two orders agree when both factors' towers sit at their first index, or
    # both at their last, as on torus sums and HW: only a summand with a tower inside tells them apart.
    Mutant(
        "the Kunneth index with its factors swapped",
        "invariants.py",
        "(i * m + j, spread",
        "(j * len(left) + i, spread",
        ("tests/test_quotients.py::test_derived_quotients_of_nested_sums_and_of_sums_with_files",),
    ),
    Mutant(
        "realize's mirror built by dualizing the child, without its entries",
        "involutive.py",
        "c = release_to_dual(child)",
        "c = child.dual()",
        ("tests/test_quotients.py::test_a_report_reduces_the_quotients_of_atoms_only",),
    ),
    Mutant(
        "the signature jumps merged without their scaling to the common denominator",
        "bounds.py",
        "scale = denominator // (p * q)",
        "scale = 1",
        ("tests/test_bounds.py::test_upsilon_and_signature_match_the_envelope_oracle",),
    ),
    Mutant(
        "TorusKnot.problem without its size ceiling",
        "expressions.py",
        "        if (self.p - 1) * (self.q - 1) > MAX_TORUS_DEGREE:\n",
        "        if False:\n",
        ("tests/test_expressions.py::test_parse_rejects_torus_parameters_past_the_ceiling",),
    ),
    Mutant(
        "a model keeps the contractible pairs instead of those with k > 0",
        "fu.py",
        "if gradings[order[row]] != gradings[order[col]] - 1]",
        "if gradings[order[row]] == gradings[order[col]] - 1]",
        ("tests/test_fullwidth.py::test_model_of_random_complexes_matches_the_full_scan",),
    ),
    Mutant(
        "the v1 probe cleared at A = s too",
        "invariants.py",
        "if (alexander[i] > s) if",
        "if (alexander[i] >= s) if",
        ("tests/test_fullwidth.py::test_hat_ends_of_multi_bit_cocycles_match_the_full_width_probe",),
    ),
    Mutant(
        "nu's probe cut at A < s",
        "invariants.py",
        "if (alexander[i] > s) if",
        "if (alexander[i] < s) if",
        ("tests/test_invariants.py::test_nu_matches_full_scan_oracle",),
    ),
    Mutant(
        "nu reading grading g + 2",
        "invariants.py",
        'if _end(c, "U0", s, g):',
        'if _end(c, "U0", s, g + 2):',
        ("tests/test_invariants.py::test_nu_matches_full_scan_oracle",),
    ),
    Mutant(
        "V_s read from level s + 1's split",
        "invariants.py",
        "_correction(level_split(c, s).top_grading(), s, 0)",
        "_correction(level_split(c, s + 1).top_grading(), s, 0)",
        ("tests/test_closed_forms.py::test_closed_forms_match_the_program",),
    ),
    Mutant(
        "save_complex compares only the labels of iota's source",
        "fileio.py",
        "if iota is not None and not iota.is_on(complex_):",
        "if iota is not None and iota.source.labels != complex_.labels:",
        ("tests/test_fileio.py::test_failed_save_keeps_existing_file[iota of a same-labelled copy]",),
    ),
    Mutant(
        "a sum marked reversal-symmetric when one summand is",
        "invariants.py",
        "if left.reversal_symmetric and right.reversal_symmetric:",
        "if left.reversal_symmetric or right.reversal_symmetric:",
        ("tests/test_quotients.py::test_sums_and_mirrors_inherit_reversal_symmetry_only_when_it_holds",),
    ),
    Mutant(
        "a mirror marked reversal-symmetric unconditionally",
        "invariants.py",
        "    if c.reversal_symmetric:\n        dual.__dict__",
        "    if True:\n        dual.__dict__",
        ("tests/test_quotients.py::test_sums_and_mirrors_inherit_reversal_symmetry_only_when_it_holds",),
    ),
    Mutant(
        "a concordance function accepted with a nonzero value at 0",
        "bounds.py",
        "        if self.values[0] != 0:\n",
        "        if False:\n",
        ("tests/test_bounds.py::test_pl_function_rejects_a_nonzero_start",),
    ),
    Mutant(
        "the dual built without its lists",
        "complexes.py",
        "[-z for z in self.grz], cols, targets)",
        "[-z for z in self.grz], cols)",
        ("tests/test_fileio.py::test_built_target_lists_are_the_builders_own",),
    ),
    Mutant(
        "a loaded iota built without its lists",
        "fileio.py",
        'iota = SkewMap(complex_, *_read_targets(raw, "iota", complex_.labels))',
        'iota = SkewMap(complex_, _read_targets(raw, "iota", complex_.labels)[0])',
        ("tests/test_fileio.py::test_built_target_lists_are_the_builders_own",),
    ),
    Mutant(
        "the certificate's u and v read from swapped gradings",
        "cli.py",
        '"u": (c.grw[i] - top) // 2, "v": (c.grz[i] - top) // 2',
        '"u": (c.grz[i] - top) // 2, "v": (c.grw[i] - top) // 2',
        ("tests/test_cli.py::test_certificates_block",),
    ),
    Mutant(
        "the certificate reads the tower cocycle instead of the tower cycle",
        "cli.py",
        "iter_bits(split.cycle())",
        "iter_bits(split.cocycle())",
        ("tests/test_certificate.py::test_certificate_of_seeded_sums_mirrors_and_scrambles",),
    ),
    Mutant(
        "a report of a sum whose generator labels repeat",
        "cli.py",
        "    if len(set(complex_.labels)) < len(complex_):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_sum_of_files_with_colliding_labels",),
    ),
)

# The two halves of the exponent comparison, swapped: the same test must pass.
BENIGN = Mutant(
    "the format-1 exponent comparison with its halves swapped",
    "fileio.py",
    "if tw[j] - bw[i] == 2 * u and tz[j] - bz[i] == 2 * v:",
    "if tz[j] - bz[i] == 2 * v and tw[j] - bw[i] == 2 * u:",
    MUTANTS[0].tests,
)


def _copy_src(root: str) -> str:
    src = os.path.join(root, "src")
    shutil.copytree(os.path.join(REPO, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _apply(src: str, mutant: Mutant) -> bool:
    """Replace the mutant's old text in the copy; False when it does not occur exactly once."""
    path = os.path.join(src, "knotfloer", mutant.path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(mutant.old, mutant.new))
    return True


def _run_tests(src: str, tests) -> subprocess.CompletedProcess:
    """Run the tests against the knotfloer package in src, after checking that it is the one imported."""
    env = dict(os.environ, PYTHONPATH=src)
    found = subprocess.run(
        [sys.executable, "-c", "import knotfloer; print(knotfloer.__file__)"],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not found.startswith(src + os.sep):
        raise SystemExit(f"knotfloer imports from {found}, not from the copy in {src}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=REPO, env=env, capture_output=True, text=True,
    )


def outcome(mutant: Mutant) -> str:
    """'killed', 'survived' or 'stale' (its old text does not occur exactly once)."""
    with tempfile.TemporaryDirectory() as root:
        src = _copy_src(root)
        if not _apply(src, mutant):
            return "stale"
        return "survived" if _run_tests(src, mutant.tests).returncode == 0 else "killed"


def main() -> int:
    tests = sorted({test for mutant in (*MUTANTS, BENIGN) for test in mutant.tests})
    with tempfile.TemporaryDirectory() as root:
        baseline = _run_tests(_copy_src(root), tests)
    if baseline.returncode != 0:
        print(baseline.stdout + baseline.stderr)
        print("FAIL: the named tests do not pass on the unmutated source")
        return 1
    failed = False
    benign = outcome(BENIGN)
    print(f"self-test: {benign}: {BENIGN.name}")
    if benign != "survived":
        print("FAIL: the benign mutant must survive")
        failed = True
    for mutant in MUTANTS:
        result = outcome(mutant)
        print(f"{result}: {mutant.name} ({mutant.path})")
        failed |= result != "killed"
    print("FAIL" if failed else f"ok: {len(MUTANTS)} mutants killed, the benign one survived")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
