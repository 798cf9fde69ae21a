"""Mutants of heisenmod that the tests must kill.

Each mutant replaces one exact piece of text in one file under src/ and
names the tests expected to fail on it.  Run

    python tests/mutants.py

to apply each mutant in turn to a temporary copy of src/ (with tests/ and
pyproject.toml beside it), run its tests there in a subprocess, and report
the mutants no test killed.  The exit status is 1 when any survives.
pytest does not collect this file; test_mutants.py checks that every
mutant's text still occurs exactly once, so the table cannot go stale.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "classify checks only the y relations",
        "heisenmod/heisenberg.py",
        "(shifts[k] * t).data != raised or (nils[k] * t).data != lowered",
        "(shifts[k] * t).data != raised",
        ("tests/test_heisenberg.py::test_classify_refuses_non_v_like_the_oracle",
         "tests/test_heisenberg.py::test_classify_agrees_with_the_oracle_on_arbitrary_images",
         "tests/test_heisenberg.py::test_classify_refuses_every_single_entry_change"),
    ),
    Mutant(
        "classify names every failure a failed relation",
        "heisenmod/heisenberg.py",
        '            verify(not t.det().is_zero(), "classification basis must be invertible")\n',
        "",
        ("tests/test_heisenberg.py::test_classify_refuses_non_v_like_the_oracle",
         "tests/test_heisenberg.py::test_classify_agrees_with_the_oracle_on_arbitrary_images"),
    ),
    Mutant(
        "the common eigenvector may be zero",
        "heisenmod/heisenberg.py",
        "verify(any(v), ",
        "verify(True, ",
        ("tests/test_heisenberg.py::test_classify_refuses_a_vanishing_nilpotent_product",
         "tests/test_heisenberg.py::test_classify_agrees_with_the_oracle_on_arbitrary_images"),
    ),
    Mutant(
        "invariants accepts a non-scalar p-th power",
        "heisenmod/heisenberg.py",
        "        if not (top * nil).is_zero():\n",
        "        if False:\n",
        ("tests/test_heisenberg.py::test_invariants_agree_with_the_full_power_oracle",
         "tests/test_heisenberg.py::test_classify_refuses_non_v_like_the_oracle",
         "tests/test_heisenberg.py::test_classify_agrees_with_the_oracle_on_arbitrary_images"),
    ),
    Mutant(
        "invariants accepts a proper divisor of X^p - c",
        "heisenmod/heisenberg.py",
        "        if top.is_zero():\n",
        "        if False:\n",
        ("tests/test_heisenberg.py::test_invariants_agree_with_the_full_power_oracle",
         "tests/test_heisenberg.py::test_classify_rejects_bad_min_poly_shape",
         "tests/test_heisenberg.py::test_classify_refuses_non_v_like_the_oracle"),
    ),
    Mutant(
        "c is read from the last entry of m^p e_0",
        "heisenmod/heisenberg.py",
        "FieldElem(m.field, v[0])",
        "FieldElem(m.field, v[-1])",
        ("tests/test_heisenberg.py::test_invariants_agree_with_the_full_power_oracle",
         "tests/test_heisenberg.py::test_classify_matches_invariants_first_oracle"),
    ),
    Mutant(
        "c is read from p - 1 applications of m",
        "heisenmod/heisenberg.py",
        "for _ in range(m.field.p - 1):\n        v = m.apply(v)",
        "for _ in range(m.field.p - 2):\n        v = m.apply(v)",
        ("tests/test_heisenberg.py::test_invariants_agree_with_the_full_power_oracle",
         "tests/test_heisenberg.py::test_classify_matches_invariants_first_oracle"),
    ),
    Mutant(
        "classify's fallback skips the shape test",
        "heisenmod/heisenberg.py",
        "        _check_shapes(nils)  # the min-poly shape error, where it applies\n",
        "",
        ("tests/test_heisenberg.py::test_classify_refuses_non_v_like_the_oracle",
         "tests/test_heisenberg.py::test_classify_agrees_with_the_oracle_on_arbitrary_images"),
    ),
    Mutant(
        "split_by_central takes kernels at exponent e - 1",
        "heisenmod/modules.py",
        "(shifted**e)",
        "(shifted**(e - 1))",
        ("tests/test_modules.py::test_split_by_central_takes_kernels_at_the_min_poly_multiplicity",
         "tests/test_modules.py::test_split_by_central_over_the_splitting_field"),
    ),
    Mutant(
        "the partner's stacked system drops the ad_Z rows",
        "heisenmod/modules.py",
        "_ad(Matrix(field, d, d, z)).data",
        "[0] * (n * n)",
        ("tests/test_modules.py::test_rank1_partner_agrees_with_brute_force",
         "tests/test_modules.py::test_rank1_partners_are_pinned"),
    ),
    Mutant(
        "the partner search tries only U's first line",
        "heisenmod/modules.py",
        "for v in _line_vectors(field, u):",
        "for v in u[:1]:",
        ("tests/test_modules.py::test_rank1_partner_agrees_with_brute_force",
         "tests/test_modules.py::test_rank1_partners_are_pinned"),
    ),
    Mutant(
        "U's basis keeps the rows pivoted in the first block",
        "heisenmod/modules.py",
        "if n <= c < 2 * n]",
        "if c < 2 * n]",
        ("tests/test_modules.py::test_rank1_partner_agrees_with_brute_force",
         "tests/test_modules.py::test_rank1_partners_are_pinned"),
    ),
    Mutant(
        "U's basis drops its last row",
        "heisenmod/modules.py",
        "if n <= c < 2 * n]",
        "if n <= c < 2 * n][:-1]",
        ("tests/test_modules.py::test_rank1_partner_agrees_with_brute_force",
         "tests/test_modules.py::test_rank1_partners_are_pinned"),
    ),
    Mutant(
        "the preimage of each line of U goes unchecked",
        "heisenmod/modules.py",
        "verify(ad.apply(b0) == z, ",
        "verify(True, ",
        ("tests/test_modules.py::test_rank1_partner_checks_each_preimage",),
    ),
    Mutant(
        "a dimension-p leaf admits z = 0",
        "heisenmod/modules.py",
        "alpha is not None and alpha.code != 0",
        "alpha is not None",
        ("tests/test_modules.py::test_dimension_p_leaves_match_the_oracle",),
    ),
    Mutant(
        "a dimension-p leaf skips the bracket check",
        "heisenmod/modules.py",
        "any(commutator(x, y) == rep.z for x, y in zip(rep.x, rep.y))",
        "True",
        ("tests/test_modules.py::test_dimension_p_leaves_match_the_oracle",),
    ),
    Mutant(
        "every node of dimension divisible by p may be a leaf",
        "heisenmod/modules.py",
        "if rep.dim == rep.field.p else None",
        "if rep.dim % rep.field.p == 0 else None",
        ("tests/test_modules.py::test_dimension_p_leaves_match_the_oracle",
         "tests/test_modules.py::test_composition_series_of_conjugated_sum_over_gf7"),
    ),
    Mutant(
        "det goes on past a row that reduces to zero",
        "heisenmod/matrices.py",
        "            if not w:\n                return ech, 0\n",
        "            if not w:\n                continue\n",
        ("tests/test_matrices.py::test_det_matches_permutation_expansion_exhaustive_gf2",
         "tests/test_matrices.py::test_det_inv_and_solve_match_oracles"),
    ),
    Mutant(
        "Echelon._clear returns a non-canonical pack",
        "heisenmod/matrices.py",
        "        return codec.canon(w, self.width) if w != start else w\n",
        "        return w\n",
        ("tests/test_matrices.py::test_echelon_matches_per_entry_oracle",
         "tests/test_matrices.py::test_rref_and_kernel_match_oracle"),
    ),
    Mutant(
        "the back-substitution skips the last stored row",
        "heisenmod/matrices.py",
        "        for j in range(1, k):\n",
        "        for j in range(1, k - 1):\n",
        ("tests/test_matrices.py::test_rref_and_kernel_match_oracle",
         "tests/test_matrices.py::test_echelon_matches_per_entry_oracle"),
    ),
    Mutant(
        "inv misses a pivot in the first identity column",
        "heisenmod/matrices.py",
        "if any(c >= n for c in ech.pivots):",
        "if any(c > n for c in ech.pivots):",
        ("tests/test_matrices.py::test_det_inv_and_solve_match_oracles",),
    ),
    Mutant(
        "solve ignores an inconsistent system",
        "heisenmod/matrices.py",
        "        if self.cols in ech.pivots:\n            return None\n",
        "",
        ("tests/test_matrices.py::test_solve_finds_a_solution_and_detects_inconsistency",
         "tests/test_matrices.py::test_stacked_and_tiny_systems_match_oracle"),
    ),
    Mutant(
        "elimination does not stop once the echelon is full",
        "heisenmod/matrices.py",
        "        if len(stored) == width:\n            break\n",
        "",
        ("tests/test_matrices.py::test_elimination_stops_once_the_echelon_is_full",),
    ),
    Mutant(
        "char_poly always returns the minimal polynomial",
        "heisenmod/matrices.py",
        "return m if m.degree == a.rows else functools.reduce(operator.mul, orders)",
        "return m",
        ("tests/test_matrices.py::test_char_poly_of_repeated_blocks_reads_the_krylov_pass",
         "tests/test_matrices.py::test_canonical_forms_are_pinned"),
    ),
    Mutant(
        "the lcm split moves one common part only",
        "heisenmod/matrices.py",
        "while (c := g1.gcd(h1)).degree > 0:",
        "if (c := g1.gcd(h1)).degree > 0:",
        ("tests/test_matrices.py::test_min_poly_and_frobenius_form_of_repeated_blocks",
         "tests/test_matrices.py::test_canonical_forms_are_pinned"),
    ),
    Mutant(
        "the Jordan cofactor keeps one factor X - lam",
        "heisenmod/matrices.py",
        "            for _ in range(e):\n                cofactor = cofactor // lin\n",
        "            for _ in range(e - 1):\n                cofactor = cofactor // lin\n",
        ("tests/test_matrices.py::test_jordan_form_matches_the_rank_oracle",
         "tests/test_matrices.py::test_canonical_forms_are_pinned"),
    ),
    Mutant(
        "Jordan blocks are sorted by eigenvalue only",
        "heisenmod/matrices.py",
        "key=lambda c: (c[0], -len(c[1]))",
        "key=lambda c: c[0]",
        ("tests/test_matrices.py::test_jordan_form_orders_blocks_by_eigenvalue_then_size",
         "tests/test_matrices.py::test_jordan_form_matches_the_rank_oracle"),
    ),
    Mutant(
        "_order returns 1",
        "heisenmod/matrices.py",
        "        g = g * r\n    return g\n",
        "        g = g * r\n    return Poly._raw(g.field, [1])\n",
        ("tests/test_matrices.py::test_min_poly_matches_kernel_oracle_exhaustive_gf2",
         "tests/test_matrices.py::test_min_poly_matches_kernel_oracle_random"),
    ),
    Mutant(
        "Poly products use a codec one product too narrow",
        "heisenmod/fields.py",
        "row_codec[min(len(a), len(b))]",
        "row_codec[min(len(a), len(b)) - 1]",
        ("tests/test_fields.py::test_packed_poly_arithmetic_at_largest_codes",),
    ),
    Mutant(
        "Poly division uses a codec one product too narrow",
        "heisenmod/fields.py",
        "        codec = field.row_codec[n + 1]\n        quo, rem",
        "        codec = field.row_codec[n]\n        quo, rem",
        ("tests/test_fields.py::test_poly_division_at_the_slot_steps",),
    ),
    Mutant(
        "the primitive-element search starts at 2",
        "heisenmod/fields.py",
        "for g in range(1, q):",
        "for g in range(2, q):",
        ("tests/test_fields.py::test_degree_one_extensions_match_the_oracle",
         "tests/test_fields.py::test_generator_is_a_code_and_a_root_of_the_modulus"),
    ),
    Mutant(
        "the restriction basis is alpha^(2i)",
        "heisenmod/heisenberg.py",
        "(alpha**i).coeffs",
        "(alpha**(2 * i)).coeffs",
        ("tests/test_heisenberg.py::test_build_restriction_rep_display",
         "tests/test_heisenberg.py::test_build_restriction_rep_with_another_alpha_matches_the_oracle"),
    ),
    Mutant(
        "the Sec 4 display swaps kron's factors",
        "heisenmod/suites.py",
        "kron(eye_p, ra)",
        "kron(ra, eye_p)",
        ("tests/test_suites.py::test_every_suite_runs_green_on_a_small_slice",),
    ),
    Mutant(
        "_line_vectors skips the last line",
        "heisenmod/modules.py",
        "for lead, top in enumerate(rows):",
        "for lead, top in enumerate(rows[:-1]):",
        ("tests/test_modules.py::test_inherited_elements_match_subspace_enumeration",
         "tests/test_modules.py::test_inherited_kernel_lines_match_the_oracle"),
    ),
    Mutant(
        "the quotient block drops its W^T[F, :] m[P, F] term",
        "heisenmod/modules.py",
        "return _block(m, free, free) - w_free * _block(m, pivots, free)",
        "return _block(m, free, free)",
        ("tests/test_modules.py::test_subquotients_match_the_oracle",
         "tests/test_modules.py::test_subquotients_match_the_oracle_on_generated_modules"),
    ),
    Mutant(
        "the trace filter forgets the previous factor",
        "heisenmod/modules.py",
        "want = neg(add(total, second(prev)))",
        "want = neg(total)",
        ("tests/test_modules.py::test_trace_zero_chains_are_the_classes_of_trace_zero",),
    ),
    Mutant(
        "a series child inherits no Holt-Rees pair",
        "heisenmod/modules.py",
        "lambda: (sub_of(a), f)",
        "None",
        ("tests/test_modules.py::test_inherited_kernel_lines_keep_the_gain",),
    ),
    Mutant(
        "the row table's entry c is elem[c - 1] times the row",
        "heisenmod/matrices.py",
        "[elem[c] * row for c in range(q)]",
        "[elem[c - 1] * row for c in range(q)]",
        ("tests/test_matrices.py::test_reused_right_factor_matches_the_oracle",
         "tests/test_matrices.py::test_product_at_largest_codes_has_no_slot_carry"),
    ),
    Mutant(
        "the row table's entry 1 is zero",
        "heisenmod/matrices.py",
        "[elem[c] * row for c in range(q)]",
        "[elem[c] * row if c != 1 else 0 for c in range(q)]",
        ("tests/test_matrices.py::test_reused_right_factor_matches_the_oracle",
         "tests/test_matrices.py::test_row_table_needs_q_minus_one_rows"),
    ),
    Mutant(
        "a product reads A's row i shifted by one entry",
        "heisenmod/matrices.py",
        "terms[i * c : (i + 1) * c]",
        "terms[i * c + 1 : (i + 1) * c + 1]",
        ("tests/test_matrices.py::test_reused_right_factor_matches_the_oracle",
         "tests/test_matrices.py::test_product_at_largest_codes_has_no_slot_carry"),
    ),
    Mutant(
        "a row table is built past its size bound",
        "heisenmod/matrices.py",
        "codec.bits <= _ROW_TABLE_BITS",
        "codec.bits <= 2 * _ROW_TABLE_BITS",
        ("tests/test_matrices.py::test_row_table_stays_within_its_size_bound",),
    ),
)


def killed(mutant: Mutant) -> bool:
    """Whether any of the mutant's tests fails on a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        top = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, top / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", top)
        target = top / "src" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: text does not occur exactly once")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=top, capture_output=True, text=True,
        )
        if proc.returncode not in (0, 1):  # not a plain pass or fail
            raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n"
                               + proc.stdout + proc.stderr)
        return proc.returncode == 1


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        ok = killed(mutant)
        print(f"{'killed ' if ok else 'SURVIVED'}  {mutant.name}")
        if not ok:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
