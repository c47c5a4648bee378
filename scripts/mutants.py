#!/usr/bin/env python3
"""Mutation check of the library's fast paths and checks.

    python3 scripts/mutants.py                 # every mutant
    python3 scripts/mutants.py --only NAME...  # the named mutants

Each entry of ``MUTANTS`` breaks one kernel or check on purpose: it names a file of the
checkout, an exact text that occurs in it once, the text that replaces it, and
the pytest node ids that must fail on the broken copy.  The script applies one
mutant at a time to a temporary copy of the checkout, runs only those tests
there under a CPU-time limit (``CPU_SECONDS``, an rlimit on the child), and
prints one line per mutant:

- ``killed``: every listed test failed;
- ``killed (cpu limit)``: the run ran out of CPU time (or of four times as
  much wall time) before it passed;
- ``SURVIVED``: some listed test passed, named on the line;
- ``STALE``: the old text is gone or not unique, so the entry needs updating;
- ``ERROR``: pytest could not run the listed tests (a node id that does not
  exist, or a mutant that breaks collection), so the entry needs updating.

The exit status is 0 when every mutant run was killed, 1 otherwise.  A
survivor is a finding about the tests, not about the list: keep the entry and
strengthen the tests.  A change that adds a kernel adds its mutants here.
"""

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a mutant that makes a kernel loop forever is stopped, not waited for
CPU_SECONDS = 120
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".benchmarks", "out", "*.egg-info")

SEMIFIELD = "src/troprays/semifield.py"
QUADSPACE = "src/troprays/quadspace.py"
SF_TESTS = "tests/test_semifield.py"
SF_LATTICE = "tests/test_semifield_lattice.py"
QS_TESTS = "tests/test_quadspace.py"
VEC_LATTICE = "tests/test_vector_lattice.py"
RECORDS = "tests/test_records.py"
STRATA = "src/troprays/strata.py"
ISOTROPY = "src/troprays/isotropy.py"
ISO_TESTS = "tests/test_isotropy.py"
PMFUNC = "src/troprays/pmfunc.py"
PM_LATTICE = "tests/test_pm_lattice.py"
ORACLE = "src/troprays/oracle.py"
ORACLE_TESTS = "tests/test_oracle.py"
SAMPLING_TESTS = "tests/test_sampling.py"
FRONTIER = "src/troprays/frontier.py"
FR_TESTS = "tests/test_frontier.py"

MUTANTS = [
    {
        "name": "value-unreduced",
        "why": "_value keeps num/den as it is, so equal values get unequal pairs",
        "file": SEMIFIELD,
        "old": "            num, den = num // g, den // g\n",
        "new": "            pass\n",
        "tests": [
            f"{SF_TESTS}::test_products_and_quotients_come_out_reduced",
            f"{SF_LATTICE}::test_equal_values_by_different_routes",
            f"{VEC_LATTICE}::test_products_and_quotients_on_one_denominator",
        ],
    },
    {
        "name": "div-adds-exponents",
        "why": "the finite quotient adds the exponents instead of subtracting them",
        "file": SEMIFIELD,
        "old": "return _value(self.num * d - other.num * b, b * d)",
        "new": "return _value(self.num * d + other.num * b, b * d)",
        "tests": [
            f"{SF_TESTS}::test_products_and_quotients_come_out_reduced",
            f"{SF_LATTICE}::test_binary_operations_and_order",
        ],
    },
    {
        "name": "vector-unreduced",
        "why": "_vector keeps a common factor of d and the numerators",
        "file": QUADSPACE,
        "old": "            d //= g\n            nums = tuple([None if x is None else x // g for x in nums])\n",
        "new": "            pass\n",
        "tests": [
            f"{QS_TESTS}::test_vector_sum_comes_out_reduced",
            f"{QS_TESTS}::test_vector_scaling_comes_out_reduced",
            f"{VEC_LATTICE}::test_add",
            f"{VEC_LATTICE}::test_scale",
        ],
    },
    {
        "name": "vector-sum-takes-min",
        "why": "the one-pass sum keeps the smaller of two finite numerators",
        "file": QUADSPACE,
        "old": "y is None or y * sy < x * sx else y * sy",
        "new": "y is None or y * sy > x * sx else y * sy",
        "tests": [
            f"{QS_TESTS}::test_vector_sum_comes_out_reduced",
            f"{QS_TESTS}::test_validate_passes_on_m1",
            f"{VEC_LATTICE}::test_add",
        ],
    },
    {
        "name": "vector-sum-one-den-takes-min",
        "why": "the sum on one denominator keeps the smaller of two finite numerators",
        "file": QUADSPACE,
        "old": "x if y is None or y < x else y",
        "new": "x if y is None or y > x else y",
        "tests": [
            f"{QS_TESTS}::test_vector_sum_comes_out_reduced",
            f"{VEC_LATTICE}::test_add_on_one_denominator",
        ],
    },
    {
        "name": "vector-gcd-stops-early",
        "why": "_vector ends its gcd pass at the first finite numerator",
        "file": QUADSPACE,
        "old": "                if g == 1:\n                    break\n",
        "new": "                break\n",
        "tests": [
            f"{VEC_LATTICE}::test_add_on_one_denominator",
            f"{VEC_LATTICE}::test_scale_on_one_denominator",
        ],
    },
    {
        "name": "scale-admits-oo",
        "why": "scaling by oo returns the zero vector instead of raising ValueError",
        "file": QUADSPACE,
        "old": "            if lam.kind > 0:\n",
        "new": "            if False:\n",
        "tests": [
            f"{QS_TESTS}::test_vector_scaling_comes_out_reduced",
            f"{VEC_LATTICE}::test_scale_on_one_denominator",
        ],
    },
    {
        "name": "gram-q-reads-unscaled-numerators",
        "why": "q(x) reads x's numerators over x.d when the lattice is finer",
        "file": QUADSPACE,
        "old": "_q_max(q_rows, den // d, x.nums if den == x.d else _on(x, den))",
        "new": "_q_max(q_rows, den // d, x.nums)",
        "tests": [
            f"{QS_TESTS}::test_gram_values_on_mixed_denominators",
            f"{VEC_LATTICE}::test_gram_views_on_one_denominator",
        ],
    },
    {
        "name": "gram-b-reads-unscaled-numerators",
        "why": "b(x, y) reads y's numerators over y.d when the lattice is finer",
        "file": QUADSPACE,
        "old": "y.nums if den == y.d else _on(y, den)), den",
        "new": "y.nums), den",
        "tests": [
            f"{QS_TESTS}::test_gram_values_on_mixed_denominators",
            f"{VEC_LATTICE}::test_gram_views_on_one_denominator",
        ],
    },
    {
        "name": "gram-b-skips-dimension-check",
        "why": "b(x, y) reads vectors of the wrong length without DimensionMismatch",
        "file": QUADSPACE,
        "old": "        if len(x.nums) != self.dim or len(y.nums) != self.dim:\n"
               "            self._check(x, y)\n",
        "new": "",
        "tests": [f"{QS_TESTS}::test_dimension_mismatch"],
    },
    {
        "name": "gram-q-skips-dimension-check",
        "why": "q(x) reads a vector of the wrong length without DimensionMismatch",
        "file": QUADSPACE,
        "old": "            if len(x.nums) != self.dim:\n                self._check(x)\n",
        "new": "",
        "tests": [f"{QS_TESTS}::test_dimension_mismatch"],
    },
    {
        "name": "frozen-allows-assignment",
        "why": "a model's field can be assigned, leaving its lattice form stale",
        "file": QUADSPACE,
        "old": '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "new": "        object.__setattr__(self, name, value)\n",
        "tests": [
            f"{RECORDS}::test_fields_cannot_be_assigned_or_deleted[QuadraticPair]",
            f"{RECORDS}::test_fields_cannot_be_assigned_or_deleted[BasicFunction]",
        ],
    },
    {
        "name": "model-eq-ignores-b",
        "why": "two models that differ only in b compare equal",
        "file": QUADSPACE,
        "old": "        return self._key() == other._key()\n",
        "new": "        return self._key()[:2] == other._key()[:2]\n",
        "tests": [f"{RECORDS}::test_model_equality_reads_every_field"],
    },
    {
        "name": "family-admits-oo",
        "why": "BasicFunction skips its check for an oo coefficient",
        "file": "src/troprays/csfun.py",
        "old": "        if any(coeff.is_infinite() for coeff, _ in terms):\n",
        "new": "        if False:\n",
        "tests": ["tests/test_csfun.py::test_basic_function_rejects_infinite_coefficient"],
    },
    {
        "name": "add-skips-type-test",
        "why": "t + f with a non-TropValue f reads f.kind: an int raises AttributeError, "
               "a constant-oo PmFunction comes back as the sum",
        "file": SEMIFIELD,
        "old": '(bipotent)."""\n        if not isinstance(other, TropValue):\n'
               "            return NotImplemented\n",
        "new": '(bipotent)."""\n',
        "tests": [
            f"{SF_TESTS}::test_mixed_operands_raise_type_error[add-int]",
            f"{SF_TESTS}::test_mixed_operands_raise_type_error[add-pm]",
        ],
    },
    {
        "name": "parse-drops-sign",
        "why": "the text parser reads \"-3/4\" as t^(3/4)",
        "file": SEMIFIELD,
        "old": '    sign = -1 if body[:1] == "-" else 1\n',
        "new": "    sign = 1\n",
        "tests": [f"{SF_LATTICE}::test_parse", f"{SF_LATTICE}::test_finite"],
    },
    {
        "name": "parse-decimal-scale-short",
        "why": "the text parser scales a decimal by one power of ten too few, "
               "so \"0.5\" reads as t^5",
        "file": SEMIFIELD,
        "old": "            den = 10 ** len(frac)\n",
        "new": "            den = 10 ** (len(frac) - 1) if frac else 1\n",
        "tests": [
            f"{SF_TESTS}::test_float_exponents_are_rejected",
            f"{SF_LATTICE}::test_parse",
        ],
    },
    {
        "name": "parse-admits-exponent",
        "why": "the text parser hands text it does not read to Fraction, which "
               "reads \"1e3\" as t^1000 and \"1_0\" as t^10",
        "file": SEMIFIELD,
        "old": '    raise ValueError(f"invalid exponent text {text!r}")\n',
        "new": "    from fractions import Fraction\n    exp = Fraction(text)\n"
               "    return _value(exp.numerator, exp.denominator)\n",
        "tests": [
            f"{SF_TESTS}::test_t_and_parse_refuse_what_value_of_refuses[1e3]",
            f"{SF_TESTS}::test_t_and_parse_refuse_what_value_of_refuses[1_0]",
            f"{SF_LATTICE}::test_parse",
        ],
    },
    {
        "name": "hull-keeps-collinear",
        "why": "the hull builder keeps a line that passes through the crossing of its "
               "neighbours, so two breakpoints coincide",
        "file": "src/troprays/pmfunc.py",
        "old": "if (c0 - c) * (k1 - k0) > (c0 - c1) * (k - k0):",
        "new": "if (c0 - c) * (k1 - k0) >= (c0 - c1) * (k - k0):",
        "tests": [
            "tests/test_pm_lattice.py::test_canonical_form_across_routes",
            "tests/test_csfun.py::test_q_profile_boundary_case",
            "tests/test_isotropy.py::test_entrance_case_a_bound",
        ],
    },
    {
        "name": "numerator-b-for-2b",
        "why": "the term rule reads b(v, w) for 2 b(v, w), so CS loses its square",
        "file": QUADSPACE,
        "old": "                    b = 2 * b + c\n",
        "new": "                    b = b + c\n",
        "tests": [
            "tests/test_cs_lattice.py::test_zero_coefficients",
            "tests/test_cs_lattice.py::test_repeated_anchors",
            "tests/test_frame.py::test_anchor_equal_to_an_end_shares_its_gram_value",
        ],
    },
    {
        "name": "fill-reuses-first-entry",
        "why": "a frame entry made after a fill starts with the first filled entry's column "
               "and N, so a later vector on the same frame reads another vector's numerators",
        "file": QUADSPACE,
        "old": "hit = self._seen[v] = [xs, _q_max(self._q_rows, self._s, xs), None, None]",
        "new": "hit = self._seen[v] = [xs, _q_max(self._q_rows, self._s, xs), *next(\n"
               "                (e[2:] for e in self._seen.values() if e[3] is not None),\n"
               "                (None, None))]",
        "tests": [
            "tests/test_frame.py::test_one_binding_read_many_times_matches_one_off_calls",
            "tests/test_strata.py::test_chart_m1_chain",
            "tests/test_strata.py::test_derivation_chart_forms_one_column_per_vector_and_lattice",
        ],
    },
    {
        "name": "c2a-non-strict",
        "why": "the isotropic entrance reads CS(eps2, eps3) = e as case C2a",
        "file": ISOTROPY,
        "old": "2 * a23 > a2 + a3",
        "new": "2 * a23 >= a2 + a3",
        "tests": [
            "tests/test_isotropy.py::test_entrance_m3_case_c2b",
            "tests/test_isotropy.py::test_entrance_gram_count[C2b]",
            "tests/test_serialize_cli.py::test_cli_isotropy_entry",
        ],
    },
    {
        "name": "derivate-reversed",
        "why": "SignVector.is_derivate_of tests the reverse weakening, '=' to a strict sign",
        "file": STRATA,
        "old": '(s == "=" and b in "<>")',
        "new": '(b == "=" and s in "<>")',
        "tests": [
            "tests/test_strata.py::test_minimal_relaxation",
            "tests/test_strata.py::test_chart_m1_chain",
            "tests/test_strata.py::test_derivate_path_property",
        ],
    },
    {
        "name": "boundary-reads-t-for-t-prime",
        "why": "_boundary checks the T' run against T, so a T then T' trace forms no separator",
        "file": STRATA,
        "old": "runs[1][4] != t_prime.signs",
        "new": "runs[1][4] != t_vec.signs",
        "tests": [
            "tests/test_boundary.py::test_boundary_matches_the_trace_on_every_kind_of_trace",
            "tests/test_frontier.py::test_entrance_worked",
            "tests/test_strata.py::test_chart_m1_chain",
        ],
    },
    {
        "name": "row-runs-left-stretch-reads-the-point",
        "why": "a pair cut where its constant meets the other row's line reads '=' left of "
               "the cut, the sign at the point, instead of the sign inside the stretch",
        "file": PMFUNC,
        "old": 'cuts.append((a - e, zero, ">" if c < a else "=", "<" if b < e else "=", inf))',
        "new": 'cuts.append((a - e, zero, "=", "<" if b < e else "=", inf))',
        "tests": [
            f"{PM_LATTICE}::test_row_runs_are_the_runs_of_the_ratios",
            f"{PM_LATTICE}::test_row_runs_match_the_frozen_cell_by_cell_kernel",
            "tests/test_rays.py::test_locate_examples",
            "tests/test_strata.py::test_chart_m1_chain",
        ],
    },
    {
        "name": "row-runs-drops-mirrored-candidate",
        "why": "row_runs cuts a pair only where row i's constant meets row j's line, so a "
               "pair whose candidate is the mirrored point is read as one sign",
        "file": PMFUNC,
        "old": "            elif low < c and low < b and e <= b and a <= c:\n",
        "new": "            elif False:\n",
        "tests": [
            f"{PM_LATTICE}::test_row_runs_are_the_runs_of_the_ratios",
            f"{PM_LATTICE}::test_row_runs_match_the_frozen_cell_by_cell_kernel",
            "tests/test_strata.py::test_stratify_m1_worked",
            "tests/test_rays.py::test_locate_matches_frozen_reference",
        ],
    },
    {
        "name": "row-runs-drops-a-gathered-point",
        "why": "row_runs gathers no candidate point for a pair cut where row j's constant "
               "meets row i's line, so its cell lookup fails or reads another pair's cell",
        "file": PMFUNC,
        "old": "                points.add(c - b)\n",
        "new": "",
        "tests": [
            f"{PM_LATTICE}::test_row_runs_are_the_runs_of_the_ratios",
            f"{PM_LATTICE}::test_row_runs_match_the_frozen_cell_by_cell_kernel",
            "tests/test_strata.py::test_stratify_m1_worked",
        ],
    },
    {
        "name": "monotone-match-reads-first-column",
        "why": "the one-match sign-monotone check admits any signs after the first pair's "
               "column, so a trace whose later pair is not monotone passes",
        "file": STRATA,
        "old": '(?:,(?:{_MONOTONE.pattern}))*")',
        "new": '(?:,[<=>]*)*")',
        "tests": [
            "tests/test_strata.py::test_sign_monotone_check_raises_under_optimize",
            "tests/test_strata.py::test_sign_monotone_check_names_the_pair_the_reference_names",
        ],
    },
    {
        "name": "trace-reuses-first-separator",
        "why": "a trace forms the ray at its first inner parameter and reuses it as every "
               "later separator",
        "file": STRATA,
        "old": "if last is None or last[0] != piece.lo:",
        "new": "if last is None:",
        "tests": [
            "tests/test_strata.py::test_m1_trace_forms_one_separator_ray_per_parameter",
            "tests/test_numerator_trace.py::test_numerator_trace_matches_ratio_trace",
            "tests/test_numerator_trace.py::test_numerator_trace_matches_on_sampled_families",
            "tests/test_strata.py::test_trace_boundaries_on_random_models",
        ],
    },
    {
        "name": "stability-last-violation",
        "why": "stability_check reports the last violating sample instead of the first",
        "file": ISOTROPY,
        "old": "for checked, (t_val, sv) in enumerate(observed.items(), 1):",
        "new": "for checked, (t_val, sv) in reversed(list(enumerate(observed.items(), 1))):",
        "tests": [
            f"{ISO_TESTS}::test_stability_detects_change_across_threshold",
            f"{ISO_TESTS}::test_stability_reads_past_the_first_violation[scaled-cli]",
            f"{ISO_TESTS}::test_isotropy_entry_rows_are_the_failing_checks_readings",
        ],
    },
    {
        "name": "stability-counts-every-sample",
        "why": "a failing stability_check counts every in-bound sample, not those up to "
               "the first violation",
        "file": ISOTROPY,
        "old": "return StabilityReport(False, approach.entrance, checked,",
        "new": "return StabilityReport(False, approach.entrance, len(observed),",
        "tests": [
            f"{ISO_TESTS}::test_stability_detects_change_across_threshold",
            f"{ISO_TESTS}::test_stability_reads_past_the_first_violation[scaled-cli]",
            f"{ISO_TESTS}::test_isotropy_entry_rows_are_the_failing_checks_readings",
        ],
    },
    {
        "name": "stability-reads-strict-t0",
        "why": "under a strict bound stability_check reads the sample at t0, which lies "
               "outside the entrance stratum",
        "file": ISOTROPY,
        "old": "if approach.strict and t_val >= approach.t0:",
        "new": "if approach.strict and t_val > approach.t0:",
        "tests": [
            f"{ISO_TESTS}::test_strict_bound_skips_a_sample_at_t0[C2a]",
            f"{ISO_TESTS}::test_strict_bound_skips_a_sample_at_t0[C2b]",
            f"{ISO_TESTS}::test_entrance_case_c2a",
        ],
    },
    {
        "name": "oracle-q-drops-off-diagonal",
        "why": "the oracle's own kernel reads q off its diagonal terms alone",
        "file": ORACLE,
        "old": "if i == j else pair.b[i][j])\n                   for i in range(n) for j in range(i, n)]",
        "new": "if i == j else pair.b[i][j])\n                   for i in range(n) for j in range(i, i + 1)]",
        "tests": [
            f"{ORACLE_TESTS}::test_kernel_cs_is_the_fraction_cs_ratio",
            f"{ORACLE_TESTS}::test_kernel_cs_on_the_data_models",
            f"{ORACLE_TESTS}::test_reconstruction_matches_the_frozen_reference_on_cs_profiles",
            f"{ORACLE_TESTS}::test_suite_runs_on_a_kernel_of_its_own",
        ],
    },
    {
        "name": "oracle-column-takes-min",
        "why": "the oracle's own column B (x) w keeps the smaller of two terms",
        "file": ORACLE,
        "old": "if ci is None or ci < v:",
        "new": "if ci is None or ci > v:",
        "tests": [
            f"{ORACLE_TESTS}::test_kernel_cs_is_the_fraction_cs_ratio",
            f"{ORACLE_TESTS}::test_kernel_cs_on_the_data_models",
            f"{ORACLE_TESTS}::test_reconstruction_matches_the_frozen_reference_on_cs_profiles",
            f"{ORACLE_TESTS}::test_suite_runs_on_a_kernel_of_its_own",
        ],
    },
    {
        "name": "oracle-fit-skips-integer-degree",
        "why": "the int fit rounds a fractional slope down, so a window whose interior "
               "lies on one monomial while its upper end does not fits anyway",
        "file": ORACLE,
        "old": "    if rest:\n        return None\n",
        "new": "",
        "tests": [
            f"{ORACLE_TESTS}::test_reconstruction_matches_the_frozen_reference_on_pm_functions",
            f"{ORACLE_TESTS}::test_fit_rejects_a_fractional_degree",
            f"{ORACLE_TESTS}::test_a_window_without_a_fit_is_a_regions_failure",
        ],
    },
    {
        "name": "randint-bits-of-n-minus-1",
        "why": "Sampler.randint draws (n - 1).bit_length() bits, so a width that is a "
               "power of two draws a different stream from random.randint",
        "file": "src/troprays/sampling.py",
        "old": "getrandbits, k = self.rng.getrandbits, n.bit_length()",
        "new": "getrandbits, k = self.rng.getrandbits, (n - 1).bit_length()",
        "tests": [
            f"{SAMPLING_TESTS}::test_randint_draws_what_random_randint_draws",
            f"{SAMPLING_TESTS}::test_draws_and_states_equal_the_fraction_sampler[bounds0]",
        ],
    },
    {
        "name": "galois-mask-ignores-pool-pair",
        "why": "a Galois image's mask is read on any pool pair, so positions of one "
               "pool order pick rays of another",
        "file": FRONTIER,
        "old": "if query.__class__ is _Image and query.relation is rel and query.side == dual:",
        "new": "if query.__class__ is _Image and query.side == dual:",
        "tests": [
            f"{FR_TESTS}::test_galois_image_given_to_s_on_another_pool_pair",
            f"{FR_TESTS}::test_galois_image_given_to_s_after_its_pools_grow[insert]",
        ],
    },
    {
        "name": "galois-memo-drops-direction",
        "why": "the Galois answer memo keys a query mask without its direction, so an "
               "S image and an L image of equal masks share one answer",
        "file": FRONTIER,
        "old": "key = query.mask << 1 | dual",
        "new": "key = query.mask << 1",
        "tests": [
            f"{FR_TESTS}::test_galois_closure_chains_match_the_definition[1-True]",
        ],
    },
    {
        "name": "galois-plain-query-hits-memo",
        "why": "a plain Galois query is answered by the memo of its mask, so an order "
               "of its rays that raises reads the answer of one that ran dry first",
        "file": FRONTIER,
        "old": "            related = self._meet(rel, dual, query, slots, image)\n",
        "new": "            key = sum(1 << i for i, k in enumerate(rel.first[dual]) if k in slots)\n"
               "            related = rel.answers.get(key << 1 | dual)\n"
               "            if related is None:\n"
               "                related = rel.answers[key << 1 | dual] = self._meet(\n"
               "                    rel, dual, query, slots, image)\n",
        "tests": [
            f"{FR_TESTS}::test_galois_witness_outside_t_raises_where_the_definition_does",
        ],
    },
]


def copy_checkout(dest: str) -> str:
    tree = os.path.join(dest, "checkout")
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def apply(tree: str, mutant) -> bool:
    """Replace the mutant's old text in its file; False when it is not there once."""
    path = os.path.join(tree, mutant["file"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant["old"]) != 1:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant["old"], mutant["new"]))
    return True


def run_tests(tree: str, tests):
    """(returncode, failed node ids) of pytest on `tests` in `tree`; a negative
    returncode when the run hit its CPU or wall-time limit."""
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))

    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                              *tests], cwd=tree, env=env, capture_output=True, text=True,
                             preexec_fn=limit, timeout=4 * CPU_SECONDS)
    except subprocess.TimeoutExpired:
        return -1, set()
    return run.returncode, set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


def check(mutant) -> tuple:
    """(killed, line) for one mutant, run on a fresh copy of the checkout."""
    name = mutant["name"]
    with tempfile.TemporaryDirectory(prefix="troprays-mutant-") as tmp:
        tree = copy_checkout(tmp)
        if not apply(tree, mutant):
            return False, f"{name}: STALE (old text not found once in {mutant['file']})"
        code, failed = run_tests(tree, mutant["tests"])
    if code < 0:
        return True, f"{name}: killed (cpu limit)"
    if code not in (0, 1):
        return False, f"{name}: ERROR (pytest exit status {code})"
    passed = [t for t in mutant["tests"] if t not in failed]
    if code == 0 or passed:
        return False, f"{name}: SURVIVED ({', '.join(passed)} passed)"
    return True, f"{name}: killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mutation check of the library's fast paths")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args(argv)
    names = [m["name"] for m in MUTANTS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.only or m["name"] in args.only]
    survivors = 0
    for mutant in chosen:
        killed, line = check(mutant)
        survivors += not killed
        print(line, flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
