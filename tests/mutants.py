"""Mutation check: every entry breaks the program in one place, and its test
must catch the fault.

    python tests/mutants.py

Each entry is (path, old, new, tests): one fault, and one test id or a
tuple of them, run together in one pytest call.  An entry whose ``old`` text
does not occur exactly once in its file, whose (path, old, new) repeats
another entry's, or whose test function is not defined in its test file, is
refused before anything runs; tier-1 makes the same check in
tests/test_mutation_entries.py.  The repository is copied, without
``.git``, to a temporary directory; each entry is applied there alone and
its tests are run with ``python -m pytest -q -x``.
The script exits 1 and names every mutant that its tests all pass (or that
could not run), and 0 when every mutant is caught.

Stdlib only.  pytest does not collect this file, so it is not part of the
test suite; run it after changing a test that an entry names.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant that makes its test hang is reported as not run, not as caught
TIMEOUT_S = 300

ARITH = "src/cyclozeta/arith.py"
ZETAPROD = "src/cyclozeta/zetaprod.py"
DIRICHLET = "src/cyclozeta/dirichlet.py"
CLI = "src/cyclozeta/cli.py"
CATALOG = "src/cyclozeta/catalog.py"
EXACTPOLY = "src/cyclozeta/exactpoly.py"
VERIFY = "src/cyclozeta/verify.py"
APOSTOL = "src/cyclozeta/apostol.py"
ETAPROD = "src/cyclozeta/etaprod.py"
WEIGHTS = "src/cyclozeta/weights.py"
REPORT = "src/cyclozeta/report.py"
PACKAGE = "src/cyclozeta/__init__.py"
LAWS = "tests/test_exactpoly_laws.py"
POLY = "tests/test_exactpoly.py"
EVEN = "tests/test_arith.py::TestDivisorMapAtResidues"
RATIONAL = "tests/test_zetaprod.py::TestRationalForm"
FOURIER = "tests/test_zetaprod.py::TestFourier"
EXAMPLES = "tests/test_dirichlet.py::TestConvolutionExamples"
G_WEIGHTS = "tests/test_dirichlet.py::TestGTransforms::test_each_transform_is_G_times_its_weight_polynomial"
KERNEL = "tests/test_exactpoly.py::TestCyclotomicProduct"
BINOMIAL = "tests/test_exactpoly.py::TestBinomialProduct"
FAMILIES = "tests/test_apostol.py::TestFamilies"
DIVISOR_SUMS = "tests/test_arith.py::test_divisor_sums_equal_the_sum_over_each_divisor"
REFUSALS = "tests/test_arith.py::test_divisor_map_refusals_name_the_offending_keys_and_values"
ABSORB = "tests/test_report.py::test_absorb_rolls_sub_reports_up"
GIVEN_NS = "tests/test_report.py::TestCounts::test_given_conductors_replace_one_to_nmax"
RTH_POWERS = "tests/test_arith.py::test_rth_powers_and_r_free_numbers_equal_a_search_over_t_to_the_r"
TIMINGS = "tests/test_cli.py::TestVerifyCommand::test_timings_go_to_stderr_and_leave_stdout_byte_identical"
GCD_WALK = "tests/test_arith.py::test_klee_and_beta_equal_the_walk_over_every_j"
WEIGHT_PARSING = "tests/test_weights.py::TestParsing"
CANONICAL = "tests/test_arith.py::test_canonical_int_takes_only_what_str_writes_and_at_least_minimum"
BLOCKS = "tests/test_apostol.py::TestCachedBlocks"
ETA = "tests/test_etaprod.py"
PRESETS = "tests/test_zetaprod.py::TestCachedPairingTables"
BUDGET = "tests/test_zetaprod.py::TestDegreeBudget"
VERIFY_CMD = "tests/test_cli.py::TestVerifyCommand"
RERUN = f"{VERIFY_CMD}::test_the_rerun_command_repeats_the_first_mismatch_at_its_n_alone"
RERUN_ALONE = f"{VERIFY_CMD}::test_each_random_suite_fails_again_at_its_rerun_conductor_alone"
MUL = "TestMul::test_equals_the_schoolbook_loop_in_both_orders_at_every_limit"
PRIME_SCAN = "tests/test_arith.py::test_divisor_sums_equal_the_prime_scan_they_replace"
SIZES = "tests/test_cli.py::TestSizeContract"
COMBINE = "tests/test_exactpoly.py::TestCombine"
COMBINE_POLY = f"{COMBINE}::test_a_polynomial_sum_equals_the_sum_of_scaled_polynomials"
COMBINE_SERIES = f"{COMBINE}::test_a_series_sum_keeps_its_order_and_equals_the_sum_of_scaled_series"
DRAWS = "tests/test_zetaprod.py::TestDraws"
REPEATED_N = "test_a_repeated_conductor_runs_once_in_first_seen_order"
CONTAINER = "tests/test_exactpoly.py::TestTruncatedSeries"
PER_CLASS = "test_equals_the_per_class_comprehensions"
GENERATORS = "tests/test_zetaprod.py::TestSuiteGenerators"
SMALLEST_ORDERS = "test_all_four_forms_at_the_smallest_orders_are_the_longer_expansion_cut"
FOURIER_SUITE = "tests/test_zetaprod.py::TestFourierRoundTripSuite"
PLANTED_FOURIER = f"{FOURIER_SUITE}::test_a_planted_fault_gives_the_mismatches_of_the_unconditional_round_trip"
ONCE_FOURIER = f"{FOURIER_SUITE}::test_a_passing_run_equals_the_unconditional_one_and_analyses_each_instance_once"
PER_PRODUCT = f"{PRESETS}::test_each_product_records_the_per_product_kernel_comparisons"
TWO_SEARCHES = f"{BUDGET}::test_the_denominator_search_equals_two_full_searches_on_every_seed_42_root_data_product"
TRANSFER_SERIES = "tests/test_dirichlet.py::TestTransferSuiteSeries"
ROOT_OUTCOMES = "tests/test_zetaprod.py::TestRootDataOutcomes"
ROOT_FAULT = f"{ROOT_OUTCOMES}::test_a_fault_on_one_product_fails_at_each_of_its_draws_there_alone"
RATIONAL_FUNCTIONS = "tests/test_exactpoly.py::TestRationalFunctionQ"
REFLECTED = "tests/test_exactpoly.py::TestPolynomialReflectedAndScalarComparison"
CATALOG_CMD = "tests/test_cli.py::TestCatalogCommand"
KERNEL_OWNERS = "tests/test_zetaprod.py::TestPairingChecksCanFail::test_a_corrupted_kernel_fails_its_pairing_preset_and_its_eta_form"
PRINTER = f"{VERIFY_CMD}::test_catalog_verify_and_verify_print_each_report_the_same_way"

MUTANTS = [
    (ARITH, "return self.values[math.gcd(k, self.n)]", "return self.values[math.gcd(k + 1, self.n)]",
     f"{EVEN}::test_value_at_k_is_the_value_at_gcd"),
    (ARITH, "v[math.gcd(k, n)] for k in range(n))", "v[math.gcd(k, n)] for k in range(1, n + 1))",
     f"{EVEN}::test_residues_list_a_of_0_to_n_minus_1"),
    (ARITH, "{d: v + other.values[d] for", "{d: v - other.values[d] for",
     f"{EVEN}::test_sum_is_taken_divisor_by_divisor"),
    (ARITH, "if not isinstance(other, DivisorMap) or other.n != self.n:", "if not isinstance(other, DivisorMap):",
     f"{EVEN}::test_sum_of_different_conductors_is_refused"),
    (ZETAPROD, "column = [a[n // d] for d in divs]", "column = [a[d] for d in divs]",
     "tests/test_zetaprod.py::TestFourier::test_dft_power_sums"),
    (ZETAPROD, "_ramanujan_synthesis(a, a.n)", "_ramanujan_synthesis(a)",
     "tests/test_zetaprod.py::TestFourier::test_reconstruction_of_multiplicities"),
    (ZETAPROD, "if not at_roots[n // c]}, start", "if not at_roots[c]}, start",
     "tests/test_zetaprod.py::TestGeneratingForms::test_lambert_form_is_the_partial_fraction_sum"),
    (ZETAPROD, ", parse_int=_refuse_minus_zero", "",
     "tests/test_cli.py::TestDualAndSeries::test_json_input_refuses_minus_zero"),
    (DIRICHLET, "for d in divisors(k):", "for d in divisors(k)[:-1]:",
     "tests/test_dirichlet.py::TestSeriesAlgebra::test_invert_round_trip"),
    (DIRICHLET, "u = DirichletSeries(_combine(((m(n // d)", "u = DirichletSeries(_combine(((p(n // d)",
     "tests/test_dirichlet.py::TestStarSeries::test_zeta_and_mobius"),
    # cyclotomic valuation: derivatives folded mod q**d - 1, tested against
    # the product of q**(d/p) - 1 by rotate-and-subtract; rotating the fold
    # is no fault (it multiplies F by the unit q**k), and neither is dropping
    # one coefficient of the product when d > 1 (its coefficients sum to 0)
    (ZETAPROD, "f = [sum(h[r::d]) for r in range(d)]", "f = [sum(h[r + 1::d]) for r in range(d)]",
     f"{RATIONAL}::test_folded_exponents_equal_repeated_division"),
    (ZETAPROD, "map(mul, range(1, len(h)), h[1:])", "map(mul, range(2, len(h) + 1), h[1:])",
     (f"{RATIONAL}::test_high_multiplicities", f"{BUDGET}::test_the_carried_derivatives_equal_the_enumerate_loop")),
    (ZETAPROD, "h = derivatives[-1]", "h = derivatives[0]",
     (f"{RATIONAL}::test_high_multiplicities", f"{BUDGET}::test_the_carried_derivatives_equal_the_enumerate_loop")),
    (ZETAPROD, "return not any(f)", "return not f[0]", f"{RATIONAL}::test_folded_exponents_equal_repeated_division"),
    # one integer Ramanujan matrix over one common denominator
    (ZETAPROD, "tuple(ramanujan_sum(d, g) for d in divs)", "tuple(ramanujan_sum(g, d) for d in divs)",
     f"{FOURIER}::test_synthesis_equals_the_written_out_sum"),
    (ZETAPROD, "map(div_exact, sums, repeat(D * scale))", "map(div_exact, sums, repeat(scale))",
     (f"{FOURIER}::test_synthesis_equals_the_written_out_sum",
      f"{FOURIER}::test_synthesis_of_fraction_values_equals_the_definition")),
    (ZETAPROD, "sums if D * scale == 1 else", "sums if D == 1 else",
     (f"{FOURIER}::test_reconstruction_of_multiplicities",
      f"{FOURIER}::test_synthesis_equals_the_generator_rows_it_replaces")),
    (ZETAPROD, "sum(map(mul, column, row))", "sum(map(mul, column, row[::-1]))",
     f"{FOURIER}::test_synthesis_equals_the_generator_rows_it_replaces"),
    # example series cached by example object; one transform at a time
    (DIRICHLET, "@lru_cache\ndef _example_series(ex: TransferExample, n: int, r: int, order: int):\n",
     "def _example_series(ex, n, r, order):\n    return _example_series_by_index(ex.index, n, r, order)\n\n\n"
     "@lru_cache\ndef _example_series_by_index(index, n, r, order):\n    ex = TRANSFER_EXAMPLES[index]\n",
     f"{EXAMPLES}::test_a_replaced_example_is_built_afresh"),
    (DIRICHLET, "root_weights(z, kind).items()", 'root_weights(z, "mstar" if kind == "pstar" else kind).items()',
     G_WEIGHTS),
    # g_transform's strided rows; the star series' p* side compared undivided
    (DIRICHLET, "G.coeffs if w == 1", "G.coeffs if w", G_WEIGHTS),
    (DIRICHLET, "out[d - 1 :: d] = map(add, out[d - 1 :: d], row)", "out[: order // d] = map(add, out[: order // d], row)",
     G_WEIGHTS),
    (DIRICHLET, "if Gv == n * pstar:", "if Gv == pstar:", "tests/test_dirichlet.py::TestStarSeries::test_zeta_and_mobius"),
    (DIRICHLET, "_first_difference(div_exact(1, n) * Gv, pstar,", "_first_difference(Gv, pstar,",
     "tests/test_dirichlet.py::TestStarSeries::test_corrupted_weight_table_fails"),
    # the totient side of the star series from its multiplicative form
    (DIRICHLET, "_totient_polynomial(d, 2, order)", "_totient_polynomial(d, 1, order)",
     "tests/test_dirichlet.py::TestStarSeries::test_zeta_and_mobius"),
    (DIRICHLET, "-(p ** ((a - 1) * t))", "p ** ((a - 1) * t)",
     "tests/test_dirichlet.py::TestStarSeries::test_unit_reduces_to_totient_pairing"),
    # catalog ranks inside the input contracts
    (CATALOG, "(rank := canonical_int(fam.group(2), minimum=1))", "fam.group(2).isdigit() and (rank := int(fam.group(2)))",
     "tests/test_catalog.py::TestLookup::test_family_rank_only_in_canonical_ascii_decimal"),
    (CLI, "size_error(entry.n)", "size_error(entry.n - 1)",
     "tests/test_cli.py::TestCatalogCommand::test_ranks_outside_the_input_contract_are_refused"),
    (CLI, '"m": list(m.residues())', '"m": list(m.values)',
     "tests/test_cli.py::TestAnalyze::test_json_lists_every_residue_of_the_even_functions"),
    (ARITH, 're.fullmatch("0|-?[1-9][0-9]*", token)', 're.fullmatch("-?[0-9]+", token)',
     (CANONICAL, "tests/test_cli.py::TestVerifyCommand::test_integer_flags_refuse_non_canonical_numbers")),
    (CLI, "return _int(text, minimum=1)", "return _int(text)",
     "tests/test_cli.py::TestVerifyCommand::test_sizes_below_one_are_refused"),
    # values made exact in one place; divisor keys only ints
    (ARITH, "if {*map(type, cs)} <= {int}:", "if {*map(type, cs)} <= {int, bool}:",
     f"{LAWS}::test_exact_values_is_as_exact_on_each_value"),
    (ARITH, "    return [as_exact(c) for c in cs]", "    return cs",
     f"{LAWS}::test_exact_values_is_as_exact_on_each_value"),
    (EXACTPOLY, "cs = tuple(exact_values(coeffs))", "cs = tuple(coeffs)", f"{LAWS}::test_series_results_are_demoted"),
    (EXACTPOLY, "            cs += [0] * (order - len(cs))\n", "",
     "tests/test_exactpoly.py::TestPowerSeriesQ::test_product_is_the_truncated_dense_product"),
    (EXACTPOLY, "tuple(_trim(exact_values(coeffs)))", "tuple(_trim(list(coeffs)))",
     (f"{LAWS}::test_polynomial_ring_laws",
      f"{POLY}::TestPolynomialQ::test_an_integral_coefficient_beside_a_fraction_prints_as_an_int",
      f"{POLY}::TestPolynomialQ::test_products_sums_quotients_and_derivatives_keep_integral_coefficients_as_ints")),
    # any printed byte of the seed-42 analyze and series commands
    (EXACTPOLY, 'f"{mag}*{var}" if isinstance(mag, Fraction)', 'f"{mag}*{var}" if mag > 1',
     "tests/test_perfbench_checks.py::test_seed42_stdout_matches_the_benchmark_reference"),
    (ARITH, "if not {*map(type, keys)} <= {int}:", "if not {*map(type, keys)} <= {int, bool}:",
     "tests/test_arith.py::test_divisor_keys_must_be_ints"),
    (ARITH, "        require_int_keys(values)\n        if values.keys()", "        if values.keys()",
     "tests/test_arith.py::test_divisor_keys_must_be_ints"),
    (ARITH, "        require_int_keys(values)\n        return cls(", "        return cls(",
     "tests/test_arith.py::test_divisor_keys_must_be_ints"),
    (DIRICHLET, "    require_int_keys(coeffs)\n", "",
     "tests/test_dirichlet.py::TestSeriesAlgebra::test_support_indices_must_be_ints"),
    (CLI, "exc.args[0] if isinstance(exc, KeyError) else exc", "exc",
     "tests/test_cli.py::TestCatalogCommand::test_unknown_entry"),
    (VERIFY, "cross.expect(line == entry.m_line,", "cross.expect(True,",
     "tests/test_weights.py::TestDivisorLines::test_suite_reports_a_corrupted_parabolic_line"),
    # Apostol families as Appell sequences; one body per closed form
    (APOSTOL, "cs[r - d] * math.perm(r, r - d)", "cs[r - d] * math.comb(r, r - d)",
     f"{FAMILIES}::test_generating_series_round_trip"),
    (APOSTOL, "q * _base(family, i - 1) * Fraction", "q * _base(family, i) * Fraction",
     f"{FAMILIES}::test_bernoulli_base_cases"),
    (APOSTOL, "(1, 2) if family", "(1, 1) if family", f"{FAMILIES}::test_euler_base_cases"),
    (APOSTOL, "top * P.numerator(x0 + count, power) - sign * P.numerator(x0, power)",
     "top * P.numerator(x0 + count, power) + sign * P.numerator(x0, power)",
     "tests/test_apostol.py::TestWeightedGeometricSum::test_sweep"),
    (APOSTOL, "blocks3[d] = bernoulli *", "blocks3[d] = -bernoulli *",
     "tests/test_apostol.py::TestWeightedSumIdentities::test_small_conductor_random"),
    # each weight line built once; merged mismatches name their sub-check
    (WEIGHTS, "[(alpha, -1) for alpha", "[(alpha, 1) for alpha",
     "tests/test_weights.py::TestSeifert::test_exceptional_root_system"),
    (REPORT, '{"check": sub.check, **sub.context, **mismatch}', '{**sub.context, **mismatch}',
     "tests/test_report.py::test_absorb_rolls_sub_reports_up"),
    (VERIFY, '        sub.context["name"] = entry.name\n        report.absorb(sub)\n', '        sub.context["name"] = entry.name\n',
     "tests/test_cli.py::TestVerifyCommand::test_a_merged_mismatch_names_its_sub_check"),
    (DIRICHLET, "labels.update(k=k,", "labels = dict(k=k,",
     f"{EXAMPLES}::test_corrupted_inverse_table_reports_the_inverse_identity"),
    # products of cyclotomic powers from binomials q**c - 1; h * G2 built once
    (EXACTPOLY, "(c, mobius(d // c) * k)", "(c, -mobius(d // c) * k)",
     f"{KERNEL}::test_equals_the_written_out_product_of_cyclotomic_powers"),
    (EXACTPOLY, "map(sub, [0] * c + out, out + [0] * c)", "map(sub, [0] * (c + 1) + out, out + [0] * c)",
     (f"{BINOMIAL}::test_equals_the_written_out_product", f"{BINOMIAL}::test_equals_the_comprehensions_it_replaces")),
    (EXACTPOLY, "            if any(sums[-c:]):\n", "            if False:\n",
     f"{BINOMIAL}::test_a_remainder_raises"),
    (EXACTPOLY, "out = list(map(neg, sums[:-c]))", "out = sums[:-c]",
     (f"{BINOMIAL}::test_equals_the_written_out_product", f"{BINOMIAL}::test_equals_the_comprehensions_it_replaces")),
    (DIRICHLET, "return G1, G2, DirichletSeries(h) * G2", "return G1, G2, G2", f"{EXAMPLES}::test_all_examples_random"),
    (VERIFY, '        sub.context["name"] = entry.name\n', "",
     "tests/test_cli.py::TestVerifyCommand::test_eta_mismatches_name_their_catalog_entry"),
    (DIRICHLET, "rhs.coefficient(k)), None)", "rhs.coefficient(k)), 0)",
     f"{EXAMPLES}::test_a_length_mismatch_records_both_orders"),
    # every product of binomials q**c - 1 from binomial_product
    (EXACTPOLY, "a[c] = a.get(c, 0) + k", "a[c] = k", f"{BINOMIAL}::test_repeated_c_add_up"),
    (EXACTPOLY, "        if c < 1:\n", "        if c < 0:\n", f"{BINOMIAL}::test_a_c_below_one_is_refused"),
    (ZETAPROD, "ed if g % d == 0 else 0", "0 if g % d == 0 else ed",
     "tests/test_zetaprod.py::TestPartialZeta::test_equals_the_reduced_dense_restricted_product"),
    (ZETAPROD, "** -k for d, k in z.e.items() if k < 0)", "** -k for d, k in z.e.items() if k < -1)",
     f"{RATIONAL}::test_matches_literal_divisor_product"),
    (ZETAPROD, "acc = acc + v * binomial_product([(n, 1), (d, -1)])",
     "acc = acc + v * binomial_product([(n, 1), (n // d, -1)])",
     "tests/test_zetaprod.py::TestGeneratingForms::test_rank_family_line"),
    (WEIGHTS, "(-rf if z.mu_e % 2 else rf)", "rf",
     "tests/test_weights.py::TestSeifert::test_equals_the_reduced_dense_product_of_one_minus_q_powers"),
    (WEIGHTS, "binomial_product([(w.a, 1), (w.b, 1), (w.c, 1)])", "binomial_product([(w.a, 1), (w.b, 1), (w.c, 2)])",
     "tests/test_weights.py::TestSpectral::test_cubic_cone"),
    (APOSTOL, "blocks3, binomial_product([(n, r + 1)])", "blocks3, binomial_product([(n, r)])",
     "tests/test_apostol.py::TestWeightedSumIdentities::test_small_conductor_random"),
    (APOSTOL, "binomial_product([(2 * n, r + 1), (d, -r - 1)])", "binomial_product([(2 * n, r + 1), (d, -r)])",
     "tests/test_apostol.py::TestWeightedSumIdentities::test_small_conductor_random"),
    (APOSTOL, "(2, exponent), (1, -exponent)", "(2, exponent), (1, 1 - exponent)",
     f"{FAMILIES}::test_euler_base_cases"),
    # series --order within the size contract
    (CLI, "    if order > MAX_ORDER:", "    if order > MAX_ORDER + 1:",
     "tests/test_cli.py::TestSizeContract::test_series_refuses_an_order_above_the_limit_before_any_series"),
    (CLI, "_read_product(args.input, order=args.order)", "_read_product(args.input)",
     "tests/test_cli.py::TestSizeContract::test_series_refuses_an_order_above_the_limit_before_any_series"),
    # verify --n within the size contract
    (CLI, "    for n in args.n or ():\n", "    for n in ():\n",
     "tests/test_cli.py::TestSizeContract::test_verify_refuses_a_conductor_above_the_limit_before_any_suite"),
    # earlier hand-seeded faults, where the code they broke still exists
    (ARITH, "if (mu := mobius(g // d))", "if (mu := abs(mobius(g // d)))",
     "tests/test_transform_laws.py::test_mobius_inversion_and_divisor_sums_are_inverse"),
    (ARITH, "for d in divisors(g) if (mu", "for d in divisors(g)[1:] if (mu",
     "tests/test_transform_laws.py::test_mobius_inversion_and_divisor_sums_are_inverse"),
    (DIRICHLET, "b[k] = div_exact(-acc, a[0])", "b[k] = div_exact(acc, a[0])",
     "tests/test_dirichlet.py::TestSeriesAlgebra::test_zeta_times_mobius_is_unit"),
    (DIRICHLET, "(m(n // d), _totient_polynomial(d, 0, order)", "(m(d), _totient_polynomial(d, 0, order)",
     "tests/test_dirichlet.py::TestStarSeries::test_zeta_and_mobius"),
    (DIRICHLET, "return transform(multiplicities(z)), transform(power_sums(z))",
     "return transform(power_sums(z)), transform(multiplicities(z))",
     "tests/test_dirichlet.py::TestPowerSeriesTransforms::test_geometric_recovers_even_function_shifted"),
    (DIRICHLET, "PowerSeriesQ([a(0)] + [a(k) - a(k - 1)", "PowerSeriesQ([0] + [a(k) - a(k - 1)",
     "tests/test_dirichlet.py::TestPowerSeriesTransforms::test_matches_the_expanded_q_integer_sums"),
    (ZETAPROD, "_combine((m(n // d), Z[d].coeffs) for d in divs) == _combine((e[d], X[d].coeffs) for d in divs)", "True",
     "tests/test_zetaprod.py::TestPairingChecksCanFail::test_mobius_pairing_names_the_side_with_corrupted_root_data"),
    (ZETAPROD,
     "_combine((p(n // d), Z[d].coeffs) for d in divs)\n        == _combine(((n // d) * e[n // d], X[d].coeffs) for d in divs)",
     "True",
     "tests/test_zetaprod.py::TestPairingChecksCanFail::test_mobius_pairing_names_the_side_with_corrupted_root_data"),
    (ZETAPROD, "start=-PolynomialQ(a.residues())", "start=PolynomialQ(a.residues())",
     "tests/test_zetaprod.py::TestGeneratingForms::test_lambert_form_is_the_partial_fraction_sum"),
    (EXACTPOLY, "for i in range(len(r) - 1, db - 1, -1):", "for i in range(len(r) - 1, db, -1):",
     f"{POLY}::TestPolynomialQ::test_divmod_and_exact_division"),
    # the product kernel adds one row per outer coefficient, checked against
    # the schoolbook double loop it replaced
    (EXACTPOLY, "end = min(size, i + len(b))", "end = min(size - 1, i + len(b))",
     (f"{POLY}::TestPowerSeriesQ::test_product_is_the_truncated_dense_product", f"{POLY}::{MUL}")),
    (EXACTPOLY, "end = min(size, i + len(b))", "end = min(size, i + len(b) - 1)", f"{POLY}::{MUL}"),
    (EXACTPOLY, "map(mul, b, repeat(ai))", "map(mul, b, repeat(1))", f"{POLY}::{MUL}"),
    (EXACTPOLY, "b if ai == 1 else map(", "b if ai else map(", f"{POLY}::{MUL}"),
    (EXACTPOLY, "return PolynomialQ(_add(self.coeffs, _neg(o.coeffs)))", "return PolynomialQ(_add(self.coeffs, o.coeffs))",
     f"{POLY}::TestPolynomialQ::test_arithmetic"),
    (EXACTPOLY, "            g = poly_gcd(num, den)", "            g = ONE",
     f"{POLY}::TestRationalFunctionQ::test_reduction_invariants"),
    (EXACTPOLY, "            if not den.is_monic:", "            if False:",
     f"{POLY}::TestRationalFunctionQ::test_reduction_invariants"),
    (EXACTPOLY, "    return _make_monic(PolynomialQ(A))", "    return PolynomialQ(A)",
     f"{LAWS}::test_rational_normal_form_under_field_operations"),
    (EXACTPOLY, "scale = (-1) ** (t * l) * g.leading", "scale = g.leading",
     f"{POLY}::TestTensorProduct::test_pinned_non_monic_zero_root_and_constant_inputs"),
    (EXACTPOLY, "for i in range(1, min(k - 1, m) + 1):", "for i in range(1, min(k - 1, m)):",
     f"{POLY}::TestTensorProduct::test_square"),
    # one identity-check recorder: Report.expect counts every instance, and a
    # report that checked nothing is "empty", never a pass
    (REPORT, "        self.checks += 1\n", "",
     "tests/test_report.py::test_expect_counts_every_instance_and_renders_only_a_failure"),
    (REPORT, "        if not ok:", "        if ok:", "tests/test_report.py::test_status_rules"),
    (REPORT, "                    details[side] = str(details[side])\n", "                    pass\n",
     "tests/test_report.py::test_expect_counts_every_instance_and_renders_only_a_failure"),
    (REPORT, "        self.checks += sub.checks\n", "", "tests/test_report.py::test_absorb_rolls_sub_reports_up"),
    (REPORT, '        if not self.checks:\n            return "empty"\n', "", "tests/test_report.py::test_status_rules"),
    (REPORT, 'return self.status not in ("pass", "flagged")', 'return self.status == "fail"',
     "tests/test_cli.py::TestVerifyCommand::test_a_suite_that_checked_nothing_fails_the_run"),
    (CLI, "catalog_mod.verify_catalog()", "catalog_mod.verify_all()",
     "tests/test_cli.py::TestCatalogCommand::test_verify_fails_when_the_flagged_set_is_not_the_expected_one"),
    (CATALOG, "anomalies.expect(found == expected,", "anomalies.expect(True,",
     "tests/test_cli.py::TestCatalogCommand::test_verify_fails_when_the_flagged_set_is_not_the_expected_one"),
    (APOSTOL, '"bernoulli", r + 1)\n', '"bernoulli", r + 2)\n',
     "tests/test_apostol.py::TestWeightedGeometricSum::test_sweep"),
    # each command imports only what it runs: the lazy package namespace,
    # the CLI's per-command imports and literal choices, and a closed stdout
    (PACKAGE, '"Report": "report",', '"Report": "zetaprod",',
     "tests/test_imports.py::TestLazyNamespace::test_each_name_comes_from_the_module_that_defines_it"),
    (PACKAGE, "    if name != module:\n", "    if True:\n",
     "tests/test_imports.py::TestLazyNamespace::test_a_fresh_interpreter_lists_and_resolves_every_name"),
    (PACKAGE, "return sorted(set(globals()) | set(__all__))", "return sorted(globals())",
     "tests/test_imports.py::TestLazyNamespace::test_a_fresh_interpreter_lists_and_resolves_every_name"),
    (CLI, "from .report import json_safe, summarize\n", "from .report import json_safe, summarize\nfrom . import verify\n",
     "tests/test_imports.py::TestImportFootprint::test_the_package_and_the_cli_load_only_the_core"),
    (CLI, '"prop", "weights")', '"prop")',
     "tests/test_imports.py::TestLazyNamespace::test_the_cli_choices_are_the_ones_the_modules_define"),
    (CLI, "sys.exit(141)", "sys.exit(1)",
     "tests/test_cli.py::TestEntryPoint::test_a_closed_stdout_exits_141_without_a_traceback"),
    # Lambert numerators divided through binomial_product's start; Report a
    # plain class, and the CLI core without dataclasses
    (EXACTPOLY, "out = [1] if start is None else list(start.coeffs)", "out = [1]",
     f"{BINOMIAL}::test_start_multiplies_the_product"),
    (ZETAPROD, "if not at_roots[n // c]}, start", "if at_roots[n // c]}, start",
     "tests/test_zetaprod.py::TestGeneratingForms::test_lambert_form_equals_the_schoolbook_division_it_replaces"),
    (REPORT, "None = None):\n        self.check = check\n        self.context = {} if context is None else context\n"
     "        self.mismatches: list = []\n",
     "None = None, mismatches: list = []):\n        self.check = check\n"
     "        self.context = {} if context is None else context\n        self.mismatches: list = mismatches\n",
     "tests/test_report.py::test_reports_never_share_a_container"),
    (REPORT, "from fractions import Fraction\n", "from dataclasses import dataclass\nfrom fractions import Fraction\n",
     "tests/test_imports.py::TestImportFootprint::test_the_cli_core_loads_neither_dataclasses_nor_inspect"),
    # valuations without reduction mod Phi_d, divisor sums on the divisor
    # lattice, one exact_values pass per DivisorMap, and --timings on stderr
    (ZETAPROD, "tuple(d // p for p, _ in factorize(d))", "tuple(d // p for p, _ in factorize(d)[1:])",
     f"{RATIONAL}::test_exponents_equal_the_fold_and_reduce_oracle"),
    (ZETAPROD, "while (j + 1) * phi <= left:", "while (j + 1) * phi < left:",
     f"{RATIONAL}::test_a_power_of_one_cyclotomic_factor"),
    (ZETAPROD, "f = list(map(sub, f[-s:]", "f = list(map(add, f[-s:]",
     f"{RATIONAL}::test_exponents_equal_the_fold_and_reduce_oracle"),
    (ARITH, "for g in divs if g % p == 0)", "for g in reversed(divs) if g % p == 0)", (DIVISOR_SUMS, PRIME_SCAN)),
    (ARITH, "for p, _ in factorize(n) for g in divs", "for p, _ in factorize(n)[1:] for g in divs",
     (DIVISOR_SUMS, PRIME_SCAN)),
    (ARITH, "s[g] = s[g] + s[h]", "s[g] = s[g] + w[h]", (DIVISOR_SUMS, PRIME_SCAN)),
    (ARITH, "        require_int_keys(values)\n        if values.keys() != _divisor_set(n):",
     "        require_int_keys([k for k in values if k != 2])\n        if values.keys() != _divisor_set(n):", REFUSALS),
    (ARITH, "            exact_values(values.values())\n", "", REFUSALS),
    (ARITH, "exact_values(map(values.__getitem__, divs))", "list(map(values.__getitem__, divs))",
     "tests/test_arith.py::test_divisor_map_values_are_exact_and_in_divisor_order"),
    (CLI, 'print(f"timing: {name} {seconds:.3f} s", file=sys.stderr)', 'print(f"timing: {name} {seconds:.3f} s")', TIMINGS),
    (CLI, ' for a in argv if a != "--timings")', " for a in argv)", TIMINGS),
    # one roll-up: absorb carries each new flag once; every suite that loops
    # over conductors takes --n; one catalog walk; r-th powers from factorize
    (REPORT, "        for f in sub.flags:\n            if f not in self.flags:\n                self.flags.append(f)\n", "",
     ABSORB),
    (REPORT, "            if f not in self.flags:\n", "            if True:\n",
     (ABSORB, "tests/test_cli.py::TestVerifyCommand::test_eta_scope_flags_once")),
    (VERIFY, '"nmax": cfg.nmax})\n    for n in cfg.pick_ns(range(1, cfg.nmax + 1)):',
     '"nmax": cfg.nmax})\n    for n in range(1, cfg.nmax + 1):', GIVEN_NS),
    (VERIFY, "    ns = cfg.pick_ns(range(1, cfg.nmax + 1))\n", "    ns = range(1, cfg.nmax + 1)\n", GIVEN_NS),
    (VERIFY, '"trials": trials})\n    for n in cfg.pick_ns(range(1, cfg.nmax + 1)):',
     '"trials": trials})\n    for n in range(1, cfg.nmax + 1):', GIVEN_NS),
    (VERIFY, "        if n not in ns:\n", "        if n > cfg.nmax:\n", GIVEN_NS),
    (CATALOG, "*map(d_family, range(3, FAMILY_RANK + 1))", "*map(d_family, range(4, FAMILY_RANK + 1))",
     "tests/test_catalog.py::TestConsistency::test_every_entry_walked_once_fixed_then_families"),
    (CATALOG, "by_product.get(saito_dual(z))", "by_product.get(star)",
     "tests/test_catalog.py::TestDuality::test_strange_pairs_through_the_dual"),
    (ARITH, "all(e % r == 0 for _, e in factorize(x))", "all(e < r for _, e in factorize(x))", RTH_POWERS),
    (ARITH, "all(e < r for _, e in factorize(g))", "all(e % r == 0 for _, e in factorize(g))", RTH_POWERS),
    (ARITH, "all(e < r for _, e in factorize(g))", "all(e <= r for _, e in factorize(g))", RTH_POWERS),
    # Klee's totient and beta counted by gcd class, against the walk over every j
    (ARITH, "sum(euler_phi(k // g) for g in divisors(k) if _is_r_free(g, r))",
     "sum(euler_phi(g) for g in divisors(k) if _is_r_free(g, r))", GCD_WALK),
    (ARITH, "sum(euler_phi(k // g) for g in divisors(k) if is_rth_power(g, 2))",
     "sum(euler_phi(g) for g in divisors(k) if is_rth_power(g, 2))", GCD_WALK),
    (ARITH, "for g in divisors(k) if _is_r_free(g, r))", "for g in divisors(k))", GCD_WALK),
    (ARITH, "if is_rth_power(g, 2))", "if is_rth_power(g, 3))", GCD_WALK),
    (ARITH, "r, fn = params[0], _PARAMETRIC[name]", "r, fn = params[0], _PARAMETRIC[\"klee\"]",
     "tests/test_arith.py::TestNamedFunctions::test_rho"),
    (CLI, '        if args.G is not None:\n            raise ValueError("--G applies to --kind dirichlet only")\n', "",
     "tests/test_cli.py::TestDualAndSeries::test_power_series_refuses_G_before_any_series"),
    (CLI, 'G = args.G or "zeta"', 'G = args.G or "mobius"',
     "tests/test_cli.py::TestDualAndSeries::test_dirichlet_series_takes_zeta_without_G"),
    (WEIGHTS, "a, b, c = (_number(p) for p in parts)", "a, b, c = (int(p) for p in parts)",
     f"{WEIGHT_PARSING}::test_weights_refuse_a_number_in_another_spelling"),
    (WEIGHTS, "pairs.append((_number(alpha), _number(beta)))", "pairs.append((_number(alpha), int(beta)))",
     f"{WEIGHT_PARSING}::test_seifert_data_refuse_a_number_in_another_spelling"),
    (WEIGHTS, "genus = _number(head, minimum=0)", "genus = _number(head)",
     f"{WEIGHT_PARSING}::test_seifert_round_trip"),
    (WEIGHTS, "canonical_int(token.strip(), minimum)", "canonical_int(token, minimum)",
     f"{WEIGHT_PARSING}::test_weight_round_trip"),
    # e-free kernels built once per (n, parameters): a cache key that drops a
    # parameter, swapped tables, and the re-run command of a failing suite
    (APOSTOL, "@lru_cache(maxsize=128)\ndef _weighted_sum_blocks(n: int, b: int, c: int, r: int):",
     "def _weighted_sum_blocks(n: int, b: int, c: int, r: int, _memo={}):\n"
     "    return _memo.setdefault((n, b, r), _blocks(n, b, c, r))\n\n\ndef _blocks(n: int, b: int, c: int, r: int):",
     f"{BLOCKS}::test_calls_that_differ_only_in_c_each_pass"),
    (APOSTOL, "P.numerator(x0 + count, power)", "P.numerator(count, power)",
     f"{BLOCKS}::test_blocks_equal_the_per_trial_oracle"),
    (ZETAPROD, "@lru_cache(maxsize=128)\ndef _preset_tables(name: str, n: int):",
     "def _preset_tables(name: str, n: int, _memo={}):\n"
     "    return _memo.setdefault(n, _tables(name, n))\n\n\ndef _tables(name: str, n: int):",
     f"{PRESETS}::test_calls_that_differ_only_in_the_preset_name_each_pass"),
    (ZETAPROD, "for t in (1 - s, -s))", "for t in (-s, 1 - s))", f"{PRESETS}::test_totient_tables_equal_the_per_trial_oracle"),
    (ZETAPROD, "kernels = {d: (d * necklace(d), ONE) for d in divs}", "kernels = {}",
     f"{PRESETS}::test_preset_tables_equal_the_per_trial_oracle"),
    (CLI, "            if i == 0 and rerun:\n", "            if rerun:\n", RERUN),
    (VERIFY, "        if getattr(cfg, name) != getattr(defaults, name):\n", "        if True:\n", RERUN),
    (CLI, '                suite["mismatches"][0]["rerun"] = rerun\n', "                pass\n", RERUN),
    # cyclotomic valuations within a degree budget, --n for the eta suite,
    # and the catalog's rerun command
    (ZETAPROD, "left = p.degree", "left = p.degree - 1",
     f"{BUDGET}::test_a_cyclotomic_power_that_spends_the_whole_degree"),
    (ZETAPROD, "left -= j * phi", "left -= (j + 1) * phi",
     f"{BUDGET}::test_seed_42_root_data_products_alone_and_times_a_cofactor"),
    (VERIFY, "entries = [e for e in entries if e.n in cfg.pick_ns(())] or entries", "entries = list(entries)",
     f"{VERIFY_CMD}::test_the_eta_rerun_command_reports_its_conductor_alone"),
    (VERIFY, "e.n in cfg.pick_ns(())] or entries", "e.n in cfg.pick_ns(())]",
     f"{VERIFY_CMD}::test_a_conductor_with_no_catalog_entry_runs_every_eta_entry"),
    (VERIFY, '    if report.check != "catalog":\n', "    if True:\n",
     f"{VERIFY_CMD}::test_a_catalog_failure_gets_a_rerun_command_without_n"),
    # one canonical-integer reader, a number split by spaces names no catalog
    # entry, and one long-division loop behind poly_gcd
    (ARITH, "value >= minimum else None", "value > minimum else None", CANONICAL),
    (CATALOG, '"" if re.search("[0-9] +[0-9]", name) else name.replace(" ", "")', 'name.replace(" ", "")',
     ("tests/test_catalog.py::TestLookup::test_family_rank_only_in_canonical_ascii_decimal",
      "tests/test_cli.py::TestCatalogCommand::test_ranks_outside_the_input_contract_are_refused")),
    (EXACTPOLY, "_divmod([c * scale for c in A], B)[1]", "_divmod([c * scale for c in A], B)[0]",
     (f"{POLY}::test_poly_gcd", f"{POLY}::test_poly_gcd_matches_sympy_on_products_that_share_factors")),
    (EXACTPOLY, "den = math.lcm(*(c.denominator for c in cs))", "den = 1", f"{POLY}::test_poly_gcd"),
    # each closed form built once: the telescoped Apostol sum at q**power, and
    # the eta forms from the root-data transforms with one kernel accumulation
    (APOSTOL, "sign ** (count - 1))", "sign ** count)", "tests/test_apostol.py::TestWeightedGeometricSum::test_sweep"),
    (APOSTOL, "PolynomialQ.monomial(power * count,", "PolynomialQ.monomial(count,",
     "tests/test_apostol.py::TestWeightedGeometricSum::test_closed_form_at_a_power_of_q"),
    (ETAPROD, 'g_transform(z, sigmas, "p")', 'g_transform(z, sigmas, "m")', f"{ETA}::test_parabolic_four_way_agreement"),
    (ETAPROD, "weights = zeta_series(order - 1).shift()", "weights = zeta_series(order - 1)",
     f"{ETA}::test_parabolic_four_way_agreement"),
    (ETAPROD, "(m(n // d), _kernel_coeffs(kernel, d, order))", "(m(d), _kernel_coeffs(kernel, d, order))",
     f"{ETA}::test_parabolic_four_way_agreement"),
    # no command runs a polynomial gcd
    (ZETAPROD, "PolynomialQ.monomial(d) - 1, _normalized=True)", "PolynomialQ.monomial(d) - 1)",
     f"{VERIFY_CMD}::test_json_pins_the_check_count_of_every_suite_at_seed_42"),
    # root-data loops in C over per-conductor index tables; the one type-set
    # tests of DivisorMap and ZetaProduct
    (ARITH, "tuple((g, g // p) for p, _", "tuple((g, g) for p, _", (DIVISOR_SUMS, PRIME_SCAN)),
    (ZETAPROD, "tuple(dp for dp in divs if dp % d == 0)", "tuple(dp for dp in divs if d % dp == 0)",
     f"{RATIONAL}::test_exponent_sums_over_multiples_equal_the_divisor_scan"),
    (ARITH, "if tuple(values) == divs and", "if len(values) == len(divs) and",
     (REFUSALS, "tests/test_arith.py::test_int_values_in_divisor_order_equal_the_same_values_in_any_order")),
    (ARITH, " <= {int} and {*map(type, values)} <= {int}:", " <= {int}:",
     "tests/test_arith.py::test_divisor_keys_must_be_ints"),
    (ZETAPROD, "{*map(type, e.values.values())} <= {int}:", "{*map(type, e.values.values())} <= {int, Fraction}:",
     "tests/test_zetaprod.py::TestParsing::test_the_first_exponent_that_is_not_an_integer_is_named"),
    (ZETAPROD, "for d, v in e.items() if type(v) is not int)", "for d, v in reversed(e.items()) if type(v) is not int)",
     "tests/test_zetaprod.py::TestParsing::test_the_first_exponent_that_is_not_an_integer_is_named"),
    # verify's size contract: each flag's limit and the work bound
    (VERIFY, "if cfg.nmax > MAX_NMAX:", "if cfg.nmax > MAX_NMAX + 1:",
     f"{SIZES}::test_verify_takes_each_size_flag_at_its_limit_and_refuses_it_above"),
    (VERIFY, "if cfg.order > MAX_ORDER:", "if cfg.order >= MAX_ORDER:",
     f"{SIZES}::test_verify_takes_each_size_flag_at_its_limit_and_refuses_it_above"),
    (VERIFY, "if cfg.trials is not None and cfg.trials > MAX_TRIALS:", "if False:",
     f"{SIZES}::test_verify_takes_each_size_flag_at_its_limit_and_refuses_it_above"),
    (VERIFY, "square * n * n + linear * 30 * cfg.order", "square * n + linear * 30 * cfg.order",
     f"{SIZES}::test_verify_takes_a_run_whose_work_is_at_the_limit_and_refuses_one_above"),
    (VERIFY, "square * n * n + linear * 30 * cfg.order", "square * n * n + 30 * cfg.order",
     f"{SIZES}::test_verify_takes_a_run_whose_work_is_at_the_limit_and_refuses_one_above"),
    (VERIFY, "(cfg.pick_trials(20) + 8)", "(cfg.pick_trials(10) + 8)",
     f"{SIZES}::test_verify_takes_a_run_whose_work_is_at_the_limit_and_refuses_one_above"),
    (CLI, "    if refusal := verify.size_error(args.scope, cfg):\n", "    if False:\n",
     f"{SIZES}::test_verify_refuses_runs_above_the_contract_before_any_suite"),
    # one linear-combination kernel for many-term sums, checked against the
    # sums of scaled containers it replaced
    (EXACTPOLY, "row = cs if c == 1 else", "row = cs if c else", (COMBINE_POLY, COMBINE_SERIES)),
    (EXACTPOLY, "*row[len(out) :]]", "*row[len(out) + 1 :]]", (COMBINE_POLY, COMBINE_SERIES)),
    (EXACTPOLY, "    out += [0] * (order - len(out))\n", "", COMBINE_SERIES),
    (EXACTPOLY, "len(cs) > order:", "len(cs) > order + 1:", COMBINE_SERIES),
    (EXACTPOLY, "    if order is None:\n        return _trim(out)\n", "    if order is None:\n        return out\n",
     COMBINE_POLY),
    # draws by randint's rejection rule, read from getrandbits
    (ZETAPROD, "while r >= width:", "while r > width:", f"{DRAWS}::test_each_draw_equals_randint_and_leaves_the_same_state"),
    (ZETAPROD, "map(Fraction, v[::2], v[1::2])", "map(Fraction, v[1::2], v[::2])",
     f"{DRAWS}::test_products_and_even_functions_equal_the_randint_comprehensions"),
    # root data read in divisor order
    (ZETAPROD, "        return not sum(h)\n", "        return not any(h)\n",
     f"{RATIONAL}::test_folded_exponents_equal_repeated_division"),
    (ZETAPROD, "dict(zip(e, map(mul, e, reversed(e.values()))))", "dict(zip(e, map(mul, e, e.values())))",
     "tests/test_zetaprod.py::TestRootData::test_root_weights_read_in_divisor_order_equal_the_per_key_reads"),
    (ZETAPROD, "map(neg, reversed(z.e.values.values()))", "map(neg, z.e.values.values())",
     "tests/test_zetaprod.py::TestSaito::test_transform_and_dual_equal_the_per_key_reads"),
    (VERIFY, "[*expo.values.values()] == [*reversed(m.values.values())]", "[*expo.values.values()] == [*m.values.values()]",
     f"{VERIFY_CMD}::test_json_pins_the_check_count_of_every_suite_at_seed_42"),
    # a repeated conductor runs once, in first-seen order
    (VERIFY, "tuple(dict.fromkeys(self.ns))", "tuple(self.ns)", f"{VERIFY_CMD}::{REPEATED_N}"),
    (VERIFY, "tuple(dict.fromkeys(self.ns))", "tuple(sorted(set(self.ns)))", f"{VERIFY_CMD}::{REPEATED_N}"),
    # the e-free phi_inv series, built once per order
    (DIRICHLET, 'named_function("phi_inv").values(order))', 'named_function("phi_inv").values(order - 1))',
     (f"{EXAMPLES}::test_hand_instance_rank_two", f"{EXAMPLES}::test_corrupted_inverse_table_reports_the_inverse_identity")),
    # one truncated-series container for both kinds
    (EXACTPOLY, "        if type(other) is not type(self):\n            return NotImplemented\n",
     "        if not isinstance(other, _TruncatedSeries):\n            return NotImplemented\n",
     f"{CONTAINER}::test_the_two_kinds_never_compare_equal_nor_mix"),
    (EXACTPOLY, "return self.coeffs[k - self.first]", "return self.coeffs[k]", f"{CONTAINER}::{PER_CLASS}"),
    (EXACTPOLY, "type(self)(map(add, self.coeffs, other.coeffs))",
     "type(self)(__import__('itertools').starmap(add, __import__('itertools').zip_longest(self.coeffs, other.coeffs, fillvalue=0)))",
     f"{CONTAINER}::{PER_CLASS}"),
    # the eta closed forms built to order, with order 1 on its own
    (ETAPROD, "for d in divisors(n)), order)", "for d in divisors(n)), order - 1)",
     f"{ETA}::test_parabolic_four_way_agreement"),
    (ETAPROD, "    if order == 1:\n", "    if False:\n", f"{ETA}::{SMALLEST_ORDERS}[1]"),
    # one generator per suite key and conductor, in SuiteConfig.draw: rebuilt
    # for every instance, it draws one instance over and over; shared by the
    # conductors of a suite key, a conductor's instances depend on the
    # conductors before it; a key without r gives the same instances at every r
    (VERIFY, "        return [make(rng, n) for _ in range(count)]\n",
     "        return [make(self.rng(*key), n) for _ in range(count)]\n",
     f"{GENERATORS}::test_the_hundred_root_data_products_at_60_are_not_all_equal"),
    (VERIFY, "        rng = self.rng(*key)\n", "        rng = self.__dict__.setdefault(key[0], self.rng(key[0]))\n",
     f"{GENERATORS}::test_one_conductor_draws_there_what_the_full_run_draws_there[dirichlet-transfer-12]"),
    (VERIFY, 'cfg.draw(("wsum", n, r, b, c)', 'cfg.draw(("wsum", n, b, c)',
     f"{GENERATORS}::test_a_default_verify_all_builds_one_generator_per_key"),
    # a generator per instance, seeded from its trial index as well, draws
    # other instances than the pinned ones
    (VERIFY, "        return [make(rng, n) for _ in range(count)]\n",
     "        return [make(self.rng(*key, t), n) for t in range(count)]\n",
     f"{DRAWS}::test_what_each_random_suite_draws_at_seed_42_is_pinned"),
    # the rerun command keeps every non-default size
    (VERIFY, 'for name in ("nmax", "order", "trials"):', 'for name in ("nmax", "trials"):', RERUN_ALONE),
    # SuiteConfig, not the CLI, drops a repeated conductor
    (VERIFY, "        if self.ns is not None:\n            self.ns = tuple(dict.fromkeys(self.ns))\n",
     "        pass\n", "tests/test_report.py::TestCounts::test_a_repeated_conductor_is_checked_and_counted_once"),
    # a JSON n below 1 is a parse error
    (ZETAPROD, '    if n < 1:\n        raise ZetaParseError(f"n must be a positive integer, got {n}")\n', "",
     "tests/test_cli.py::TestAnalyze::test_json_input_refuses_non_canonical_repeated_and_missing_keys"),
    # JSON products take the fields n and e only
    (ZETAPROD, '        if field not in ("n", "e"):\n', "        if False:\n",
     "tests/test_cli.py::TestAnalyze::test_json_input_refuses_non_canonical_repeated_and_missing_keys"),
    # verify skips what a run has already determined: the second Fourier
    # direction where the first passed, each preset kernel comparison per
    # key, the denominator's search where the numerator holds Phi_d, the
    # series G per trial, and a root-data product drawn again at its conductor
    (VERIFY, "same or ramanujan_coefficients(b) == r", "True or ramanujan_coefficients(b) == r", PLANTED_FOURIER),
    (VERIFY, "same or ramanujan_coefficients(b) == r", "ramanujan_coefficients(b) == r", ONCE_FOURIER),
    (ZETAPROD, "outcomes = {d: Z[d] * kden == knum * D for", "outcomes = {d: True for",
     (PER_PRODUCT, f"{PRESETS}::test_preset_tables_equal_the_per_trial_oracle")),
    (ZETAPROD, "        report.expect(ok, identity=", "        report.expect(True, identity=", PER_PRODUCT),
    (ZETAPROD, "den = _cyclotomic_valuations(f.den, n, num)", "den = _cyclotomic_valuations(f.den, n)", TWO_SEARCHES),
    (ZETAPROD, "        if coprime and coprime[d]:\n", "        if coprime and not coprime[d]:\n", TWO_SEARCHES),
    (VERIFY, "zeta, mu = zeta_series(cfg.order), mobius_series(cfg.order)",
     "zeta, mu = zeta_series(star_order), mobius_series(star_order)",
     f"{TRANSFER_SERIES}::test_the_five_series_are_built_once_per_run"),
    (VERIFY, "check_transfer(z, zeta, mu)", "check_transfer(z, zeta, zeta)",
     f"{TRANSFER_SERIES}::test_the_suite_equals_the_one_that_builds_the_series_per_trial"),
    # root data: each distinct product's outcomes once per conductor, every
    # draw recorded under its own trial index
    (VERIFY, "    for n in ns:\n        outcomes = {}\n", "    outcomes = {}\n    for n in ns:\n", ROOT_FAULT),
    (VERIFY, "            if key not in outcomes:\n                outcomes[key] = _root_outcomes(z)\n",
     "            if key in outcomes:\n                continue\n            outcomes[key] = _root_outcomes(z)\n",
     f"{ROOT_OUTCOMES}::test_a_passing_run_equals_the_per_trial_loop"),
    (VERIFY, "report.expect(ok, n=n, trial=t, identity=identity)",
     "report.expect(ok, n=n, trial=outcomes.setdefault((key,), t), identity=identity)", ROOT_FAULT),
    # public algebra that the suites never reach
    (EXACTPOLY, 'return self._inverse("negative power of zero") ** -k',
     'return self._inverse("negative power of zero") ** (1 - k)',
     f"{RATIONAL_FUNCTIONS}::test_a_power_is_the_power_of_each_value"),
    (EXACTPOLY, "        if self.is_zero:\n            raise ZeroDivisionError(message)\n", "",
     (f"{RATIONAL_FUNCTIONS}::test_a_negative_power_of_zero_is_refused",
      f"{RATIONAL_FUNCTIONS}::test_division_by_zero_is_refused")),
    (EXACTPOLY, "self.num.derivative() * self.den - self.num", "self.num.derivative() * self.den + self.num",
     f"{RATIONAL_FUNCTIONS}::test_the_derivative_is_the_quotient_rule_at_each_point"),
    (EXACTPOLY, "        return o + -self\n", "        return self + -o\n",
     f"{RATIONAL_FUNCTIONS}::test_reflected_subtraction_and_division_take_the_left_operand_first"),
    (EXACTPOLY, "        return o / self\n", "        return self / o\n",
     f"{RATIONAL_FUNCTIONS}::test_reflected_subtraction_and_division_take_the_left_operand_first"),
    (EXACTPOLY, "PolynomialQ(_add(o.coeffs, _neg(self.coeffs)))", "PolynomialQ(_add(self.coeffs, _neg(o.coeffs)))",
     f"{REFLECTED}::test_a_number_less_a_polynomial"),
    (EXACTPOLY, "        return self.coeffs == o.coeffs\n", "        return self.coeffs == (other,)\n",
     f"{REFLECTED}::test_a_polynomial_equals_a_number_only_as_a_constant"),
    # catalog commands that the verify suites never run
    (CLI, '"families": ["A_<rank>", "D_<rank>"]', '"families": ["A_<rank>"]',
     f"{CATALOG_CMD}::test_json_list_names_every_entry_and_both_families"),
    (CLI, '_emit(args, summary["status"], {"reports"', '_emit(args, "pass", {"reports"',
     f"{CATALOG_CMD}::test_json_verify_is_flagged_with_one_report_per_check"),
    (CLI, "reports = [catalog_mod.verify_entry(_catalog_entry(args.name))]", "reports = catalog_mod.verify_catalog()",
     f"{CATALOG_CMD}::test_json_verify_of_one_entry"),
    (CLI, '        if not args.name:\n            raise ValueError("catalog get needs an entry name")\n', "",
     f"{CATALOG_CMD}::test_get_without_a_name_exits_two"),
    # one owner per rule: the int/Fraction lift, the inverse of a rational
    # function, each Möbius-pair kernel, the report printer and the prop scope
    (EXACTPOLY, "    if isinstance(x, (int, Fraction)):\n        return PolynomialQ.constant(x)\n", "",
     (f"{REFLECTED}::test_a_polynomial_equals_a_number_only_as_a_constant",
      f"{RATIONAL_FUNCTIONS}::test_field_arithmetic")),
    (EXACTPOLY, "scale = div_exact(1, self.num.leading)", "scale = 1",
     (f"{RATIONAL_FUNCTIONS}::test_a_power_is_the_power_of_each_value",
      f"{LAWS}::test_division_and_negative_powers_equal_the_formulas_they_replaced")),
    (EXACTPOLY, "        return self * o._inverse(", "        return o * self._inverse(",
     f"{LAWS}::test_division_and_negative_powers_equal_the_formulas_they_replaced"),
    (ETAPROD, "ramanujan_form=kernel_form(zetaprod.ramanujan_kernel)",
     "ramanujan_form=kernel_form(zetaprod.logderiv_kernel)", KERNEL_OWNERS),
    (ETAPROD, "cyclotomic_form=kernel_form(zetaprod.logderiv_kernel)",
     "cyclotomic_form=kernel_form(zetaprod.ramanujan_kernel)", KERNEL_OWNERS),
    (ZETAPROD, "kernels = {d: logderiv_kernel(d) for d in divs}", "kernels = {d: ramanujan_kernel(d) for d in divs}",
     KERNEL_OWNERS),
    (CLI, "{r.context.get('name', r.check)}", "{r.check}", PRINTER),
    (CLI, "            _print_reports(reports, [None] * len(reports))\n",
     "            for r in reports:\n                print(f\"[{r.status.upper():7s}] {r.context.get('name', r.check)}\")\n",
     PRINTER),
    (VERIFY, '"prop": list(dict.fromkeys(_PROP_INDEX_SUITE.values())),', '"prop": list(_PROP_INDEX_SUITE.values()),',
     f"{VERIFY_CMD}::test_the_prop_scope_runs_the_suite_of_each_proposition_once_in_index_order"),
    # report owns the failure rule
    (REPORT, "failures = sum(1 for r in reports if r.failed)", "failures = sum(1 for r in reports if r.failed or r.flags)",
     "tests/test_report.py::test_summarize_fails_a_run_only_on_a_failed_report"),
]


def check_entries() -> list[str]:
    """Why each malformed entry is refused; empty when every entry is sound."""
    problems, seen = [], set()
    for path, old, new, tests in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            problems.append(f"{path}: {old!r} occurs {count} times, not exactly once")
        if (path, old, new) in seen:
            problems.append(f"{path}: {old!r} -> {new!r} is listed twice; name all its tests in one entry")
        seen.add((path, old, new))
        for test in _ids(tests):
            test_file, *_, name = test.split("[")[0].split("::")
            if f"def {name}(" not in (ROOT / test_file).read_text():
                problems.append(f"{test}: no such test")
    return problems


def _ids(tests: str | tuple[str, ...]) -> tuple[str, ...]:
    return (tests,) if isinstance(tests, str) else tests


def run(copy: Path, path: str, old: str, new: str, tests: str | tuple[str, ...]) -> int | str:
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(old, new))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *_ids(tests)]
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_text(original)


def main() -> int:
    if problems := check_entries():
        sys.exit("\n".join(problems))
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for path, old, new, tests in MUTANTS:
            code = run(copy, path, old, new, tests)
            # pytest exits 1 when a test failed; 0 means the mutant survived,
            # anything else that the test could not run
            verdict = "caught" if code == 1 else "SURVIVED" if code == 0 else f"NOT RUN (pytest exit {code})"
            print(f"{verdict:10s} {path}: {old!r} -> {new!r}  [{' '.join(_ids(tests))}]", flush=True)
            if code != 1:
                survivors.append(f"{path}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    for s in survivors:
        print(f"surviving: {s}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
