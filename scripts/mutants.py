#!/usr/bin/env python3
"""Run the mutation suite: every mutant is one exact edit of the source
that a check must notice, and tier-1 must fail on it.

For each mutant the script copies the repository, without `.git` and
caches, into a temporary directory and applies the edit there. In the
copy it runs the mutant's named killer, the first test that failed on it
in a full run, and only if that test passes does it run tier-1, stopping
at the first failure; so a mutant is killed exactly when tier-1 fails on
it. It prints one line per mutant: KILLED with the first failing test,
or SURVIVED. The working tree is never edited. The script exits 1 if a
mutant survives that is not in KNOWN_SURVIVORS, and 2 before running
anything if a mutant's old text does not occur exactly once in its file
or its killer names no test function in an existing file. It stays
outside tier-1 because a full run takes minutes:

    python3 scripts/mutants.py

With `--all NAME`, it runs the whole of tier-1 on the one mutant NAME,
without stopping at the first failure, and lists every test that kills
it, so one can see whether only a call-count or timing test does:

    python3 scripts/mutants.py --all x0-x3-partials-times-1.5
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# tier-1 without its check of this list, which fails on any mutated copy
TIER1 = ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    file: str   # relative to the repository root
    old: str    # must occur exactly once in the file
    new: str
    why: str
    killer: str  # pytest node id of the test that killed it first


MUTANTS = (
    Mutant("l1-drops-total-derivative", "src/msgrav/eh.py",
           'l1 = dldv - np.einsum("...amnn->...am", '
           'closed.L2.b[..., PAIR_FULL, :])',
           "l1 = dldv",
           "eh L1 without its D_n L2 term",
           "tests/test_acceptance.py::"
           "test_acceptance_3_hamiltonian_dual_form"),
    Mutant("eh-base-is-row-1", "src/msgrav/eh.py",
           "base = EHMomenta(L=m.L[0], L2_ad=m.L2_ad[0], L1=m.L1[0], "
           "H_sum=m.H_sum[0],\n                     H_mag=m.H_mag[0])",
           "base = EHMomenta(L=m.L[1], L2_ad=m.L2_ad[1], L1=m.L1[1], "
           "H_sum=m.H_sum[1],\n                     H_mag=m.H_mag[1])",
           "a trial row as the eh projectability base",
           "tests/test_eh.py::test_projectability_matches_reference_loop"),
    Mutant("c0-times-zero", "src/msgrav/ep.py",
           "return -closed.L.g[..., :NPAIR]",
           "return 0 * -closed.L.g[..., :NPAIR]",
           "ep constraint_c0 times 0",
           "tests/test_ep.py::"
           "test_metric_equation_matches_metric_model_constraints"),
    Mutant("x0-x3-partials-times-1.5", "src/msgrav/exprparse.py",
           "jets.append([{c: diff(low[c[:-1]], c[-1]) for c in",
           "jets.append([{c: op(\"*\", emit(Num(1.5 if 0 in c and 3 in c "
           "else 1.0)), diff(low[c[:-1]], c[-1])) for c in",
           "the jet program's mixed x0-x3 partials times 1.5; the sympy "
           "referee's exact jets kill it end to end too",
           "tests/test_catalog.py::"
           "test_jets_match_the_series_and_stack_row_by_row"),
    Mutant("eh-cartan-l2a-times-1.01", "src/msgrav/eh.py",
           "g0:dg0] = closed.L2.a[..., PAIR_FULL, :]",
           "g0:dg0] = closed.L2.a[..., PAIR_FULL, :] * 1.01",
           "the eh Cartan form's closed.L2.a block times 1.01",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("eh-cartan-l1-rows-g-only", "src/msgrav/eh.py",
           "dense[..., 1:1 + n1, g0:] = dl1",
           "dense[..., 1:1 + n1, g0:dg0] = dl1[..., :dg0 - g0]",
           "the eh Cartan form's first-order momenta rows cut to the g "
           "columns",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("ep-projectability-h-with-itself", "src/msgrav/ep.py",
           "np.abs(m.H[1:] - closed.H.v) / (1.0 + h_mag)",
           "np.abs(m.H[1:] - m.H[1:]) / (1.0 + h_mag)",
           "ep projectability comparing H with itself",
           "tests/test_ep.py::"
           "test_projectability_reads_each_compared_component[H]"),
    Mutant("holonomy-times-zero", "src/msgrav/report.py",
           '("holonomy", "identity",\n         lambda s: _rel(',
           '("holonomy", "identity",\n         lambda s: 0 * _rel(',
           "the holonomy family times 0",
           "tests/test_eh.py::"
           "test_holonomy_slots_vanish_at_the_section_and_move_with_its_dg"),
    Mutant("rel-scale-1e6", "src/msgrav/report.py",
           "return delta / (1.0 + np.abs(ref))",
           "return delta / (1.0 + 1e6 * np.abs(ref))",
           "report._rel dividing by 1 + 1e6 |ref|",
           "tests/test_eh.py::"
           "test_holonomy_slots_vanish_at_the_section_and_move_with_its_dg"),
    Mutant("eh-projectability-drops-l1", "src/msgrav/eh.py",
           "trial_deviation(m.L2_ad[1:], base.L2_ad, (-2, -1)),\n"
           "        trial_deviation(m.L1[1:], base.L1, (-2, -1))])",
           "trial_deviation(m.L2_ad[1:], base.L2_ad, (-2, -1))])",
           "eh projectability_check without its L1 deviation",
           "tests/test_eh.py::"
           "test_projectability_reads_each_compared_component[L1]"),
    Mutant("ep-projectability-drops-momenta", "src/msgrav/ep.py",
           "dev = np.maximum(np.abs(m.H[1:] - closed.H.v) / (1.0 + h_mag),"
           "\n                     trial_deviation(m.Lmom_ad[1:], "
           "base.Lmom_ad, axes))",
           "dev = np.abs(m.H[1:] - closed.H.v) / (1.0 + h_mag)",
           "ep projectability_check_ep without its momenta deviation",
           "tests/test_ep.py::"
           "test_projectability_reads_each_compared_component[Lmom_ad]"),
    Mutant("mul-drops-a-cross-term", "src/msgrav/tangents.py",
           "_outer(self.a, o.b), _outer(o.a, self.b))))",
           "_outer(self.a, o.b))))",
           "a dual product's mixed block without the other factor's inner "
           "block times this one's outer block",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("chain-drops-second-derivative", "src/msgrav/tangents.py",
           "_total((_scale(self.m, d, 2), ab)))",
           "_total((_scale(self.m, d, 2), None)))",
           "the mixed block of a dual's sqrt without its f'' a b term",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("einsum-drops-cross-terms", "src/msgrav/tangents.py",
           "(_contract(s, _swap(_swap(vals, i, ops[i].a), j, ops[j].b))\n"
           "         for i, j, s in cross)",
           "()",
           "einsum's mixed block without its inner-outer cross terms",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("add-keeps-own-outer-block", "src/msgrav/tangents.py",
           "_total((self.b, o.b))",
           "self.b",
           "a dual sum's outer block without the other term's",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("einstein-constraint-times-zero", "src/msgrav/report.py",
           '("einstein-constraint", "vacuum", lambda s: s.c)',
           '("einstein-constraint", "vacuum", lambda s: 0 * s.c)',
           "the eh einstein-constraint family times 0",
           "tests/test_acceptance.py::test_acceptance_5_nonvacuum_control"),
    Mutant("metric-equation-as-identity", "src/msgrav/report.py",
           '("metric-equation", "vacuum",',
           '("metric-equation", "identity",',
           "ep metric-equation labelled an identity, which must pass on a "
           "non-vacuum metric",
           "tests/test_generic_sections.py::"
           "test_identities_hold_and_vacuum_fails_on_generic_sections"
           "[ep-0.1]"),
    Mutant("pre-metricity-as-vacuum", "src/msgrav/report.py",
           '("pre-metricity", "levi-civita",',
           '("pre-metricity", "vacuum",',
           "ep pre-metricity labelled vacuum, which must fail on a "
           "non-vacuum Levi-Civita metric",
           "tests/test_generic_sections.py::"
           "test_identities_hold_and_vacuum_fails_on_generic_sections"
           "[ep-0.1]"),
    Mutant("new-never-returns-tan", "src/msgrav/tangents.py",
           "if a is not None and b is None and m is None:",
           "if False:",
           "every result a Jet2, so a gradient pass returns Jet2s, which "
           "fieldspace._tangent_pass cannot take as its Tans",
           "tests/test_acceptance.py::test_acceptance_2_momenta_identity"),
    Mutant("ricci-d2-drops-a-term", "src/msgrav/geometry.py",
           '- np.einsum("abp,srq->rsabpq", _EXPAND, _EXPAND)\n'
           '                   - np.einsum("rsp,abq->rsabpq", _EXPAND, '
           "_EXPAND))",
           '- np.einsum("abp,srq->rsabpq", _EXPAND, _EXPAND))',
           "the d2g part of the Ricci tensor without its g_{rs,ab} term",
           "tests/test_acceptance.py::test_acceptance_2_momenta_identity"),
    Mutant("scalar-density-untransposed", "src/msgrav/geometry.py",
           '0.5 * einsum("dfe->def", dgm)',
           "0.5 * dgm",
           "scalar_density's D_dfe read as D_def",
           "tests/test_acceptance.py::"
           "test_acceptance_3_hamiltonian_dual_form"),
    Mutant("w-drops-transpose", "src/msgrav/geometry.py",
           '0.5 * einsum("abl->lab", dgm)',
           "0.5 * dgm",
           "scalar_density's w without its transpose of dg",
           "tests/test_acceptance.py::"
           "test_acceptance_3_hamiltonian_dual_form"),
    Mutant("momenta2-mult-over-2.01", "src/msgrav/eh.py",
           "MULT / 2,",
           "MULT / 2.01,",
           "eh._MOMENTA2's first term with MULT / 2.01",
           "tests/test_acceptance.py::test_acceptance_2_momenta_identity"),
    Mutant("ep-momenta-second-term-times-1.01", "src/msgrav/ep.py",
           '- np.einsum("cx,sy,ba->abcsxy"',
           '- 1.01 * np.einsum("cx,sy,ba->abcsxy"',
           "ep._MOMENTA's second term times 1.01",
           "tests/test_cli.py::test_check_csv_format"),
    Mutant("cofactors-flips-a-sign", "src/msgrav/exterior.py",
           "+ lo[b, c] * hi[a, d]",
           "- lo[b, c] * hi[a, d]",
           "one sign of exterior._cofactors' Laplace expansion flipped",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("ep-point-at-order-1", "src/msgrav/catalog.py",
           "jets = metric_jet_at(spec, x, 2)",
           "jets = metric_jet_at(spec, x, 1)",
           "the ep point's metric jet at order 1, so d2g is missing",
           "tests/test_acceptance.py::test_acceptance_6_projectability"),
    Mutant("program-repeats-subtrees", "src/msgrav/exprparse.py",
           "if key not in slots:",
           "if True:",
           "a compiled or jet program evaluates a repeated step again: pure "
           "waste with the same values, so only a call-count test kills it",
           "tests/test_catalog.py::test_grid_check_walks_each_component_once"),
    Mutant("univariate-drops-top-order", "src/msgrav/series.py",
           "in range(1, self.order + 1):",
           "in range(1, self.order):",
           "a series function without its highest-order Taylor term",
           "tests/test_catalog.py::"
           "test_jets_match_the_series_and_stack_row_by_row"),
    Mutant("finite-mean-check-off", "src/msgrav/report.py",
           "if not math.isfinite(mean):",
           "if False:",
           "a non-finite residual reaches the report, which json then "
           "cannot write",
           "tests/test_cli.py::test_nonfinite_residual_exits_three_quietly"),
    Mutant("chunk-errstate-dropped", "src/msgrav/report.py",
           "with catalog.quiet():\n            # point i's",
           "if True:\n            # point i's",
           "the checks run under numpy's default error state, so a run "
           "that ends in a number or a DomainError warns first",
           "tests/test_cli.py::test_skipped_points_error_is_quiet"),
    Mutant("nesting-unbounded", "src/msgrav/exprparse.py",
           "if self.depth == MAX_NESTING:",
           "if False:",
           "the parser's nesting bound never reached, so deep text "
           "recurses past Python's limit",
           "tests/test_cli.py::"
           "test_deeply_nested_expression_exits_two[parentheses]"),
    Mutant("math-each-array-via-numpy", "src/msgrav/exprparse.py",
           "return np.array([fn(v, *args) for v in x.ravel().tolist()]\n"
           "                        ).reshape(x.shape)",
           "return getattr(np, fn.__name__)(x, *args)",
           "an array's functions and powers through numpy's ufuncs, which "
           "round and fail otherwise than the float's `math` calls",
           "tests/test_catalog.py::"
           "test_stacked_grid_check_matches_per_point_reference"
           "[negative-power]"),
    Mutant("math-pow-as-float-power", "src/msgrav/exprparse.py",
           "return math_each(math.pow, x, node.exponent)",
           "return math_each(lambda b, n: b ** n, x, node.exponent)",
           "a power through `**`, whose overflow reads as Python's errno "
           "tuple and whose 0^-1 is a ZeroDivisionError",
           "tests/test_catalog.py::"
           "test_jets_fail_where_floats_fail_on_fuzz_specs"),
    Mutant("powi-skips-float-power", "src/msgrav/series.py",
           "        math_each(math.pow, self.coeffs[..., 0], n)\n",
           "",
           "a series power without the float power of its constant terms, "
           "so 0^-1 reads as a division by zero and an overflow is silent",
           "tests/test_series.py::test_powi_fails_as_the_float_power_does"),
    Mutant("sqrt-zero-root-unchecked", "src/msgrav/series.py",
           "if np.any(r == 0.0):",
           "if False:",
           "a series sqrt of a zero constant term divides by the root "
           "instead of raising",
           "tests/test_series.py::test_sqrt_of_nonpositive_raises"),
    Mutant("loader-index-any-digit", "src/msgrav/catalog.py",
           r'"metric": (r"g\s+([0-3])\s+([0-3])"',
           r'"metric": (r"g\s+(-?\d)\s+(-?\d)"',
           "the loader reads any digit as a metric index, so `g -1 -2` "
           "sets g23",
           "tests/test_catalog.py::"
           "test_file_errors_name_their_line[g-negative]"),
    Mutant("box-width-unchecked", "src/msgrav/catalog.py",
           "if not (lo < hi and math.isfinite(float(hi) - float(lo))):",
           "if not lo < hi:",
           "a sample box beyond float range loads",
           "tests/test_catalog.py::"
           "test_sample_box_must_be_finite_and_not_empty[interval0]"),
    Mutant("ep-momenta-entry-times-1.01", "src/msgrav/ep.py",
           '_MOMENTA = (np.einsum(',
           "_MOMENTA = (1 + 0.01 * (np.arange(DIM ** 6) == 257).reshape("
           "(DIM,) * 6)) * (np.einsum(",
           "ep._MOMENTA's entry [0, 1, 0, 0, 0, 1] times 1.01",
           "tests/test_ep.py::"
           "test_field_equation_covector_is_the_euler_lagrange_form"),
    Mutant("eh-cartan-dl1-times-1.01", "src/msgrav/eh.py",
           "dense[..., 1:1 + n1, g0:] = dl1",
           "dense[..., 1:1 + n1, g0:] = dl1 * 1.01",
           "the eh Cartan form's first-order momenta rows times 1.01",
           "tests/test_acceptance.py::test_acceptance_4_vacuum_certification"),
    Mutant("ricci-gamma-gamma-transposed", "src/msgrav/geometry.py",
           'einsum("cbs,sca->ab", gam, gam)',
           'einsum("csb,sca->ab", gam, gam)',
           "one Gamma Gamma term of the Ricci tensor with its lower pair "
           "transposed",
           "tests/test_ep.py::test_lagrangian_trivial_and_example"),
    Mutant("premetricity-trace-weight-1/3", "src/msgrav/ep.py",
           "- (2.0 / 3.0) * gm[..., None] * ttr",
           "- (1.0 / 3.0) * gm[..., None] * ttr",
           "ep pre-metricity with trace weight 1/3 for 2/3",
           "tests/test_acceptance.py::"
           "test_acceptance_8_projective_gauge_invariance"),
    Mutant("eh-projectability-absolute", "src/msgrav/eh.py",
           "np.abs(m.H_sum[1:] - base.H_sum)\n"
           "        / (1.0 + np.maximum(m.H_mag[1:], base.H_mag)),",
           "np.abs(m.H_sum[1:] - base.H_sum),",
           "eh projectability's H_sum deviation without its term-magnitude "
           "divisor, so a large constant metric fails on rounding",
           "tests/test_cli.py::test_huge_determinant_runs_without_warnings"
           "[1e12]"),
    Mutant("lorentz-bound-absolute", "src/msgrav/fieldspace.py",
           "det = np.linalg.det(m / np.where(rows > 0, rows, 1.0))",
           "det = np.linalg.det(m)",
           "the degeneracy bound on |det g| itself, so a small Schwarzschild "
           "mass reads as not Lorentzian",
           "tests/test_catalog.py::"
           "test_small_schwarzschild_mass_builds_both_models"),
    Mutant("built-alone-with-its-successor", "src/msgrav/catalog.py",
           "build(xs[k:k + 1])",
           "build(xs[k:k + 2])",
           "catalog.built_alone judging each point in a stack with the next "
           "one, so the point before a failing one is skipped too",
           "tests/test_catalog.py::"
           "test_stacked_grid_check_matches_per_point_reference[reciprocal]"),
    Mutant("prolong-ep-drops-override-derivatives", "src/msgrav/fieldspace.py",
           "Gamma[(..., *lmn)], dGamma[(..., *lmn, slice(None))] = "
           "connection_jets",
           "Gamma[(..., *lmn)], dGamma[(..., *lmn, slice(None))] = "
           "connection_jets[0], 0.0",
           "fieldspace.prolong_ep laying a connection override's values but "
           "not its derivatives over the Levi-Civita ones",
           "tests/test_catalog.py::test_connection_override_reaches_ep_point"),
    Mutant("jets-gather-misses-the-zero-column", "src/msgrav/catalog.py",
           "[[col.get(s, len(col)) for s in r] for r in b]",
           "[[col.get(s, len(col) - 1) for s in r] for r in b]",
           "catalog._jets_at gathering an identically-zero partial from "
           "the last computed partial instead of the zero column",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("loader-keeps-repeated-keys", "src/msgrav/catalog.py",
           "if (section, key) in lines:",
           "if False:",
           "the loader keeping the last of a repeated key",
           "tests/test_catalog.py::"
           "test_file_errors_name_their_line[g-twice]"),
    Mutant("ep-cartan-dh-row-g-only", "src/msgrav/ep.py",
           "dense[..., 0, g0:] = closed.H.g",
           "dense[..., 0, g0:gam0] = closed.H.g[..., :gam0 - g0]",
           "the ep Cartan form's dH row without its Gamma columns",
           "tests/test_cli.py::test_long_sum_runs[ep]"),
    Mutant("eh-hamiltonian-quarter-1.01", "src/msgrav/eh.py",
           "h = (0.25 * (einsum(",
           "h = (0.2525 * (einsum(",
           "the closed eh Hamiltonian's 1/4 weight times 1.01",
           "tests/test_acceptance.py::"
           "test_acceptance_3_hamiltonian_dual_form"),
    Mutant("trace-removal-over-2.9", "src/msgrav/ep.py",
           'tr = np.einsum("...mmg->...g", T) / 3.0',
           'tr = np.einsum("...mmg->...g", T) / 2.9',
           "ep.trace_removal dividing the trace by 2.9 for 3",
           "tests/test_acceptance.py::"
           "test_acceptance_8_projective_gauge_invariance"),
    Mutant("integrability-trace-weight-1/2.9", "src/msgrav/ep.py",
           "(1.0 / 3.0) * gm[..., None, None]",
           "(1.0 / 2.9) * gm[..., None, None]",
           "the integrability constraint's trace weight 1/2.9 for 1/3",
           "tests/test_ep.py::test_constraint_ladder_matches_index_loops"),
    Mutant("einstein-derivative-times-1.01", "src/msgrav/eh.py",
           "return d.v, d.g",
           "return d.v, 1.01 * d.g",
           "the total derivatives of the Einstein constraints times 1.01",
           "tests/test_eh.py::"
           "test_constraint_derivative_on_an_order_three_point"),
    Mutant("jet-quotient-rule-sign", "src/msgrav/exprparse.py",
           'return op("-", op("/", da, b), op("/", op("*", t, db), b))',
           'return op("+", op("/", da, b), op("/", op("*", t, db), b))',
           "the jet program's quotient rule adding (a/b) db/b",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-product-rule-repeats-da", "src/msgrav/exprparse.py",
           'return op("+", op("*", da, b), op("*", a, db))',
           'return op("+", op("*", da, b), op("*", a, da))',
           "the jet program's product rule with a da for a db",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-sqrt-rule-over-3", "src/msgrav/exprparse.py",
           '"sqrt": lambda: op("/", da, op("*", emit(Num(2.0)), t)),',
           '"sqrt": lambda: op("/", da, op("*", emit(Num(3.0)), t)),',
           "the jet program's sqrt rule dividing by 3 sqrt(a)",
           "tests/test_referee.py::"
           "test_each_jet_rule_matches_the_exact_derivatives[sqrt]"),
    Mutant("jet-ln-rule-over-ln", "src/msgrav/exprparse.py",
           '"ln": lambda: op("/", da, a),',
           '"ln": lambda: op("/", da, t),',
           "the jet program's ln rule dividing by ln a for a",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-power-rule-n-plus-1", "src/msgrav/exprparse.py",
           'op("*", emit(Num(float(n))), a if n == 2',
           'op("*", emit(Num(float(n + 1))), a if n == 2',
           "the jet program's power rule with n + 1 a^(n-1)",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-sin-rule-reads-sin", "src/msgrav/exprparse.py",
           '"sin": lambda: op("*", emit(Call("cos", None), a), da),',
           '"sin": lambda: op("*", emit(Call("sin", None), a), da),',
           "the jet program's sin rule with sin a for cos a",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-cos-rule-drops-sign", "src/msgrav/exprparse.py",
           '"cos": lambda: emit(Neg(None), op(\n'
           '                    "*", emit(Call("sin", None), a), da))}',
           '"cos": lambda: op(\n'
           '                    "*", emit(Call("sin", None), a), da)}',
           "the jet program's cos rule without its minus sign",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-exp-rule-reads-the-argument", "src/msgrav/exprparse.py",
           '"exp": lambda: op("*", t, da),',
           '"exp": lambda: op("*", a, da),',
           "the jet program's exp rule with a for exp a",
           "tests/test_acceptance.py::"
           "test_acceptance_4_vacuum_certification"),
    Mutant("jet-partials-along-the-first-index", "src/msgrav/exprparse.py",
           "jets.append([{c: diff(low[c[:-1]], c[-1]) for c in",
           "jets.append([{c: diff(low[c[1:]], c[0]) for c in",
           "a mixed partial differentiating the one over its tuple's last "
           "k - 1 indices along its first: equal values, other rounding",
           "tests/test_parser.py::"
           "test_each_partial_differentiates_the_one_below_along_its_last_"
           "index"),
    Mutant("integrability-gamma-gamma-swapped", "src/msgrav/ep.py",
           'einsum("rg,gnl,lms->rsmn", gm, p.Gamma, p.Gamma)',
           'einsum("rg,gml,lns->rsmn", gm, p.Gamma, p.Gamma)',
           "the integrability constraint's Gamma Gamma term with its "
           "directions swapped",
           "tests/test_acceptance.py::"
           "test_acceptance_7_first_order_model_constraints"),
    Mutant("torsion-derivative-keeps-the-trace", "src/msgrav/ep.py",
           "_apairs_of(trace_removal(torsion_full(dgam))), -3, -1)",
           "_apairs_of(torsion_full(dgam)), -3, -1)",
           "the torsion derivative without its trace removal",
           "tests/test_acceptance.py::"
           "test_acceptance_8_projective_gauge_invariance"),
    Mutant("einstein-trace-weight-0.49", "src/msgrav/eh.py",
           'einsum(",ab->ab", 0.5 * scal, ginv)',
           'einsum(",ab->ab", 0.49 * scal, ginv)',
           "the Einstein constraints with R g^ab / 2 times 0.98, which "
           "breaks the contracted Bianchi identity",
           "tests/test_acceptance.py::test_acceptance_5_nonvacuum_control"),
)

# mutants that no test can kill yet, with the reason
KNOWN_SURVIVORS = {}


def unmatched():
    """(mutant name, occurrences of its old text) for every mutant whose
    old text does not occur exactly once in its file."""
    counts = ((m.name, (ROOT / m.file).read_text(encoding="utf-8")
               .count(m.old)) for m in MUTANTS)
    return [(name, n) for name, n in counts if n != 1]


def missing_killers():
    """The names of the mutants whose killer names no `def` of a test
    function in an existing test file."""
    def found(node):
        path, _, name = node.partition("::")
        path = ROOT / path
        return path.is_file() and f"def {name.split('[', 1)[0]}(" in \
            path.read_text(encoding="utf-8")
    return [m.name for m in MUTANTS if not found(m.killer)]


def failures(output: str) -> list:
    """The FAILED and ERROR tests of pytest's short summary, in order."""
    return [line.split(" - ", 1)[0] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def run_mutant(m: Mutant, first_only: bool = True) -> tuple:
    """(killed, failing tests) of tier-1 on a mutated copy; with
    first_only, the mutant's killer runs first, and tier-1, stopping at
    its first failure, runs only if the killer passes."""
    with tempfile.TemporaryDirectory(prefix="msgrav-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".bench_out"))
        path = tree / m.file
        path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
        for args in ([m.killer], ["-x"]) if first_only else ([],):
            done = subprocess.run([sys.executable, *TIER1, *args], cwd=tree,
                                  env=env, capture_output=True, text=True)
            if done.returncode not in (0, 1):
                raise SystemExit(
                    f"{m.name}: pytest exited {done.returncode}:\n"
                    f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
            if done.returncode == 1:
                return True, failures(done.stdout)
    return False, []


def killed_by(name: str) -> int:
    """List every tier-1 test that fails on the mutant `name`; 1 if it
    survives outside KNOWN_SURVIVORS, 2 if there is no such mutant."""
    m = next((m for m in MUTANTS if m.name == name), None)
    if m is None:
        print(f"no mutant named {name!r}", file=sys.stderr)
        return 2
    killed, tests = run_mutant(m, first_only=False)
    for test in tests:
        print(test)
    print(f"{name}: killed by {len(tests)} tests" if killed else
          f"{name}: SURVIVED")
    return 0 if killed or name in KNOWN_SURVIVORS else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--all", metavar="NAME",
                        help="list every test that kills one mutant")
    args = parser.parse_args()
    bad, unnamed = unmatched(), missing_killers()
    for name, n in bad:
        print(f"{name}: old text occurs {n} times, want 1", file=sys.stderr)
    for name in unnamed:
        print(f"{name}: its killer names no test", file=sys.stderr)
    if bad or unnamed:
        return 2
    if args.all:
        return killed_by(args.all)
    t0 = time.perf_counter()
    unexpected = []
    for m in MUTANTS:
        killed, tests = run_mutant(m)
        if killed:
            print(f"KILLED    {m.name}: "
                  f"{tests[0] if tests else '(none named)'}")
        elif m.name in KNOWN_SURVIVORS:
            print(f"SURVIVED  {m.name} (known: {KNOWN_SURVIVORS[m.name]})")
        else:
            print(f"SURVIVED  {m.name}: {m.why}")
            unexpected.append(m.name)
    print(f"{len(MUTANTS)} mutants, {len(unexpected)} unexpected survivors, "
          f"wall time {time.perf_counter() - t0:.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
