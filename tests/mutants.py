"""Mutation checks: each mutant of the table must fail the tests named for it.

A mutant replaces one anchor, a piece of text that occurs exactly once in
its file under ``src/carlitz``, with a faulty version of it.  The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies each mutant alone to the copy, runs the mutant's node
IDs there with ``pytest -x``, and puts the file back before the next one.
A mutant is killed when its tests fail and survives when they pass:

    python3 tests/mutants.py               # every mutant
    python3 tests/mutants.py --only NAME   # one mutant
    python3 tests/mutants.py --list        # the names, one a line

It prints one line per mutant and exits 0 when every mutant was killed,
1 when one survived or its run could not collect or timed out, and 2 when
an anchor does not occur exactly once.  ``tests/test_mutants.py`` checks
the anchors and node IDs of the table without running any mutant.
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: seconds one mutant's tests may run before the run counts as hung
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    path: str        # relative to the repository root
    anchor: str      # occurs exactly once in the file
    replacement: str
    node_ids: tuple  # relative to the repository root
    fault: str


STREAM_STEP = """\
        h = _quotient(h.frobenius(1), [top - a for a in upper],
                      [top] + [top - b for b in lower], window)
"""

MUTANTS = (
    Mutant("stream-divides-at-r-over-q", "src/carlitz/hyper.py", STREAM_STEP,
           """\
        b_m = bracket(params, m)
        h = _quotient(h, [b_m - a for a in hp.a_list],
                      [_two_term(params, m, -1)]
                      + [b_m - b for b in hp.b_list],
                      Fraction(32 if window is None else window)
                      / params.q).frobenius(1)
""",
           ("tests/test_factor_quotient.py::"
            "test_series_and_eval_match_the_direct_quotient",
            "tests/test_factor_quotient.py::"
            "test_truncated_lower_parameter_without_window",
            "tests/test_factor_quotient.py::"
            "test_the_twisted_step_keeps_the_precision_of_the_lower_factor"),
           "the stream divides at R/q and twists the quotient, for every "
           "parameter: a truncated lower parameter without a window is cut "
           "at the default invert window"),
    Mutant("stream-divides-by-bracket-m", "src/carlitz/hyper.py",
           "[top] + [top - b for b in lower]",
           "[bracket(params, m)] + [top - b for b in lower]",
           ("tests/test_hyper_stream.py::test_stream_matches_direct_quotient",),
           "the step divides by [m] in place of [m+1] = ([m]-[-1])^q"),
    Mutant("stream-keeps-h-untwisted", "src/carlitz/hyper.py",
           "h = _quotient(h.frobenius(1),", "h = _quotient(h,",
           ("tests/test_hyper_stream.py::test_stream_matches_direct_quotient",),
           "the step divides h_m in place of h_m^q"),
    Mutant("quotient-overstates-prec", "src/carlitz/series.py",
           "return PerfSeries._canonical(params, d, terms, out_prec)",
           "return PerfSeries._canonical(params, d, terms, out_prec + 1)",
           ("tests/test_precision_sound.py::"
            "test_integer_family_against_its_wide_values",),
           "_quotient states a precision one unit above the terms it computed"),
    Mutant("quotient-overstates-inverse-prec", "src/carlitz/series.py",
           "out_prec = INF if rel_out is INF else rel_out + Fraction(val, scale)",
           "out_prec = INF if rel_out is INF else rel_out + Fraction(val, scale) + 1",
           ("tests/test_precision_sound.py::test_divide_and_invert",),
           "the inverse keeps one unit more than the relative precision of a "
           "truncated divisor"),
    Mutant("two-term-swaps-coefficients", "src/carlitz/brackets.py",
           """\
    return PerfSeries(params, dexp, {q ** (i + dexp): params.one_idx,
                                     q ** (j + dexp): params.minus_one_idx},
""",
           """\
    return PerfSeries(params, dexp, {q ** (i + dexp): params.minus_one_idx,
                                     q ** (j + dexp): params.one_idx},
""",
           ("tests/test_two_term.py::test_brackets_match_the_oracle",),
           "_two_term builds x^(q^j) - x^(q^i)"),
    Mutant("slot-product-overstates-prec", "src/carlitz/hyper.py",
           """\
            c = c * (at - r)
        out[k] = c
""",
           """\
            c = c * (at - r)
        if not c.is_exact():
            c = PerfSeries(c.params, c.dexp, c.terms,
                           c.prec + Fraction(1, c.params.q))
        out[k] = c
""",
           ("tests/test_precision_sound.py::"
            "test_hyper_residual_with_a_truncated_parameter",),
           "each residual slot states a precision 1/q above its true one"),
    Mutant("check-expansion-lets-21-through", "src/carlitz/brackets.py",
           "if count >= _TERM_LIMIT.bit_length():",
           "if count > _TERM_LIMIT.bit_length():",
           ("tests/test_two_term.py::"
            "test_products_above_the_term_limit_are_refused",),
           "a product of 21 factors, 2^21 terms, is expanded"),
    Mutant("cancel-keeps-divisor-lead", "src/carlitz/series.py",
           """\
        lead_log += sign * ll
        if len(ks) == 1 or val + ks[1] - k0 >= bound:
            continue  # no step lands below the bound: only the lead acts
""",
           """\
        if len(ks) == 1 or val + ks[1] - k0 >= bound:
            lead_log += sign * ll
            continue  # no step lands below the bound: only the lead acts
""",
           ("tests/test_quotient_fold.py::"
            "test_shared_factors_cancel_as_the_oracle_divides",),
           "a factor's lead acts only when its part is passed over: the "
           "leads of the parts that cancel, multiply or divide are lost"),
    Mutant("cancel-ignores-side", "src/carlitz/series.py",
           "counts[steps] = counts.get(steps, 0) + sign",
           "counts[steps] = counts.get(steps, 0) + 1",
           ("tests/test_quotient_fold.py::"
            "test_shared_factors_cancel_as_the_oracle_divides",),
           "an exact divisor counts +1 as a numerator does: it multiplies, "
           "and cancels nothing"),
    Mutant("cancel-keys-on-the-lead", "src/carlitz/series.py",
           """\
        if p is INF:
            counts[steps] = counts.get(steps, 0) + sign
        else:
            divisors.append(steps)
    for steps, times in counts.items():
""",
           """\
        if p is INF:
            counts[ll, steps] = counts.get((ll, steps), 0) + sign
        else:
            divisors.append(steps)
    for (_, steps), times in counts.items():
""",
           ("tests/test_quotient_fold.py::"
            "test_multiples_of_one_factor_cancel_as_the_oracle_divides",),
           "exact parts cancel only when their factors have the same lead: "
           "factors equal up to a scalar are multiplied and divided"),
    Mutant("fold-one-unit-early", "src/carlitz/series.py",
           "val + ks[1] - k0 >= bound:", "val + ks[1] - k0 >= bound - 1:",
           ("tests/test_quotient_fold.py::"
            "test_divisors_that_reach_the_bound_fold_as_the_oracle_divides",),
           "a part whose least step lands one unit below the bound is not "
           "passed over"),
    Mutant("numerator-folds-one-unit-early", "src/carlitz/series.py",
           "val + ks[1] - k0 >= bound:",
           "val + ks[1] - k0 >= bound - (sign > 0):",
           ("tests/test_quotient_fold.py::"
            "test_numerators_that_reach_the_bound_fold_as_the_oracle_multiplies",),
           "a numerator whose least step lands one unit below the bound is "
           "not multiplied"),
    Mutant("chain-walk-never-restarts", "src/carlitz/series.py",
           "if k in out or k in cancelled:", "if k in out or cancelled:",
           ("tests/test_quotient_fold.py::"
            "test_one_step_chains_restart_as_the_heap_loop_divides",),
           "once a seed cancels a chain, no later seed starts a new one"),
    Mutant("chain-step-drops-multiplier", "src/carlitz/series.py",
           "                c = exp[log[c] + lu]",
           "                c = exp[log[c]]",
           ("tests/test_quotient_fold.py::"
            "test_one_step_chains_restart_as_the_heap_loop_divides",),
           "a one-step chain carries w_(k-j) up without the factor -eps_j"),
    Mutant("relations-not-negated", "src/carlitz/opring.py",
           "        table[y, x] = (-s, g)", "        table[y, x] = (s, g)",
           ("tests/test_relation_table.py::"
            "test_rewriting_matches_per_convention_oracle",),
           "a reversed pair of the relation table keeps the sign of its "
           "scalar"),
    Mutant("d-twist-plus-one", "src/carlitz/opring.py",
           "_TWIST = {FACTOR_TAU: 1, FACTOR_D: -1, FACTOR_DELTA: 0}",
           "_TWIST = {FACTOR_TAU: 1, FACTOR_D: 0, FACTOR_DELTA: 0}",
           ("tests/test_relation_table.py::"
            "test_rewriting_matches_per_convention_oracle",),
           "a scalar moved past d is not twisted by the inverse Frobenius"),
    Mutant("rescale-twists-one-more", "src/carlitz/funcspace.py",
           "{k: c * s.frobenius(k) for k, c in self.coeffs.items()}",
           "{k: c * s.frobenius(k + 1) for k, c in self.coeffs.items()}",
           ("tests/test_one_path.py::"
            "test_rescale_matches_per_coefficient_products",
            "tests/test_one_path.py::test_check_57_matches_recomputing_loop",
            "tests/test_one_path.py::test_check_58_matches_recomputing_loop"),
           "rescale(s) multiplies a_k by s^(q^(k+1)) in place of s^(q^k)"),
    Mutant("scan-limit-one-up", "src/carlitz/cauchy.py",
           "if tuples > _SCAN_LIMIT:", "if tuples > _SCAN_LIMIT + 1:",
           ("tests/test_admissibility_certificate.py::"
            "test_a_scan_past_its_limit_is_refused_before_any_evaluation",),
           "a scan of 2^16 + 1 tuples runs"),
    Mutant("term-limit-at-or-above", "src/carlitz/series.py",
           "if len(terms) > _TERM_LIMIT:", "if len(terms) >= _TERM_LIMIT:",
           ("tests/test_cli.py::"
            "test_the_largest_factorial_prints_its_2_to_the_20_terms",),
           "a product of exactly 2^20 terms, such as D_20, is refused"),
    Mutant("canonical-sheds-one-q-power", "src/carlitz/series.py",
           "while dexp and g % q == 0:", "if dexp and g % q == 0:",
           ("tests/test_series_canonical.py::test_canonical_grid_matches_the_scan",),
           "_canonical lowers dexp by at most one q-power"),
)


def check_anchor(mutant, root=ROOT):
    """The text of the mutant's file; SystemExit(2) unless the anchor
    occurs exactly once in it."""
    text = (root / mutant.path).read_text()
    found = text.count(mutant.anchor)
    if found != 1:
        print("%s: anchor occurs %d times in %s" % (mutant.name, found, mutant.path))
        raise SystemExit(2)
    return text


def run_mutant(mutant, tree):
    """'killed', 'survived', 'error' or 'timeout' for one mutant applied
    to the copy in ``tree``; the file is restored afterwards."""
    path = tree / mutant.path
    text = check_anchor(mutant, tree)
    path.write_text(text.replace(mutant.anchor, mutant.replacement))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.node_ids],
            cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(text)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run one mutant")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        parser.error("no mutant named %r" % args.only)
    for mutant in chosen:
        check_anchor(mutant)
    failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="carlitz-mutants-") as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        for mutant in chosen:
            t0 = time.perf_counter()
            verdict = run_mutant(mutant, tree)
            failed += verdict != "killed"
            print("%-34s %-8s %5.1f s  %s" % (mutant.name, verdict,
                                               time.perf_counter() - t0,
                                               mutant.fault))
    print("%d of %d killed in %.1f s" % (len(chosen) - failed, len(chosen),
                                         time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
