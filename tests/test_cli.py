import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from carlitz import FieldParams, PerfSeries, bracket, brackets
from carlitz.cauchy import InitialData, format_problem, hypergeometric_equation
from carlitz.cli import build_parser, main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_command(capsys):
    code, out, _ = run(capsys, ["--q", "2", "bracket", "--n", "1"])
    assert code == 0
    assert out.strip() == "x + x^2"


def test_bracket_infinity(capsys):
    code, out, _ = run(capsys, ["--q", "3", "bracket", "--n", "inf"])
    assert code == 0
    assert out.strip() == "2*x"


def test_factorial_command(capsys):
    code, out, _ = run(capsys, ["--q", "2", "factorial", "--kind", "D", "--n", "2"])
    assert code == 0
    assert out.strip() == "x^3 + x^5 + x^6 + x^8"


def test_pochhammer_modes_agree(capsys):
    code1, out1, _ = run(capsys, ["--q", "3", "pochhammer", "--a", "x + 2*x^2",
                                  "--n", "4", "--mode", "direct"])
    code2, out2, _ = run(capsys, ["--q", "3", "pochhammer", "--a", "x + 2*x^2",
                                  "--n", "4", "--mode", "recurrent"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_pochhammer_mode_is_validated_by_the_parser(capsys):
    # the library takes no mode; the flag keeps its two choices
    with pytest.raises(SystemExit) as exc:
        main(["--q", "3", "pochhammer", "--a", "x", "--n", "2", "--mode", "iterated"])
    assert exc.value.code == 2
    assert "invalid choice: 'iterated'" in capsys.readouterr().err


def test_pochhammer_json_reports_the_default_mode(capsys):
    code, out, _ = run(capsys, ["--q", "3", "--json", "pochhammer", "--a",
                                "x + 2*x^2", "--n", "4"])
    assert code == 0
    assert json.loads(out)["mode"] == "direct"


def test_op_normalize_json(capsys):
    code, out, _ = run(capsys, ["--q", "2", "--json", "op-normalize",
                                "d*tau - tau*d"])
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == {"(0, 0, 0)": "x^(1/2) + x"}


def test_identity_check_pass_line(capsys):
    code, out, _ = run(capsys, ["--q", "2", "identity-check", "--id", "5.7",
                                "--seed", "7", "--trials", "5"])
    assert code == 0
    assert out.strip() == "PASS 5/5"


def test_identity_check_deterministic(capsys):
    argv = ["--q", "3", "--json", "identity-check", "--id", "5.4",
            "--seed", "11", "--trials", "6"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_identity_check_commutation_relations(capsys):
    code, out, _ = run(capsys, ["--q", "3", "--json", "identity-check",
                                "--id", "2.2", "--seed", "5", "--trials", "4"])
    assert code == 0
    assert json.loads(out) == {"command": "identity-check", "id": "2.2",
                               "seed": 5, "trials": 4, "passed": 4,
                               "failed_trials": []}


def test_identity_check_reads_the_ring_relation_table(capsys, monkeypatch):
    # identity 2.2 checks the table the rewriting engine uses: a wrong
    # sign in one entry fails every trial
    from carlitz import opring
    table = opring._relation_table

    def wrong_sign(params):
        out = table(params)
        s, g = out[opring.FACTOR_D, opring.FACTOR_TAU]
        out[opring.FACTOR_D, opring.FACTOR_TAU] = (-s, g)
        return out

    monkeypatch.setattr(opring, "_relation_table", wrong_sign)
    code, out, _ = run(capsys, ["--q", "3", "identity-check", "--id", "2.2",
                                "--seed", "5", "--trials", "4"])
    assert code == 1
    assert out.strip() == "FAIL 0/4"


def test_cauchy_solve_roundtrip(tmp_path, capsys):
    params = FieldParams.default(2)
    eq = hypergeometric_equation(params, [PerfSeries.x(params)],
                                 [PerfSeries.one(params)], 1)
    problem = tmp_path / "problem.txt"
    problem.write_text(format_problem(eq, InitialData.delta(params, 1), 3, 3))
    out_file = tmp_path / "solution.txt"
    code, out, _ = run(capsys, ["cauchy-solve", str(problem),
                                "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("PERFFUNC")
    code, out, _ = run(capsys, ["parse-roundtrip", "--kind", "function",
                                "--file", str(out_file)])
    assert code == 0


def test_cauchy_solve_refuses_inadmissible(tmp_path, capsys):
    params = FieldParams.default(2)
    from carlitz.cauchy import DeltaPoly, EvolutionEquation
    t = DeltaPoly.variable(params, 1, 1)
    eq = EvolutionEquation(params, 1, t,
                           t - DeltaPoly.constant(params, 1, bracket(params, 2)))
    problem = tmp_path / "bad.txt"
    problem.write_text(format_problem(eq, InitialData.delta(params, 1), 3, 3))
    code, out, err = run(capsys, ["--json", "cauchy-solve", str(problem)])
    assert code == 1
    payload = json.loads(out)
    assert payload["reason"] == "inadmissible"
    assert "2" in payload["message"]


def test_cauchy_solve_exact_zero_beyond_imax_is_inadmissible(tmp_path, capsys):
    params = FieldParams.default(2)
    eq = hypergeometric_equation(params, [PerfSeries.x(params)],
                                 [bracket(params, 2)])
    problem = tmp_path / "zero.txt"
    problem.write_text(format_problem(eq, InitialData.delta(params, 1), 3, 3))
    for imax in ([], ["--imax", "0"]):
        code, out, err = run(capsys, ["--json", "cauchy-solve", str(problem)] + imax)
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "ok": False, "reason": "inadmissible",
            "message": "refusing to solve: Q vanishes at indices (2)"}


def test_unreadable_file_is_a_usage_refusal_in_both_modes(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    why = "[Errno 2] No such file or directory: %r" % missing
    code, out, err = run(capsys, ["--json", "cauchy-solve", missing])
    assert (code, err) == (2, "")
    assert json.loads(out) == {"ok": False, "reason": "usage", "message": why}
    code, out, err = run(capsys, ["cauchy-solve", missing])
    assert (code, out, err) == (2, "", "error: %s\n" % why)


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, ["--q", "2", "pochhammer", "--n", "3"])
    assert code == 2


def test_syntax_error_exit_code(capsys):
    code, out, err = run(capsys, ["--q", "2", "bracket", "--n", "1"])
    assert code == 0
    code, out, err = run(capsys, ["--q", "2", "pochhammer", "--a", "x^(1/3)",
                                  "--n", "1"])
    assert code == 2


def test_parameter_mismatch_exit_code(capsys, monkeypatch):
    # mismatched field configurations are usage errors: exit 2.  Every verb
    # reads its series over the one field its input names, so the mismatch
    # is forced by combining series over two fields inside a verb.
    from carlitz import brackets

    def mismatched(params, n):
        other = FieldParams.default(3)
        return PerfSeries.one(params) + PerfSeries.one(other)

    monkeypatch.setattr(brackets, "bracket", mismatched)
    code, out, _ = run(capsys, ["--q", "2", "--json", "bracket", "--n", "1"])
    assert code == 2
    assert json.loads(out)["reason"] == "parameter-mismatch"


def test_hyper_eval_and_residual(capsys):
    code, out, _ = run(capsys, ["--q", "2", "hyper-eval", "--a", "x", "--b", "1",
                                "--z", "x^2", "--M", "4"])
    assert code == 0
    code, out, _ = run(capsys, ["--q", "2", "hyper-residual", "--form", "gauss",
                                "--a", "x", "--a", "x^2", "--b", "1", "--M", "5"])
    assert code == 0
    code, out, _ = run(capsys, ["--q", "3", "hyper-residual", "--form", "thakur",
                                "--alpha", "2", "--beta", "1", "--M", "5"])
    assert code == 0


def test_dim_count_fit(capsys):
    code, out, _ = run(capsys, ["dim-count", "--kind", "gamma", "--n", "1",
                                "--nu-max", "12", "--fit"])
    assert code == 0
    assert "degree 3" in out
    code, out, _ = run(capsys, ["--json", "dim-count", "--kind", "qh", "--n", "2",
                                "--nu-max", "12", "--fit"])
    payload = json.loads(out)
    assert payload["degree"] == 3


def test_parse_roundtrip_series(capsys):
    code, out, _ = run(capsys, ["--q", "2", "parse-roundtrip", "--kind", "series",
                                "x^2 + x + O(x^8)"])
    assert code == 0
    assert "round-trip ok" in out


def test_parse_roundtrip_precision_off_the_grid(capsys):
    code, out, err = run(capsys, ["--q", "2", "parse-roundtrip", "--kind", "series",
                                  "1 + O(x^(1/3))"])
    assert (code, out, err) == (0, "1 + O(x^(1/3))\nround-trip ok\n", "")


def test_field_config_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("p 3\nv 1\nm 1\nmodulus 0,1\n")
    monkeypatch.setenv("CARLITZ_FIELD_CONFIG", str(cfg))
    code, out, _ = run(capsys, ["bracket", "--n", "inf"])
    assert code == 0
    assert out.strip() == "2*x"


def test_parse_roundtrip_unreduced_exponent(capsys):
    code, out, err = run(capsys, ["--q", "3", "parse-roundtrip", "--kind", "series",
                                  "x^(2/6)"])
    assert (code, out, err) == (0, "x^(1/3)\nround-trip ok\n", "")


def test_field_config_file_separated_by_tabs(tmp_path, capsys):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("p\t3\nv \t1\nm\t1\nmodulus\t0,1\n")
    code, out, err = run(capsys, ["--field-config", str(cfg), "bracket", "--n", "inf"])
    assert (code, out, err) == (0, "2*x\n", "")


def test_field_config_line_without_a_value_is_refused(tmp_path, capsys):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("p 3\nv 1\nm 1\nmodulus\n")
    code, out, err = run(capsys, ["--field-config", str(cfg), "bracket", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == "refused [syntax]: malformed header line 'modulus'\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "carlitz.cli", "--q", "2", "bracket", "--n", "-1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^(1/2) + x"


def test_op_apply_command(tmp_path, capsys):
    from carlitz.funcspace import MultiFunction
    params = FieldParams.default(2)
    f = MultiFunction(params, 1, 3, 3, {(0, 1): PerfSeries.one(params)})
    path = tmp_path / "f.txt"
    path.write_text(f.to_text())
    code, out, _ = run(capsys, ["op-apply", "delta1", "--function", str(path)])
    assert code == 0
    assert "coeff 0 1 : x + x^2" in out


def test_hyper_params_file(tmp_path, capsys):
    text = "\n".join(["PERFHYPER 1", "p 2", "v 1", "m 1", "modulus 0,1",
                      "alpha : 2", "beta : 1", "END"]) + "\n"
    path = tmp_path / "hp.txt"
    path.write_text(text)
    code, out, _ = run(capsys, ["hyper-residual", "--form", "thakur",
                                "--params", str(path), "--M", "4"])
    assert code == 0
    text = "\n".join(["PERFHYPER 1", "p 3", "v 1", "m 1", "modulus 0,1",
                      "a : x", "b : 1", "END"]) + "\n"
    path.write_text(text)
    code, out, _ = run(capsys, ["hyper-eval", "--params", str(path),
                                "--z", "x^2", "--M", "3"])
    assert code == 0


def _assert_syntax_refusal(capsys, argv, what):
    # a malformed integer is a syntax error (exit 2), never a traceback
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "refused [syntax]" in err and what in err
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False and payload["reason"] == "syntax"
    assert what in payload["message"]


def test_bracket_index_not_an_integer(capsys):
    _assert_syntax_refusal(capsys, ["--q", "2", "bracket", "--n", "foo"],
                           "'foo'")


def test_modulus_coefficient_not_an_integer(capsys):
    _assert_syntax_refusal(
        capsys, ["--p", "2", "--v", "1", "--modulus", "1,a", "bracket", "--n", "1"],
        "'a'")


def test_function_file_without_n(tmp_path, capsys):
    from carlitz.funcspace import MultiFunction
    params = FieldParams.default(2)
    text = MultiFunction(params, 1, 3, 3, {(0, 1): PerfSeries.one(params)}).to_text()
    path = tmp_path / "f.txt"
    path.write_text("".join(ln for ln in text.splitlines(True)
                            if not ln.startswith("n ")))
    _assert_syntax_refusal(capsys, ["op-apply", "tau", "--function", str(path)],
                           "missing function key 'n'")


def test_problem_file_with_non_integer_n(tmp_path, capsys):
    params = FieldParams.default(2)
    eq = hypergeometric_equation(params, [PerfSeries.monomial(params, 1)],
                                 [PerfSeries.one(params)])
    text = format_problem(eq, InitialData.delta(params, 1), 2, 2)
    assert "\nn 1\n" in text
    path = tmp_path / "problem.txt"
    path.write_text(text.replace("\nn 1\n", "\nn x\n"))
    _assert_syntax_refusal(capsys, ["cauchy-solve", str(path)],
                           "problem key 'n' is not an integer: 'x'")


def test_hyper_file_with_non_integer_parameter(tmp_path, capsys):
    text = "\n".join(["PERFHYPER 1", "p 2", "v 1", "m 1", "modulus 0,1",
                      "alpha : 2", "beta : one", "END"]) + "\n"
    path = tmp_path / "hp.txt"
    path.write_text(text)
    _assert_syntax_refusal(capsys, ["hyper-eval", "--params", str(path),
                                    "--z", "x^4"], "'one'")


def test_field_config_with_non_integer_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("p 3\nv one\nm 1\n")
    monkeypatch.setenv("CARLITZ_FIELD_CONFIG", str(cfg))
    _assert_syntax_refusal(capsys, ["bracket", "--n", "1"],
                           "field-config key 'v' is not an integer")


def test_problem_line_without_index_list(tmp_path, capsys):
    params = FieldParams.default(2)
    eq = hypergeometric_equation(params, [PerfSeries.monomial(params, 1)],
                                 [PerfSeries.one(params)])
    text = format_problem(eq, InitialData.delta(params, 1), 2, 2)
    path = tmp_path / "problem.txt"
    path.write_text(text.replace("\nEND", "\nP : x\nEND"))
    _assert_syntax_refusal(capsys, ["cauchy-solve", str(path)],
                           "payload line 'P' needs 2 fields")


def test_function_line_without_index_list(tmp_path, capsys):
    from carlitz.funcspace import MultiFunction
    params = FieldParams.default(2)
    text = MultiFunction(params, 1, 3, 3, {(0, 1): PerfSeries.one(params)}).to_text()
    path = tmp_path / "f.txt"
    path.write_text(text.replace("\nEND", "\ncoeff 0 : 1\nEND"))
    _assert_syntax_refusal(
        capsys, ["parse-roundtrip", "--kind", "function", "--file", str(path)],
        "payload line 'coeff 0' needs 3 fields")


def _assert_usage_refusal(capsys, argv, what):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "refused [usage]" in err and what in err
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False and payload["reason"] == "usage"
    assert what in payload["message"]


def test_negative_truncation_order_is_a_usage_error(capsys):
    for argv in (["hyper-eval", "--a", "x", "--b", "1", "--z", "x^20", "--M", "-3"],
                 ["hyper-residual", "--a", "x", "--b", "1", "--M", "-1"],
                 ["hyper-residual", "--form", "thakur", "--alpha", "2",
                  "--beta", "1", "--M", "-1"],
                 ["identity-check", "--id", "5.7", "--M", "-2"],
                 ["identity-check", "--id", "5.8", "--M", "-1"]):
        _assert_usage_refusal(capsys, ["--q", "2"] + argv, "need M >= 0")


def test_symbol_identity_trials_need_a_positive_truncation(capsys):
    # the trials draw m from 1..M
    _assert_usage_refusal(capsys, ["--q", "2", "identity-check", "--id", "5.3",
                                   "--M", "0"], "need M >= 1")


def test_identity_58_at_truncation_zero(capsys):
    code, out, _ = run(capsys, ["--q", "3", "identity-check", "--id", "5.8",
                                "--M", "0", "--trials", "5"])
    assert code == 0
    assert out.strip() == "PASS 5/5"


def test_thakur_symbol_of_a_large_negative_alpha(capsys):
    # (-1200)_3 = -1 / L_1197^(q^3): the quotient divides by the 1197
    # factors of L, which is never built
    value = "x^(-9576) + x^(-9568) + x^(-9560) + O(x^(-9544))"
    argv = ["--q", "2", "pochhammer", "--alpha", "-1200", "--n", "3"]
    code, out, _ = run(capsys, argv)
    assert (code, out.strip()) == (0, value)
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    assert json.loads(out) == {"alpha": -1200, "command": "pochhammer", "n": 3,
                               "value": value}
    argv = ["--q", "2", "hyper-residual", "--form", "thakur", "--alpha", "-1200",
            "--beta", "3", "--M", "3"]
    code, out, _ = run(capsys, argv)
    assert (code, out.strip()) == (0, "residual = 0 (known k <= 2)")
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    assert json.loads(out) == {"command": "hyper-residual", "form": "thakur",
                               "known": 2, "zero": True}


TOO_MANY_TERMS = [
    (["factorial", "--kind", "D", "--n", "5000"], 5000),
    (["factorial", "--kind", "L", "--n", "100000"], 100000),
    (["pochhammer", "--alpha", "3000", "--n", "3"], 3002),
    (["factorial", "--kind", "D", "--n", "21"], 21),
]


@pytest.mark.parametrize("argv, count", TOO_MANY_TERMS,
                         ids=[" ".join(argv) for argv, _ in TOO_MANY_TERMS])
def test_products_of_more_than_2_to_the_20_terms_are_refused(argv, count, capsys):
    # a product of n two-term factors has 2^n terms, so the count alone
    # refuses it, long before a recursion or a build could start
    start = time.perf_counter()
    _assert_usage_refusal(capsys, ["--q", "2"] + argv,
                          "at most 1048576 terms, got 2^%d" % count)
    assert time.perf_counter() - start < 1


def test_a_refused_product_builds_no_factor(capsys, monkeypatch):
    built = []
    two_term = brackets._two_term

    def counted(params, i, j):
        built.append((i, j))
        return two_term(params, i, j)
    monkeypatch.setattr(brackets, "_two_term", counted)
    for argv, _ in TOO_MANY_TERMS:
        assert run(capsys, ["--q", "2"] + argv)[0] == 2
    assert built == []
    assert run(capsys, ["--q", "2", "factorial", "--kind", "D", "--n", "3"])[0] == 0
    assert len(built) == 3


def test_the_largest_factorial_prints_its_2_to_the_20_terms(capsys):
    code, out, _ = run(capsys, ["--q", "2", "factorial", "--kind", "D", "--n", "20"])
    assert code == 0
    assert out.count("x^") == 2 ** 20


DIM = ["dim-count", "--kind", "gamma", "--n", "1", "--nu-max", "6"]
BENCH_DATA = pathlib.Path(__file__).parents[1] / "perfbench" / "data"
HYPER_FILE, PROBLEM_N1 = str(BENCH_DATA / "hyper.txt"), str(BENCH_DATA / "problem_n1.txt")
MIXED = "either in --params or as --a/--b/--alpha/--beta, not both"


@pytest.mark.parametrize("argv, what", [
    (DIM + ["--step", "0"], "need --step >= 1"),
    (DIM + ["--step", "-1"], "need --step >= 1"),
    (["dim-count", "--kind", "qh", "--n", "1", "--nu-max", "-1"],
     "need n >= 1 and nu >= 0"),
    (["dim-count", "--kind", "fhat", "--n", "-1", "--nu-max", "6"],
     "need n >= 1 and nu >= 0"),
    (["parse-roundtrip", "--kind", "series"], "pass the text to parse or --file"),
    (["identity-check", "--id", "5.7", "--trials", "-1"], "need --trials >= 1"),
    (["identity-check", "--id", "5.7", "--trials", "0"], "need --trials >= 1"),
    (["hyper-eval", "--params", HYPER_FILE, "--a", "x", "--z", "x^3"], MIXED),
    (["hyper-eval", "--params", HYPER_FILE, "--beta", "1", "--z", "x^3"], MIXED),
    (["hyper-eval", "--alpha", "1", "--b", "1", "--z", "x^3"],
     "pass either --a/--b or --alpha/--beta, not both"),
    (["hyper-residual", "--form", "thakur", "--alpha", "2", "--beta", "1",
      "--a", "x"], "pass either --a/--b or --alpha/--beta, not both"),
    (["pochhammer", "--a", "x", "--alpha", "2", "--n", "2"],
     "pass either --a SERIES or --alpha INT"),
    (["pochhammer", "--a", "x", "--alpha", "0", "--n", "2"],
     "pass either --a SERIES or --alpha INT"),
    (["pochhammer", "--alpha", "2", "--n", "2", "--mode", "recurrent"],
     "--mode applies to --a only"),
    (["op-normalize", "d*tau", "--vars", "-2"], "variable count must be >= 0"),
    (["parse-roundtrip", "--kind", "operator", "d", "--vars", "-1"],
     "variable count must be >= 0"),
    (["hyper-eval", "--a", "x", "--b", "1", "--z", "x^3", "--window", "0"],
     "window must be positive"),
    (["hyper-eval", "--a", "x", "--b", "1", "--z", "x^3", "--window", "-5"],
     "window must be positive"),
    (["cauchy-solve", PROBLEM_N1, "--window", "0"], "window must be positive"),
    (["hyper-residual", "--form", "thakur", "--alpha", "2", "--beta", "0"],
     "lower parameters must be positive integers, got 0"),
], ids=["step-0", "step-negative", "nu-max-negative", "fhat-n-negative",
        "roundtrip-no-input", "trials-negative", "trials-0",
        "params-and-a", "params-and-beta", "alpha-and-b", "thakur-and-a",
        "pochhammer-a-and-alpha", "pochhammer-a-and-alpha-0",
        "pochhammer-alpha-and-mode",
        "op-normalize-vars-negative", "roundtrip-vars-negative",
        "hyper-eval-window-0", "hyper-eval-window-negative",
        "cauchy-solve-window-0", "thakur-beta-0"])
def test_refusal_of_arguments_that_would_crash_or_pass_vacuously(argv, what, capsys):
    # dim-count and cauchy-solve refuse the field flags themselves
    flags = [] if argv[0] in ("dim-count", "cauchy-solve") else ["--q", "2"]
    _assert_usage_refusal(capsys, flags + argv, what)


@pytest.mark.parametrize("argv, code, err", [
    (["hyper-residual", "--form", "thakur", "--alpha", "2", "--beta", "0"], 2,
     "refused [usage]: lower parameters must be positive integers, got 0\n"),
    (["hyper-eval", "--alpha", "2", "--beta", "0", "--z", "x^3"], 1,
     "refused [inadmissible]: parameter equals [0]\n"),
], ids=["thakur-residual", "hyper-eval"])
def test_a_lower_integer_below_one_keeps_its_reason(argv, code, err, capsys):
    # the Thakur residual refuses beta < 1 before it builds the bracket
    # parameters; hyper-eval reads --beta 0 as the bracket [0]
    assert run(capsys, ["--q", "2"] + argv) == (code, "", err)


def test_field_flags_stay_allowed_with_a_params_file(capsys):
    code, out, _ = run(capsys, ["--q", "3", "hyper-eval", "--params", HYPER_FILE,
                                "--z", "x^3", "--M", "2"])
    code2, out2, _ = run(capsys, ["hyper-eval", "--params", HYPER_FILE,
                                  "--z", "x^3", "--M", "2"])
    assert code == code2 == 0 and out == out2


BRACKET = ["bracket", "--n", "1"]


@pytest.mark.parametrize("argv, what", [
    (["--q", "3", "--modulus", "1,1,1"], "--modulus needs --p"),
    (["--modulus", "0,1"], "--modulus needs --p"),
    (["--v", "2"], "--v needs --p"),
    (["--q", "3", "--v", "1"], "--v needs --p"),
    (["--q", "3", "--p", "2", "--v", "1"], "pass either --q or --p, not both"),
    (["--q", "2", "--field-config", "/nonexistent"],
     "pass either --field-config or --q/--p, not both"),
    (["--p", "3", "--v", "1", "--field-config", "/nonexistent"],
     "pass either --field-config or --q/--p, not both"),
], ids=["q-and-modulus", "modulus-alone", "v-alone", "q-and-v", "q-and-p",
        "q-and-field-config", "p-and-field-config"])
def test_field_flags_that_cannot_apply_together_are_refused(argv, what, capsys,
                                                            monkeypatch):
    # refused before any field is built or any config file is opened
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built")
    monkeypatch.setattr("carlitz.cli.FieldParams", no_field)
    monkeypatch.setattr("carlitz.textio.parse_config", no_field)
    monkeypatch.setattr("builtins.open", no_field)
    _assert_usage_refusal(capsys, argv + BRACKET, what)


DIM_COUNT = ["dim-count", "--kind", "gamma", "--n", "1", "--nu-max", "2"]


@pytest.mark.parametrize("flags, verb, what", [
    (["--q", "9"], ["cauchy-solve", PROBLEM_N1],
     "cauchy-solve reads its field from the problem file, so it takes no --q"),
    (["--q", "2", "--m", "1"], ["cauchy-solve", PROBLEM_N1],
     "so it takes no --q, --m"),
    (["--p", "2", "--v", "1", "--modulus", "0,1"], ["cauchy-solve", PROBLEM_N1],
     "so it takes no --p, --v, --modulus"),
    (["--field-config", "/nonexistent"], ["cauchy-solve", PROBLEM_N1],
     "so it takes no --field-config"),
    (["--q", "3", "--p", "2", "--v", "1"], DIM_COUNT,
     "dim-count counts over no field, so it takes no --q, --p, --v"),
    (["--m", "1"], DIM_COUNT, "so it takes no --m"),
], ids=["cauchy-q", "cauchy-q-m", "cauchy-p-v-modulus", "cauchy-field-config",
        "dim-count-q-p-v", "dim-count-m"])
def test_verbs_without_a_field_from_the_flags_refuse_them(flags, verb, what,
                                                          capsys):
    _assert_usage_refusal(capsys, flags + verb, what)


def test_verbs_without_a_field_from_the_flags_run_without_them(capsys):
    code, out, _ = run(capsys, ["cauchy-solve", PROBLEM_N1])
    assert code == 0 and out.startswith("PERFFUNC 1\np 2\n")
    assert run(capsys, DIM_COUNT) == (0, "nu=0 dim=1\nnu=1 dim=4\nnu=2 dim=10\n", "")


def test_the_field_config_variable_yields_to_the_field_flags(tmp_path, capsys,
                                                             monkeypatch):
    cfg = tmp_path / "field.cfg"
    cfg.write_text("p 3\nv 1\nm 1\nmodulus 0,1\n")
    monkeypatch.setenv("CARLITZ_FIELD_CONFIG", str(cfg))
    assert run(capsys, BRACKET) == (0, "2*x + x^3\n", "")
    assert run(capsys, ["--q", "2"] + BRACKET) == (0, "x + x^2\n", "")
    assert run(capsys, ["--p", "2", "--v", "1"] + BRACKET) == (
        0, "x + x^2\n", "")


def test_zero_variable_count_keeps_its_normal_form(capsys):
    code, out, _ = run(capsys, ["--q", "2", "op-normalize", "d*tau", "--vars", "0"])
    assert code == 0
    assert out.strip() == "(x^(1/2) + x) + (1)*tau*d"


HELP_CASES = json.loads(
    (pathlib.Path(__file__).with_name("data") / "cli_help.json").read_text())


@pytest.mark.parametrize("case", HELP_CASES, ids=lambda c: " ".join(c["argv"]))
def test_help_texts_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == (case["code"], case["stdout"],
                                                  case["stderr"])


def test_convention_choices_are_the_ring_conventions():
    from carlitz.opring import CONVENTIONS
    parser = build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    choices = next(a.choices for a in verbs["op-normalize"]._actions
                   if a.dest == "convention")
    assert choices == CONVENTIONS
