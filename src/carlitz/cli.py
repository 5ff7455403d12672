"""Command-line front end.

Every command is deterministic given its arguments and field config.
Exit codes: 0 success, 1 mathematical refusal (inadmissible parameters,
indeterminate precision, inconsistency), 2 usage or syntax errors.
``--json`` switches to machine-readable output; refusals then carry a
reason code.

Field configuration comes from --q/--m (shipped moduli), from explicit
--p/--v/--m/--modulus, or from a config file given by --field-config or
the CARLITZ_FIELD_CONFIG environment variable.

Each run is a fresh interpreter that serves one verb, so this module
imports at its top only what every verb uses (errors, ffield, series,
brackets, textio).  A verb imports the modules it runs (cauchy, hyper,
opring, funcspace, sampling) when it runs, and the parser imports none of
them: ``bracket`` never loads the operator ring or the Cauchy solver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import brackets as br
from . import textio
from .errors import (CarlitzError, InadmissibleError, NotInvertibleError,
                     ParameterMismatchError, ParseError, PrecisionError,
                     UsageError)
from .ffield import FieldParams
from .series import PerfSeries

REFUSAL_ERRORS = (InadmissibleError, PrecisionError, NotInvertibleError)
USAGE_ERRORS = (ParameterMismatchError, ParseError, UsageError)


def _field_params(args) -> FieldParams:
    if args.p is not None:
        if args.v is None:
            raise UsageError("--p needs --v as well")
        modulus = None
        if args.modulus:
            modulus = tuple(textio._read_int(c, "--modulus coefficient")
                            for c in args.modulus.split(","))
        return FieldParams(args.p, args.v, args.m, modulus)
    config = args.field_config or os.environ.get("CARLITZ_FIELD_CONFIG")
    if args.q is None and config:
        with open(config) as fh:
            fields = {}
            for line in fh:
                line = line.strip()
                if line and " " in line:
                    k, v = line.split(None, 1)
                    fields[k] = v.strip()
        return textio.parse_field_header(fields)
    q = args.q if args.q is not None else 2
    return FieldParams.default(q, args.m)


def _emit(args, human: str, payload: dict):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _emit_function(args, command, key, f):
    """Write the function file to --out, or print it under ``key``."""
    text = f.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(args, "wrote %s" % args.out,
              {"command": command, "out": args.out, "slots": len(f.coeffs)})
    else:
        _emit(args, text, {"command": command, key: text})
    return 0


def _parse_index(text: str):
    if text in ("inf", "infinity"):
        return br.INFINITY
    return textio._read_int(text, "bracket index")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def cmd_bracket(args):
    params = _field_params(args)
    value = br.bracket(params, _parse_index(args.n))
    text = textio.format_series(value)
    _emit(args, text, {"command": "bracket", "n": args.n, "value": text})
    return 0


def cmd_factorial(args):
    params = _field_params(args)
    fn = br.carlitz_D if args.kind == "D" else br.carlitz_L
    value = fn(params, args.n)
    text = textio.format_series(value)
    _emit(args, text, {"command": "factorial", "kind": args.kind,
                       "n": args.n, "value": text})
    return 0


def cmd_pochhammer(args):
    params = _field_params(args)
    if args.alpha is not None:
        value = br.pochhammer_thakur(params, args.alpha, args.n)
        text = textio.format_series(value)
        _emit(args, text, {"command": "pochhammer", "alpha": args.alpha,
                           "n": args.n, "value": text})
        return 0
    if args.a is None:
        raise UsageError("pass either --a SERIES or --alpha INT")
    a = textio.parse_series(args.a, params)
    value = br.pochhammer(a, args.n, mode=args.mode)
    text = textio.format_series(value)
    _emit(args, text, {"command": "pochhammer", "a": args.a, "n": args.n,
                       "mode": args.mode, "value": text})
    return 0


def cmd_op_normalize(args):
    from . import opring
    params = _field_params(args)
    words = textio.parse_operator(args.expr, params, args.vars)
    nf = opring.normalize(words, params, args.convention, args.strategy)
    text = repr(nf)
    _emit(args, text, {
        "command": "op-normalize", "convention": args.convention,
        "terms": {str(k): textio.format_series(c) for k, c in sorted(nf.terms.items())},
        "value": text,
    })
    return 0


def cmd_op_apply(args):
    from . import opring
    from .funcspace import MultiFunction
    params = _field_params(args)
    with open(args.function) as fh:
        f = MultiFunction.from_text(fh.read())
    if f.params != params:
        params = f.params  # the function file pins the field
    words = textio.parse_operator(args.expr, params, f.n)
    nf = opring.normalize(words, params, "standard")
    return _emit_function(args, "op-apply", "function", nf.op_apply(f))


def cmd_cauchy_solve(args):
    from . import cauchy
    with open(args.problem) as fh:
        eq, init, trunc_m, trunc_i = cauchy.parse_problem(fh.read())
    u = cauchy.cauchy_solve(eq, init, trunc_m, trunc_i, i_max=args.imax,
                            window=args.window)
    return _emit_function(args, "cauchy-solve", "solution", u)


def _hyper_params_from_args(args, params):
    if args.params:
        with open(args.params) as fh:
            return _load_hyper_file(fh.read())
    if args.alpha or args.beta:
        return "integer", list(args.alpha or []), list(args.beta or []), params
    a_list = [textio.parse_series(s, params) for s in (args.a or [])]
    b_list = [textio.parse_series(s, params) for s in (args.b or [])]
    return "series", a_list, b_list, params


def _load_hyper_file(text):
    from .funcspace import _parse_keyed_lines
    fields, payload = _parse_keyed_lines(text, "PERFHYPER",
                                         ("a", "b", "alpha", "beta"))
    params = textio.parse_field_header(fields)
    a_list, b_list, alphas, betas = [], [], [], []
    for head, body in payload:
        kind = head.split(None, 1)[0]
        if kind == "a":
            a_list.append(textio.parse_series(body, params))
        elif kind == "b":
            b_list.append(textio.parse_series(body, params))
        elif kind == "alpha":
            alphas.append(textio._read_int(body, "alpha"))
        else:
            betas.append(textio._read_int(body, "beta"))
    if alphas or betas:
        if a_list or b_list:
            raise ParseError("mix of series and integer parameters")
        return "integer", alphas, betas, params
    return "series", a_list, b_list, params


def _series_hyper_params(kind, upper, lower, params):
    """HyperParams of the read parameters, integers taken at their brackets."""
    from . import hyper
    if kind == "integer":
        upper = hyper._bracket_params(params, upper)
        lower = hyper._bracket_params(params, lower)
    return hyper.HyperParams(params, upper, lower)


def cmd_hyper_eval(args):
    from . import hyper
    params = _field_params(args)
    hp = _series_hyper_params(*_hyper_params_from_args(args, params))
    z = textio.parse_series(args.z, hp.params)
    value = hyper.hyper_eval(hp, z, args.M, window=args.window)
    text = textio.format_series(value)
    _emit(args, text, {"command": "hyper-eval", "M": args.M, "value": text})
    return 0


def cmd_hyper_residual(args):
    from . import hyper
    params = _field_params(args)
    kind, upper, lower, params = _hyper_params_from_args(args, params)
    if args.form == "thakur":
        if kind != "integer":
            raise UsageError("--form thakur needs integer parameters "
                             "(--alpha/--beta)")
        res = hyper.thakur_residual(params, upper, lower, args.M,
                                    window=args.window)
    else:
        hp = _series_hyper_params(kind, upper, lower, params)
        res = hyper.hyper_residual(hp, args.M, form=args.form,
                                   window=args.window)
    zero = res.is_zero_on_known()
    text = "residual %s (known k <= %s)" % ("= 0" if zero else "!= 0", res.known)
    _emit(args, text, {"command": "hyper-residual", "form": args.form,
                       "zero": zero, "known": res.known})
    return 0 if zero else 1


def cmd_identity_check(args):
    if args.trials < 1:
        raise UsageError("need --trials >= 1")
    import random
    params = _field_params(args)
    rng = random.Random(args.seed)
    passed = 0
    fails = []
    for trial in range(args.trials):
        ok = _run_identity_trial(args.id, params, rng, args.M)
        if ok:
            passed += 1
        else:
            fails.append(trial)
    text = "%s %d/%d" % ("PASS" if passed == args.trials else "FAIL",
                         passed, args.trials)
    _emit(args, text, {"command": "identity-check", "id": args.id,
                       "seed": args.seed, "trials": args.trials,
                       "passed": passed, "failed_trials": fails})
    return 0 if passed == args.trials else 1


def _run_identity_trial(ident, params, rng, M):
    if ident == "2.2":
        return _commutation_trial(params, rng)
    from . import hyper, sampling
    if ident in ("5.3", "5.4", "5.5", "5.6"):
        if M < 1:
            raise UsageError("identity %s draws m from 1..M; need M >= 1" % ident)
        a = sampling.random_series(rng, params, terms=(1, 2), lo=-1, hi=3)
        m = rng.randint(1, M)
        if ident == "5.3" and a.is_zero():
            a = PerfSeries.one(params)
        if ident == "5.6":
            while (br.bracket(params, m - 1) - a).is_zero():
                a = sampling.random_series(rng, params, terms=(1, 2), lo=-1, hi=3)
        return hyper.contiguous_check(ident, params, a=a, m=m).ok
    if ident in ("5.7", "5.8"):
        a = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
        b = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
        c = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
        if ident == "5.8":
            while c.is_zero() or shiftdown_is_zero(a):
                a = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
                c = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
        return hyper.contiguous_check(ident, params, a=a, b=b, c=c, M=M).ok
    raise UsageError("unknown identity id %r" % (ident,))


def shiftdown_is_zero(a):
    return br.shift_down(a).is_zero()


def _commutation_trial(params, rng):
    from . import opring, sampling
    n = rng.randint(1, 2)
    f = sampling.random_multifunction(rng, params, n, 4, 4)
    j = rng.randint(1, n)
    gens = {opring.FACTOR_TAU: opring.TAU, opring.FACTOR_D: opring.D,
            opring.FACTOR_DELTA: opring.delta(j)}
    ok = True
    for (kx, ky), (s, g) in opring._relation_table(params).items():
        x, y = gens[kx], gens[ky]  # each entry: x y - y x = s g
        lhs = opring._act(f, (x, y)) - opring._act(f, (y, x))
        ok = lhs == opring._act(f, g).scale(s) and ok
    return ok


def cmd_dim_count(args):
    if args.n < 1 or args.nu_max < 0:  # the counts' own refusal
        raise UsageError("need n >= 1 and nu >= 0")
    if args.step is not None and args.step < 1:
        raise UsageError("need --step >= 1")
    from . import opring
    fns = {"gamma": opring.gamma_dim, "qh": opring.qh_lower_count,
           "fhat": opring.fhat_monomial_count}
    fn = fns[args.kind]
    step = args.step
    if step is None:
        step = 1 if args.kind == "gamma" else (2 if args.kind == "qh" else args.n + 1)
    samples = [(nu, fn(args.n, nu)) for nu in range(0, args.nu_max + 1, step)]
    lines = ["nu=%d dim=%d" % s for s in samples]
    payload = {"command": "dim-count", "kind": args.kind, "n": args.n,
               "samples": samples}
    if args.fit:
        degree = opring.gk_fit(samples)
        lines.append("degree %s" % degree)
        payload["degree"] = degree
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_parse_roundtrip(args):
    params = _field_params(args)
    text = args.input
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
    elif text is None:
        raise UsageError("pass the text to parse or --file")
    if args.kind == "series":
        value = textio.parse_series(text, params)
        printed = textio.format_series(value)
        stable = textio.parse_series(printed, params) == value
    elif args.kind == "operator":
        from . import opring
        words = textio.parse_operator(text, params, args.vars)
        printed = textio.format_operator_words(words)
        reparsed = textio.parse_operator(printed, params, args.vars)
        stable = (opring.normalize(words, params)
                  == opring.normalize(reparsed, params))
    else:
        from .funcspace import MultiFunction
        value = MultiFunction.from_text(text)
        printed = value.to_text()
        stable = MultiFunction.from_text(printed) == value
    _emit(args, "%s\nround-trip %s" % (printed, "ok" if stable else "BROKEN"),
          {"command": "parse-roundtrip", "kind": args.kind,
           "printed": printed, "stable": stable})
    return 0 if stable else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carlitz",
        description="Exact Carlitz calculus: series, operators, Cauchy "
                    "problems, hypergeometric identities.")
    parser.add_argument("--q", type=int, default=None,
                        help="Carlitz parameter (shipped configs: 2,3,4,5,8,9)")
    parser.add_argument("--m", type=int, default=1,
                        help="constant-field extension degree")
    parser.add_argument("--p", type=int, default=None, help="prime (advanced)")
    parser.add_argument("--v", type=int, default=None, help="q = p^v (advanced)")
    parser.add_argument("--modulus", default=None,
                        help="comma-separated modulus coefficients, ascending")
    parser.add_argument("--field-config", default=None,
                        help="field config file (or CARLITZ_FIELD_CONFIG)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("bracket", help="[n] = x^(q^n) - x")
    sp.add_argument("--n", required=True, help="integer index or 'inf'")
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("factorial", help="Carlitz factorials D_n and L_n")
    sp.add_argument("--kind", choices=("D", "L"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=cmd_factorial)

    sp = sub.add_parser("pochhammer", help="shifted-factorial symbols")
    sp.add_argument("--a", default=None, help="series parameter")
    sp.add_argument("--alpha", type=int, default=None, help="integer parameter")
    sp.add_argument("--n", type=int, required=True, help="symbol index")
    sp.add_argument("--mode", choices=("direct", "recurrent"), default="direct")
    sp.set_defaults(fn=cmd_pochhammer)

    sp = sub.add_parser("op-normalize", help="rewrite an operator expression")
    sp.add_argument("expr")
    sp.add_argument("--vars", type=int, default=1, help="number of deltas")
    sp.add_argument("--convention", choices=("standard", "alt"),
                    default="standard")
    sp.add_argument("--strategy", choices=("leftmost", "rightmost"),
                    default="leftmost")
    sp.set_defaults(fn=cmd_op_normalize)

    sp = sub.add_parser("op-apply", help="apply an operator to a function file")
    sp.add_argument("expr")
    sp.add_argument("--function", required=True, help="MultiFunction file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_op_apply)

    sp = sub.add_parser("cauchy-solve", help="solve a problem file")
    sp.add_argument("problem")
    sp.add_argument("--out", default=None)
    sp.add_argument("--imax", type=int, default=None,
                    help="admissibility index bound (default: truncI)")
    sp.add_argument("--window", type=int, default=None,
                    help="relative precision window for P/Q quotients")
    sp.set_defaults(fn=cmd_cauchy_solve)

    sp = sub.add_parser("hyper-eval", help="evaluate a hypergeometric series")
    sp.add_argument("--params", default=None, help="PERFHYPER parameter file")
    sp.add_argument("--a", action="append", help="upper parameter (repeatable)")
    sp.add_argument("--b", action="append", help="lower parameter (repeatable)")
    sp.add_argument("--alpha", action="append", type=int)
    sp.add_argument("--beta", action="append", type=int)
    sp.add_argument("--z", required=True)
    sp.add_argument("--M", type=int, default=5, help="truncation order")
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(fn=cmd_hyper_eval)

    sp = sub.add_parser("hyper-residual",
                        help="apply the defining operator to the truncation")
    sp.add_argument("--form", choices=("product", "gauss", "thakur"),
                    default="product")
    sp.add_argument("--params", default=None)
    sp.add_argument("--a", action="append")
    sp.add_argument("--b", action="append")
    sp.add_argument("--alpha", action="append", type=int)
    sp.add_argument("--beta", action="append", type=int)
    sp.add_argument("--M", type=int, default=5)
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(fn=cmd_hyper_residual)

    sp = sub.add_parser("identity-check", help="seeded random identity sweep")
    sp.add_argument("--id", required=True,
                    help="one of 5.3 5.4 5.5 5.6 5.7 5.8 2.2")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--M", type=int, default=5,
                    help="index/truncation bound per trial")
    sp.set_defaults(fn=cmd_identity_check)

    sp = sub.add_parser("dim-count", help="filtration dimension counts")
    sp.add_argument("--kind", choices=("gamma", "qh", "fhat"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--nu-max", dest="nu_max", type=int, required=True)
    sp.add_argument("--step", type=int, default=None,
                    help="sampling step (defaults to the count's period)")
    sp.add_argument("--fit", action="store_true",
                    help="report the finite-difference growth degree")
    sp.set_defaults(fn=cmd_dim_count)

    sp = sub.add_parser("parse-roundtrip", help="print-parse stability check")
    sp.add_argument("--kind", choices=("series", "operator", "function"),
                    required=True)
    sp.add_argument("input", nargs="?", default=None)
    sp.add_argument("--file", default=None)
    sp.add_argument("--vars", type=int, default=1)
    sp.set_defaults(fn=cmd_parse_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except REFUSAL_ERRORS as exc:
        _report_error(args, exc)
        return 1
    except USAGE_ERRORS as exc:
        _report_error(args, exc)
        return 2
    except CarlitzError as exc:
        _report_error(args, exc)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _report_error(args, exc):
    if getattr(args, "json", False):
        print(json.dumps({"ok": False, "reason": exc.reason_code,
                          "message": str(exc)}, sort_keys=True))
    else:
        print("refused [%s]: %s" % (exc.reason_code, exc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
