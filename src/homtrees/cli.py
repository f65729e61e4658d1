"""Command-line interface.

Exit codes: 0 success/verified, 1 a check failed (the report carries the
witness), 2 usage or parse error, 3 a bounded oracle was inconclusive at
its cap, or the input is nested deeper than the interpreter's recursion
limit allows.  With --machine every report is a single JSON object with
sorted keys, so identical inputs produce byte-identical output.

A call loads only the modules its command uses.  trees and freehom (with
ambient and linalg) are imported here; grouplike, homlie, suites and ueg
are registered lazily, so each body runs on its first attribute use.
The free-side commands (nf, coproduct, antipode, antipode-index, equal
without --algebra) therefore never run them.  Every result record is a
typing.NamedTuple, so no command loads inspect or what it imports.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction

from . import freehom
from .ambient import OracleInconclusive, ResourceLimit
from .trees import ParseError, Reader


def _lazy(name: str):
    """The submodule homtrees.<name>, its body run on first attribute use.

    The module object is entered in sys.modules and on the package at
    once, as an import would enter it, so code that looks it up there
    finds it before it has run.  A module already imported is returned
    as it is.
    """
    full = "%s.%s" % (__package__, name)
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


grouplike = _lazy("grouplike")
homlie = _lazy("homlie")
suites = _lazy("suites")
ueg = _lazy("ueg")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_ORDER = 4
DEFAULT_MAX_K = 8

# sorted(suites.SUITES), kept here so that parsing the options does not run suites
SUITE_NAMES = ("all", "freehom", "grouplike", "trees", "ueg")


def _emit(machine: bool, lines, payload) -> None:
    if machine:
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, ensure_ascii=False,
                       separators=(",", ":")) + "\n"
        )
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _class_key(cls) -> list:
    n, signature = cls
    return [n, list(signature)]


def _format_tensor(t) -> str:
    if not t:
        return "0"
    parts = []
    for (lk, rk), coeff in sorted(t.items()):
        head = "" if coeff == 1 else "%s*" % coeff
        parts.append("%s%s⊗%s" % (head, lk, rk))
    return " + ".join(parts)


def _tensor_terms(t) -> list:
    return [[lk, rk, str(coeff)] for (lk, rk), coeff in sorted(t.items())]


# ----------------------------------------------------------------- handlers


def _cmd_validate(args, machine: bool) -> int:
    g = homlie.load_algebra(args.algebra)
    outcome = homlie.validate(g)
    if outcome.ok:
        _emit(machine,
              ["Ok: %s is a multiplicative Hom-Lie algebra (dim %d)" % (g.name, g.dim)],
              {"command": "validate", "ok": True, "name": g.name, "dim": g.dim})
        return EXIT_OK
    _emit(machine,
          ["Violation: %s at basis pair %s, residual %s"
           % (outcome.law, outcome.witness, [str(c) for c in outcome.residual])],
          {"command": "validate", "ok": False, "law": outcome.law,
           "witness": list(outcome.witness),
           "residual": [str(c) for c in outcome.residual]})
    return EXIT_FAIL


def _cmd_nf(args, machine: bool) -> int:
    poly = freehom.parse_poly(args.expr)
    reduced = freehom.normal_form(poly)
    text = freehom.format_poly(reduced)
    _emit(machine, [text], {"command": "nf", "normal_form": text})
    return EXIT_OK


def _cmd_equal(args, machine: bool) -> int:
    if args.algebra is None:
        lhs = freehom.parse_poly(args.lhs)
        rhs = freehom.parse_poly(args.rhs)
        verdict = freehom.equal_mod_I(lhs, rhs)
        if verdict.equal:
            classes = sorted(verdict.certificates)
            _emit(machine,
                  ["Equal", "certified in %d graded class(es)" % len(classes)],
                  {"command": "equal", "verdict": "Equal",
                   "classes": [_class_key(c) for c in classes]})
            return EXIT_OK
        residual = freehom.format_poly(verdict.residual)
        _emit(machine,
              ["NotEqual",
               "witness class %s, residual %s" % (verdict.witness_class, residual)],
              {"command": "equal", "verdict": "NotEqual",
               "witness_class": _class_key(verdict.witness_class),
               "residual": residual})
        return EXIT_FAIL

    g = homlie.load_algebra(args.algebra)
    lhs = ueg.parse_u_poly(g, args.lhs)
    rhs = ueg.parse_u_poly(g, args.rhs)
    if args.level is not None:
        verdict = ueg.equal_mod_U(g, lhs, rhs, args.level)
    else:
        verdict = ueg.equal_mod_U_auto(g, lhs, rhs)
    if verdict.equal:
        _emit(machine,
              ["Equal", "certified at level %d" % verdict.level],
              {"command": "equal", "verdict": "Equal", "level": verdict.level})
        return EXIT_OK
    residual = freehom.format_poly(verdict.residual)
    _emit(machine,
          ["NotProvable",
           "no certificate at level %d; residual %s" % (verdict.level, residual),
           "a higher --level may still certify equality"],
          {"command": "equal", "verdict": "NotProvable", "level": verdict.level,
           "residual": residual})
    return EXIT_INCONCLUSIVE


def _cmd_coproduct(args, machine: bool) -> int:
    poly = freehom.parse_poly(args.expr)
    cop = freehom.coproduct(poly)
    _emit(machine, [_format_tensor(cop)],
          {"command": "coproduct", "terms": _tensor_terms(cop)})
    return EXIT_OK


def _cmd_antipode(args, machine: bool) -> int:
    poly = freehom.parse_poly(args.expr)
    text = freehom.format_poly(freehom.antipode(poly))
    _emit(machine, [text], {"command": "antipode", "antipode": text})
    return EXIT_OK


def _cmd_antipode_index(args, machine: bool) -> int:
    poly = freehom.parse_poly(args.expr)
    found = freehom.invertibility_index(poly, max_k=args.max_k)
    if found.found:
        _emit(machine,
              ["invertibility index %d" % found.index],
              {"command": "antipode-index", "found": True, "index": found.index})
        return EXIT_OK
    _emit(machine,
          ["no invertibility index up to k=%d" % found.searched_up_to,
           "a larger --max-k may still find one"],
          {"command": "antipode-index", "found": False,
           "searched_up_to": found.searched_up_to})
    return EXIT_INCONCLUSIVE


def _read_scalar(text: str) -> int | Fraction:
    """["+" | "-"] COEF and nothing else, the README's coefficient grammar."""
    r = Reader(text)
    sign = -1 if r.peek() == "-" else 1
    if r.peek() in ("+", "-"):
        r.pos += 1
    value = r.rational()
    if value is None:
        r.error("expected a rational number")
    r.end()
    return sign * value


def _cmd_exp(args, machine: bool) -> int:
    scalar = _read_scalar(args.scalar)
    if args.order < 0:
        raise ValueError("--order must be non-negative")
    algebra_data = None
    if args.algebra is not None:
        with open(args.algebra, "r", encoding="utf-8") as handle:
            algebra_data = json.load(handle)
        g = homlie.load_algebra(algebra_data)
        if args.element is None:
            raise ValueError("--element is required together with --algebra")
        x = homlie.parse_element(g, args.element)
        seq = grouplike.exp_sequence(scalar, args.order, ueg.UEAmbient(g, x))
    elif args.element is not None:
        raise ValueError("--element only makes sense with --algebra")
    else:
        seq = grouplike.exp_sequence(scalar, args.order)
    orders = [[freehom.format_poly(c) for c in seq.terms[p].coeffs]
              for p in range(args.order + 1)]
    lines = ["exp_%d: %s" % (p, " | ".join(row)) for p, row in enumerate(orders)]
    payload = {"command": "exp", "bound": 0, "orders": orders}
    if algebra_data is not None:
        payload["algebra"] = algebra_data
    _emit(machine, lines, payload)
    return EXIT_OK


def _cmd_grouplike_check(args, machine: bool) -> int:
    seq = grouplike.load_sequence(args.file)
    outcome = grouplike.validate_sequence(seq)
    if outcome.ok:
        _emit(machine,
              ["Ok: formal group-like sequence (cap %d, bound %d)"
               % (seq.cap, seq.bound)],
              {"command": "grouplike-check", "ok": True,
               "cap": seq.cap, "bound": seq.bound})
        return EXIT_OK
    detail = outcome.detail
    if hasattr(detail, "check"):  # GroupLikeResult from the order-p test
        detail = "%s defect at order %s" % (detail.check, detail.order)
    _emit(machine,
          ["Violation: clause %s at p=%d — %s"
           % (outcome.clause, outcome.index, detail)],
          {"command": "grouplike-check", "ok": False, "clause": outcome.clause,
           "p": outcome.index, "detail": str(detail)})
    return EXIT_FAIL


def _cmd_verify(args, machine: bool) -> int:
    reports = suites.run_suite(args.suite, escalation_cap=args.level)
    lines = []
    failed = False
    inconclusive = False
    for report in reports:
        mark = "pass" if report.ok else "FAIL"
        lines.append("[%s] criterion %d: %s" % (mark, report.number, report.title))
        for check in report.checks:
            cmark = "pass" if check.ok else ("inconclusive" if check.inconclusive else "FAIL")
            suffix = " — %s" % check.witness if check.witness else ""
            lines.append("    [%s] %s%s" % (cmark, check.name, suffix))
            if not check.ok:
                if check.inconclusive:
                    inconclusive = True
                else:
                    failed = True
    verdict = "FAIL" if failed else ("INCONCLUSIVE" if inconclusive else "pass")
    lines.append("suite %s: %s" % (args.suite, verdict))
    payload = {
        "command": "verify",
        "suite": args.suite,
        "verdict": verdict,
        "criteria": [
            {
                "number": r.number,
                "title": r.title,
                "ok": bool(r.ok),
                "checks": [
                    {"name": c.name, "ok": bool(c.ok),
                     "witness": None if c.witness is None else str(c.witness),
                     "inconclusive": c.inconclusive}
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    _emit(machine, lines, payload)
    if failed:
        return EXIT_FAIL
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homtrees",
        description="Exact computation in the free Hom-associative algebra on "
                    "leaf-weighted trees, enveloping algebras of Hom-Lie "
                    "algebras, and their group-like sequences.",
    )
    parser.add_argument("--machine", action="store_true",
                        help="one-line JSON output with sorted keys")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a Hom-Lie algebra JSON file")
    p.add_argument("algebra", help="path to the algebra file")

    p = sub.add_parser("nf", help="normal form in the one-generator quotient")
    p.add_argument("--expr", required=True, help="tree polynomial, e.g. '(0 1) - 2*01'")

    p = sub.add_parser("equal", help="decide equality in the quotient")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--algebra", help="algebra file: compare in its enveloping algebra")
    p.add_argument("--level", type=int,
                   help="pin the enveloping-algebra level instead of escalating")

    p = sub.add_parser("coproduct", help="coproduct of a tree polynomial")
    p.add_argument("--expr", required=True)

    p = sub.add_parser("antipode", help="antipode of a tree polynomial")
    p.add_argument("--expr", required=True)

    p = sub.add_parser("antipode-index", help="smallest k with α^k(S⋆id − ηε) = 0")
    p.add_argument("--expr", required=True)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)

    p = sub.add_parser("exp", help="print the exponential sequence exp̂_0..exp̂_P")
    p.add_argument("--scalar", required=True, help="rational parameter s, e.g. 1/2")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="cap P (default 4)")
    p.add_argument("--algebra", help="algebra file: exponentiate in its enveloping algebra")
    p.add_argument("--element", help="element of the algebra, e.g. 'E' or 'E + 2*H'")

    p = sub.add_parser("grouplike-check", help="validate a sequence file")
    p.add_argument("--file", required=True, help="JSON with bound/orders (see README)")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--level", type=int,
                   help="escalation cap for enveloping-algebra oracles (default 6)")

    return parser


HANDLERS = {
    "validate": _cmd_validate,
    "nf": _cmd_nf,
    "equal": _cmd_equal,
    "coproduct": _cmd_coproduct,
    "antipode": _cmd_antipode,
    "antipode-index": _cmd_antipode_index,
    "exp": _cmd_exp,
    "grouplike-check": _cmd_grouplike_check,
    "verify": _cmd_verify,
}


# Options whose values may start with '-': a negative scalar, a negated
# polynomial or element.  argparse reads such a value as an option string
# unless it is a plain negative number.
DASH_VALUE_OPTIONS = ("--scalar", "--lhs", "--rhs", "--expr", "--element")


def _attach_dash_values(argv: list) -> list:
    """Rewrite `--opt -x` as `--opt=-x` for the options above.

    Only a single-dash token other than -h is taken as the value, so a
    missing value or a real option string in its slot still fails to parse.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        out.append(token)
        if token in DASH_VALUE_OPTIONS:
            value = next(tokens, None)
            if value is None:
                break
            if value.startswith("-") and not value.startswith("--") and value != "-h":
                out[-1] = "%s=%s" % (token, value)
            else:
                out.append(value)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return HANDLERS[args.command](args, args.machine)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_USAGE
    except (OracleInconclusive, ResourceLimit) as exc:
        sys.stderr.write("inconclusive: %s\n" % exc)
        return EXIT_INCONCLUSIVE
    except RecursionError:
        sys.stderr.write("inconclusive: input nested deeper than the recursion limit (%d frames)\n"
                         % sys.getrecursionlimit())
        return EXIT_INCONCLUSIVE
    except KeyError as exc:  # an unknown basis symbol; str() would quote the message
        sys.stderr.write("error: %s\n" % exc.args[0])
        return EXIT_USAGE
    except (OSError, ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
