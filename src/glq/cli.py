"""Command-line surface: deterministic JSON verification reports.

Every subcommand prints one JSON document (schema tag
``glq-report/1``) with alphabetically ordered keys, so repeated runs
are byte-identical.  Suites run one after another, in report order.
Each subcommand's suites are in its own module of ``glq.reports``,
which ``main`` imports only once the arguments are accepted: ``--help``
and bad arguments load no layer, and a job compiles no other report.
``json`` is imported when a report is printed, and ``fractions`` when
verify's ``--q0`` is read, so ``--help`` and bad arguments load no
``json``, and no ``fractions`` unless ``--q0`` was read first.

Exit codes:

  0  every reported check passed;
  1  a check failed (the report says which);
  2  bad input: invalid arguments (a negative size, a tensor power or
     probe degree below 1, a probe degree that coords --check star or
     peterweyl would not read, a probe degree above 2 for verify or
     coords --check antipode, which run at degree 2 at most, a negative
     induction degree, induce with no odd block, a specialisation point
     that is not a rational other than 0 and 1, or one whose numerator
     or denominator is past the digit limit of ``str``, or a number
     with a digit other than ASCII 0-9), rejected by the
     argument parser before any work is done, with no report; or a
     normalform expression that does not parse, with a report naming
     the error and its position;
  3  the command crashed: the traceback goes to stderr and no report is
     printed.
"""

import argparse
import sys
from importlib import import_module

SCHEMA = "glq-report/1"


def _int_at_least(low):
    def parse(text):
        try:
            if not text.isascii():  # int() reads every Unicode digit
                raise ValueError(text)
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text)
        if value < low:
            raise argparse.ArgumentTypeError("%d is below %d" % (value, low))
        return value
    return parse


def _specialisation_point(text):
    limit = sys.get_int_max_str_digits()
    # Fraction turns a decimal exponent e into 10**|e| first, which takes
    # minutes at e = 10**8; past limit + len(text), q0 is unprintable.
    exponent = text.lower().partition("e")[2].strip().lstrip("+-")
    try:
        if not text.isascii():  # so does Fraction
            raise ValueError(text)
        if (limit and exponent.replace("_", "").isdecimal()
                and int(exponent) > limit + len(text)):
            raise ValueError(exponent)
        from fractions import Fraction

        value = Fraction(text)
        str(value)  # the report echoes q0
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "%r is not a rational with printable digits" % text)
    if value in (0, 1):
        raise argparse.ArgumentTypeError("q0 = %s is rejected" % value)
    return value


def _add_size(p):
    p.add_argument("--m", type=_int_at_least(0), default=1,
                   help="number of even rows (default 1)")
    p.add_argument("--n", type=_int_at_least(0), default=1,
                   help="number of odd rows (default 1)")


def _add_probe(p):
    p.add_argument("--probe-degree", type=_int_at_least(1), default=None,
                   help="probe word degree (default 4 at (1|1), else 3); "
                        "rmatrix uses it in full, verify and coords --check "
                        "antipode run at degree 2 at most and reject a "
                        "larger one, coords --check star and peterweyl "
                        "reject it")


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="glq",
        description="Exact verification suites for the quantum general "
                    "linear supergroup apparatus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="defining relations, Hopf axioms, "
                                      "star structure, antipode square")
    _add_size(p)
    _add_probe(p)
    p.add_argument("--q0", type=_specialisation_point, default="3/2",
                   help="rational specialisation point other than 0 and 1 "
                        "(default 3/2)")

    p = sub.add_parser("decompose",
                       help="summands of a tensor power of the vector "
                            "module or its dual")
    _add_size(p)
    p.add_argument("--word", choices=["E", "Ed"], required=True,
                   help="base module: E (vector) or Ed (dual)")
    p.add_argument("--power", type=_int_at_least(1), required=True,
                   help="tensor power, at least 1")

    p = sub.add_parser("rmatrix",
                       help="intertwiner, braid, and exchange-identity "
                            "suites for one R-matrix kind")
    _add_size(p)
    _add_probe(p)
    p.add_argument("--kind", choices=["pp", "bb", "mixed"], required=True,
                   help="module pair: plain-plain, barred-barred, or mixed")

    p = sub.add_parser("coords",
                       help="coordinate-algebra checks")
    _add_size(p)
    _add_probe(p)
    p.add_argument("--check", choices=["antipode", "star", "peterweyl"],
                   required=True)

    p = sub.add_parser("normalform",
                       help="normal form of a superspace expression")
    _add_size(p)
    p.add_argument("expression", help="e.g. \"zb[1]*z[1]\"")

    p = sub.add_parser("induce",
                       help="induced-module and reciprocity suites")
    _add_size(p)
    p.add_argument("--k", type=_int_at_least(0), required=True,
                   help="degree of the induced module, at least 0")
    p.add_argument("--side", choices=["bar", "unbar"], required=True,
                   help="which of the two degree-k modules: bar builds the "
                        "module on plain z-monomials, unbar the one on "
                        "barred zb-monomials")

    for sp in sub.choices.values():
        sp.add_argument("--inject-failure", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _render(report):
    import json

    return json.dumps(report, indent=2, sort_keys=True)


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.m + args.n < 1:
        parser.error("--m and --n must satisfy m + n >= 1")
    if args.command == "induce" and args.n < 1:
        # The realized modules and their expected dimensions and highest
        # weights are stated for an odd block of size at least one.
        parser.error("induce needs --n >= 1")
    if (args.command == "coords" and args.check != "antipode"
            and args.probe_degree is not None):
        parser.error("coords --check %s does not read --probe-degree"
                     % args.check)
    if args.command in ("verify", "coords") and (args.probe_degree or 0) > 2:
        parser.error("%s runs at probe degree 2 at most" % args.command)
    base = {"schema": SCHEMA, "command": args.command}
    try:
        # One module per subcommand, named after it (a test pins the
        # match); each runs its suites through report(args).
        body = import_module("glq.reports." + args.command).report(args)
    except Exception:
        import traceback

        traceback.print_exc()
        return 3
    base.update(body)
    if "error" in body:
        base["ok"] = False
        print(_render(base))
        return 2
    if args.inject_failure:
        from .reports import _check, _suite

        base["suites"] = list(base["suites"]) + [
            _suite("injected-failure",
                   [_check("always-fails", False, injected=True)])]
    base["ok"] = all(s["ok"] for s in base["suites"])
    print(_render(base))
    return 0 if base["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
