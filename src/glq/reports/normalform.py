"""``glq normalform``: the normal form of a superspace expression, and
the check that the printed form parses back to it."""

from ..graded import GradingContext
from ..parser import ParseError, format_normal_form, parse_superspace
from ..superspace import normal_form
from . import _check, _suite


def report(args):
    ctx = GradingContext(args.m, args.n)
    try:
        element = parse_superspace(ctx, args.expression)
    except ParseError as exc:
        # Bad input: the report names the error and carries no suites.
        return {"error": {"message": exc.message, "position": exc.position},
                "suites": []}
    nf, steps = normal_form(ctx, element)
    rendered = format_normal_form(ctx, nf)
    round_trip = parse_superspace(ctx, rendered) == nf
    suite = _suite("normalform",
                   [_check("round-trip", round_trip)],
                   input=args.expression,
                   normal_form=rendered,
                   steps=steps)
    return {"parameters": {"m": args.m, "n": args.n},
            "suites": [suite]}
