"""``glq decompose``: the summands of a tensor power of the vector
module or of its dual."""

from .. import reps as reps_mod
from ..graded import GradingContext
from . import _check, _suite


def report(args):
    ctx = GradingContext(args.m, args.n)
    rep = reps_mod.profile_rep(ctx, (args.word == "Ed",) * args.power)
    try:
        summands = reps_mod.decompose(rep)
    except ValueError as exc:
        summands = []
        checks = [_check("summands-certified", False, error=str(exc))]
    else:
        checks = [
            _check("dimensions-sum",
                   sum(s.dim for s in summands)
                   == (args.m + args.n) ** args.power,
                   total=rep.dim),
            _check("summands-nonempty", bool(summands) or rep.dim == 0),
        ]
    listed = [{"dim": s.dim,
               "highest_weight": [int(x) for x in s.highest_weight]}
              for s in summands]
    suite = _suite("decomposition", checks, summands=listed)
    return {"parameters": {"m": args.m, "n": args.n, "power": args.power,
                           "word": args.word},
            "suites": [suite]}
