"""``glq induce``: one induced module of degree k, checked against its
expected dimension, irreducibility and highest weight, and Frobenius
reciprocity on two test modules."""

from math import comb

from .. import induction as induction_mod
from .. import reps as reps_mod
from ..graded import GradingContext
from . import _check, _suite


def report(args):
    ctx = GradingContext(args.m, args.n)
    k = args.k
    barred = args.side == "unbar"
    parameters = {"m": args.m, "n": args.n, "k": k, "side": args.side}
    try:
        rep, _ = induction_mod.build_induced(ctx, k, barred)
    except ValueError as exc:
        # Without a module the remaining checks and the reciprocity
        # suite have nothing to examine.
        failed = {induction_mod.RelationError: "defining-relations",
                  reps_mod.WeightError: "cartan-weights"}.get(type(exc))
        if failed:
            checks = [_check("span-stable", True),
                      _check(failed, False, error=str(exc))]
        else:
            checks = [_check("span-stable", False, error=str(exc))]
        return {"parameters": parameters,
                "suites": [_suite("borel-weil", checks)]}
    checks = [_check("span-stable", True), _check("defining-relations", True)]
    expected_dim = sum(comb(ctx.m, j) * comb(ctx.n - 1 + k - j, k - j)
                       for j in range(min(ctx.m, k) + 1))
    checks.append(_check("dimension", rep.dim == expected_dim,
                         expected=expected_dim, measured=rep.dim))
    try:
        summands = reps_mod.decompose(rep)
    except ValueError as exc:
        summands = []
        checks.append(_check("irreducible", False, error=str(exc)))
    else:
        checks.append(_check("irreducible", len(summands) == 1,
                             summands=len(summands)))
    if barred:
        # The barred span is headed by the one-column diagram of size k.
        want = reps_mod.partition_weight(ctx, (1,) * k)
    else:
        want = tuple([0] * (ctx.N - 1) + [-k])
    got = summands[0].highest_weight if summands else None
    checks.append(_check("highest-weight", got == want,
                         expected=[int(x) for x in want],
                         measured=[int(x) for x in got]
                         if got is not None else None))
    reciprocity = []
    for label, profile in (("trivial", ()), ("vector", (False,))):
        W = reps_mod.profile_rep(ctx, profile)
        lhs, rhs = induction_mod.frobenius_dims(ctx, W, rep, k, barred)
        reciprocity.append(_check("reciprocity-%s" % label, lhs == rhs,
                                  module_side=lhs, parabolic_side=rhs))
    return {"parameters": parameters,
            "suites": [_suite("borel-weil", checks),
                       _suite("frobenius", reciprocity)]}
