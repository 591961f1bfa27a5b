"""``glq rmatrix``: the intertwiner, braid and exchange-identity suites
of one R-matrix kind."""

from .. import rmatrix as rmatrix_mod
from ..graded import GradingContext
from . import _check, _default_probe_degree, _suite, _witnessed


def report(args):
    ctx = GradingContext(args.m, args.n)
    degree = args.probe_degree or _default_probe_degree(args.m, args.n)
    kind = args.kind
    intertwiner = _witnessed(
        "coproduct-intertwiner", rmatrix_mod.check_intertwiner(ctx, kind),
        ("generator", "entry", "residual"))
    braid = (_check("braid-relation", True, skipped=True)
             if kind == "mixed" else
             _witnessed("braid-relation", rmatrix_mod.check_braid(ctx, kind),
                        ("entry", "residual")))
    rtt = _witnessed("exchange-identity",
                     rmatrix_mod.check_rtt(ctx, kind, degree),
                     ("probe", "entry", "residual"), degree=degree)
    return {"parameters": {"m": args.m, "n": args.n, "kind": kind,
                           "probe_degree": degree},
            "suites": [_suite("intertwiner", [intertwiner]),
                       _suite("braid", [braid]), _suite("rtt", [rtt])]}
