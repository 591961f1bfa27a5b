"""``glq rmatrix``: the intertwiner, braid and exchange-identity suites
of one R-matrix kind."""

from __future__ import annotations

from .. import rmatrix as rmatrix_mod
from ..graded import GradingContext
from . import _check, _default_probe_degree, _format_word, _suite


def report(args):
    ctx = GradingContext(args.m, args.n)
    degree = args.probe_degree or _default_probe_degree(args.m, args.n)
    kind = args.kind

    def braid_suite():
        result = rmatrix_mod.check_braid(ctx, kind)
        if result is None:
            return _suite("braid", [_check("braid-relation", True,
                                           skipped=True)])
        return _suite("braid", [_check("braid-relation", result)])

    def rtt_suite():
        ok = rmatrix_mod.check_rtt(ctx, kind, degree)
        extra = {}
        if not ok:
            # Only a failing run pays for the second pass that names the
            # failure, so a passing report is unchanged.
            probe, entry, residual = rmatrix_mod.rtt_witness(ctx, kind,
                                                             degree)
            extra["witness"] = {"probe": _format_word(probe),
                                "entry": list(entry),
                                "residual": str(residual)}
        return _suite("rtt", [_check("exchange-identity", ok,
                                     degree=degree, **extra)])

    suites = [
        _suite("intertwiner", [
            _check("coproduct-intertwiner",
                   rmatrix_mod.check_intertwiner(ctx, kind))]),
        braid_suite(),
        rtt_suite(),
    ]
    return {"parameters": {"m": args.m, "n": args.n, "kind": kind,
                           "probe_degree": degree},
            "suites": suites}
