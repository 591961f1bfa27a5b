"""The report suites of the ``glq`` subcommands, one module each.

Each subcommand has a module of its own name here, whose ``report(args)``
turns the parsed arguments into a report body.  ``glq.cli`` imports the
chosen subcommand's module only once the arguments are accepted, so a job
compiles no other report and loads only the layers its report runs.  This
module holds the helpers that more than one report uses."""

from __future__ import annotations


def _check(name, ok, **extra):
    out = {"name": name, "ok": bool(ok)}
    out.update(extra)
    return out


def _suite(name, checks, **extra):
    out = {"name": name, "checks": checks,
           "ok": all(c["ok"] for c in checks)}
    out.update(extra)
    return out


def _default_probe_degree(m, n):
    return 4 if (m, n) == (1, 1) else 3


def _format_word(word):
    """A generator word in the parser's notation, "1" when empty."""
    return "*".join("%s[%s]" % (g[0], ",".join(str(i) for i in g[1:]))
                    for g in word) or "1"


def _probe_check(name, ctx, probe_degree, sides):
    """The check that sides(x) returns two equal maps for every probe
    monomial x up to the probe degree, capped at 2.  A failed check
    carries the witness of the first probe on which they differ: the
    probe word, the smallest (row, col) entry of the difference and its
    value there."""
    from ..uq import UqExpression, probe_monomials

    degree = min(probe_degree, 2)
    for word in probe_monomials(ctx, degree):
        lhs, rhs = sides(UqExpression.from_word(ctx, word))
        if lhs != rhs:
            diff = lhs - rhs
            entry = min(diff.entries)
            return _check(name, False, degree=degree, witness={
                "probe": _format_word(word), "entry": list(entry),
                "residual": str(diff.entries[entry])})
    return _check(name, True, degree=degree)
