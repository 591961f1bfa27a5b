"""The report suites of the ``glq`` subcommands, one module each.

Each subcommand has a module of its own name here, whose ``report(args)``
turns the parsed arguments into a report body.  ``glq.cli`` imports the
chosen subcommand's module only once the arguments are accepted, so a job
compiles no other report and loads only the layers its report runs.  This
module holds the helpers that more than one report uses."""


def _check(name, ok, **extra):
    out = {"name": name, "ok": bool(ok)}
    out.update(extra)
    return out


def _witnessed(name, found, fields, **extra):
    """The check that holds when found, its first witness, is None.  A
    failed one carries found's values under the given fields as witness."""
    if found is not None:
        extra["witness"] = {f: _WITNESS_FORMATS.get(f, str)(v)
                            for f, v in zip(fields, found)}
    return _check(name, found is None, **extra)


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


# How _witnessed writes a witness field; any other field is a string.
_WITNESS_FORMATS = {"probe": _format_word, "entry": list,
                    "generator": lambda g: _format_word((g,))}


def _probe_check(name, ctx, probe_degree, sides):
    """The check that sides(x) returns two equal maps for every probe
    monomial x up to the probe degree, capped at 2.  Its witness: the
    first probe word where they differ, and their `first_difference`."""
    from ..graded import first_difference
    from ..uq import UqExpression, probe_monomials

    degree = min(probe_degree, 2)
    for word in probe_monomials(ctx, degree):  # the first word is "1"
        found = first_difference(*sides(UqExpression.from_word(ctx, word)))
        if found is not None:
            found = (word,) + found
            break
    return _witnessed(name, found, ("probe", "entry", "residual"),
                      degree=degree)
