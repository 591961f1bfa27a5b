"""The report suites of the ``glq`` subcommands.  ``COMMANDS`` maps each
to the function that turns its parsed arguments into a report body.
``glq.cli`` imports this module only once the arguments are accepted,
and each subcommand imports the layers it runs inside the functions
that run them, so a job compiles and loads no other layer."""

from __future__ import annotations

from math import comb

from .coeff import ONE, add_term, q_int
from .graded import GradedMap, GradingContext, rank


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
    from .uq import UqExpression, probe_monomials

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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_relations(ctx):
    from . import reps as reps_mod

    profiles = [("vector", (False,)), ("dual", (True,)),
                ("vector(x)vector", (False, False)),
                ("vector(x)dual", (False, True))]
    checks = []
    for label, profile in profiles:
        results = reps_mod.check_relations(
            reps_mod.profile_rep(ctx, profile))
        checks.append(_check("defining-relations-" + label,
                             all(ok for _, ok in results),
                             relations=len(results)))
    return _suite("relations", checks)


def _on_leg(terms, i, leg_map):
    """Apply leg_map(word) -> {(pieces...): coeff} to leg i of every term
    of a tensor {(legs...): coeff}: the pieces replace the leg.  The
    coproduct and the counit are even, so no Koszul sign arises."""
    out = {}
    for legs, c in terms.items():
        for pieces, dc in leg_map(legs[i]).items():
            add_term(out, legs[:i] + pieces + legs[i + 1:], c * dc)
    return out


def _suite_hopf(ctx, probe_degree):
    from . import reps as reps_mod
    from .uq import (UqExpression, all_generators, antipode_word, coproduct,
                     counit, counit_word)

    def delta(word):
        return coproduct(UqExpression.from_word(ctx, word))

    def eps(word):
        return {(): counit_word(word)}

    coassoc = True
    counit_ax = True
    for g in all_generators(ctx):
        e = UqExpression.from_gen(ctx, g)
        d = coproduct(e)
        if _on_leg(d, 0, delta) != _on_leg(d, 1, delta):
            coassoc = False
        single = {(w,): c for w, c in e.terms.items()}
        if _on_leg(d, 0, eps) != single or _on_leg(d, 1, eps) != single:
            counit_ax = False
    checks = [_check("coassociativity", coassoc),
              _check("counit-axiom", counit_ax)]
    rep = reps_mod.profile_rep(ctx, (False,))

    def sides(x):
        collapsed = {}  # S on the first leg, then the legs multiplied
        for (w1, w2), c in coproduct(x).items():
            sw, sc = antipode_word(ctx, w1)
            add_term(collapsed, sw + w2, c * sc)
        return (rep.evaluate_expr(UqExpression(ctx, collapsed)),
                GradedMap.identity(rep.space).scale(counit(x)))

    checks.append(_probe_check("antipode-axiom-vector", ctx, probe_degree,
                               sides))
    return _suite("hopf", checks)


def _suite_star(ctx, probe_degree, q0):
    from . import reps as reps_mod
    from .uq import star

    checks = []
    V = reps_mod.profile_rep(ctx, (False,))
    D = reps_mod.profile_rep(ctx, (True,))
    for theta in (1, 2):
        checks.append(_probe_check(
            "star-involutive-type-%d" % theta, ctx, probe_degree,
            lambda x: (V.evaluate_expr(star(star(x, theta), theta)),
                       V.evaluate_expr(x))))
    for label, rep, gram in (("vector", V, reps_mod.vector_gram(ctx)),
                             ("dual", D, reps_mod.dual_gram(ctx))):
        report = reps_mod.unitarity_check(rep, gram, q0)
        checks.append(_check("unitary-%s" % label,
                             bool(report["unitary_types"]),
                             types=report["unitary_types"],
                             positive=report["positive"]))
    return _suite("star", checks, q0=str(q0))


def _suite_k2rho(ctx, probe_degree):
    from . import reps as reps_mod
    from .uq import antipode, k2rho

    checks = []
    for label, profile in (("vector", (False,)), ("dual", (True,))):
        rep = reps_mod.profile_rep(ctx, profile)
        k = rep.evaluate_expr(k2rho(ctx))
        kinv = rep.evaluate_expr(k2rho(ctx, inverse=True))
        checks.append(_probe_check(
            "antipode-squared-%s" % label, ctx, probe_degree,
            lambda x: (rep.evaluate_expr(antipode(antipode(x))),
                       k @ rep.evaluate_expr(x) @ kinv)))
    return _suite("k2rho", checks)


def cmd_verify(args):
    ctx = GradingContext(args.m, args.n)
    degree = args.probe_degree or _default_probe_degree(args.m, args.n)
    suites = [
        _suite_relations(ctx),
        _suite_hopf(ctx, degree),
        _suite_star(ctx, degree, args.q0),
        _suite_k2rho(ctx, degree),
    ]
    return {"parameters": {"m": args.m, "n": args.n,
                           "probe_degree": degree, "q0": str(args.q0)},
            "suites": suites}


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args):
    from . import reps as reps_mod

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


# ---------------------------------------------------------------------------
# rmatrix
# ---------------------------------------------------------------------------


def cmd_rmatrix(args):
    from . import rmatrix as rmatrix_mod

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


# ---------------------------------------------------------------------------
# coords
# ---------------------------------------------------------------------------


def _coords_antipode_suite(ctx, probe_degree):
    from . import coords as coords_mod
    from .coords import GqElement, t_, tbar_
    from .uq import UqExpression, antipode, probe_monomials

    probes = probe_monomials(ctx, min(probe_degree, 2))
    N = ctx.N
    letters = [t_(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    letters += [tbar_(a, b) for a in range(1, N + 1)
                for b in range(1, N + 1)]
    words = [(l,) for l in letters]
    words += [(t_(1, N), t_(N, 1)), (tbar_(1, 1), t_(1, N))]
    m = ctx.m
    if 1 <= m < N:
        # The odd simple pair: two odd letters that degree-2 probes see,
        # so the reversal sign of S shows at every size.  An odd letter
        # before an even one meets the Koszul sign of the word layout.
        words += [(t_(m, m + 1), t_(m + 1, m)),
                  (t_(m, m + 1), t_(m + 1, m + 1))]
    # <S f_i, x> against <f_i, S x>, every f_i keyed in one table.
    plain = coords_mod.pairing_table(
        ctx, ((i, w, ONE) for i, w in enumerate(words)))
    twisted = coords_mod.pairing_table(
        ctx, ((i,) + coords_mod.antipode_word_coords(ctx, w)
              for i, w in enumerate(words)))
    dual_ok = all(
        coords_mod.pair_table(twisted, x) == coords_mod.pair_table(
            plain, antipode(UqExpression.from_word(ctx, x)))
        for x in probes)
    # S^2 t_ab - q^{(2rho, eps_a - eps_b)} t_ab, keyed by (a, b).
    diffs = []
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            f = GqElement.from_letter(ctx, t_(a, b))
            s2 = coords_mod.antipode_coords(coords_mod.antipode_coords(f))
            e = ctx.two_rho_eps(a) - ctx.two_rho_eps(b)
            diffs += [((a, b), w, c)
                      for w, c in (s2 - f.scale(q_int(e))).terms.items()]
    squared = coords_mod.pairing_table(ctx, diffs)
    squared_ok = not any(coords_mod.pair_table(squared, x) for x in probes)
    checks = [_check("antipode-dual-to-enveloping", dual_ok),
              _check("antipode-squared-weight-ratio", squared_ok)]
    return _suite("antipode", checks)


def _coords_star_suite(ctx):
    from . import coords as coords_mod
    from .coords import GqElement, t_, tbar_

    N = ctx.N
    checks = []
    for theta in (1, 2):
        involutive = True
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                for letter in (t_(a, b), tbar_(a, b)):
                    f = GqElement.from_letter(ctx, letter)
                    ff = coords_mod.star_coords(
                        coords_mod.star_coords(f, theta), theta)
                    if ff.terms != f.terms:
                        involutive = False
        checks.append(_check("star-involutive-type-%d" % theta, involutive))
        compat = True
        for w in [(t_(1, 1),), (tbar_(1, N),), (t_(1, N), tbar_(N, 1))]:
            f = GqElement.from_word(ctx, w)
            lhs = coords_mod.coproduct(coords_mod.star_coords(f, theta))
            if lhs != coords_mod.star_coproduct(f, theta):
                compat = False
        checks.append(_check("star-coproduct-type-%d" % theta, compat))
    return _suite("star", checks)


def _coords_peterweyl_suite(ctx):
    from . import coords as coords_mod
    from . import reps as reps_mod
    from .coords import GqElement
    from .uq import pbw_probe_expressions

    name = "matrix-coefficients-independent"
    funcs = [GqElement.one(ctx)]
    try:
        for profile in ((False,), (False, False)):
            summands = reps_mod.decompose(reps_mod.profile_rep(ctx, profile))
            for grid in coords_mod.matrix_coefficients(ctx, profile,
                                                       summands):
                funcs += [entry for row in grid for entry in row]
    except ValueError as exc:
        # Without certified summands there are no coefficients to rank.
        return _suite("peterweyl", [_check(name, False, error=str(exc))])
    expected = len(funcs)
    table = coords_mod.pairing_table(
        ctx, ((fi, w, c) for fi, f in enumerate(funcs)
              for w, c in f.terms.items()))
    vecs = [{} for _ in funcs]
    for pi, x in enumerate(pbw_probe_expressions(ctx, 2)):
        for fi, v in coords_mod.pair_table(table, x).items():
            vecs[fi][pi] = v
    measured = rank(vecs)
    checks = [_check(name, measured == expected,
                     expected=expected, measured=measured)]
    return _suite("peterweyl", checks)


def cmd_coords(args):
    ctx = GradingContext(args.m, args.n)
    degree = args.probe_degree or _default_probe_degree(args.m, args.n)
    if args.check == "antipode":
        suites = [_coords_antipode_suite(ctx, degree)]
    elif args.check == "star":
        suites = [_coords_star_suite(ctx)]
    else:
        suites = [_coords_peterweyl_suite(ctx)]
    return {"parameters": {"m": args.m, "n": args.n, "check": args.check,
                           "probe_degree": degree},
            "suites": suites}


# ---------------------------------------------------------------------------
# normalform
# ---------------------------------------------------------------------------


def cmd_normalform(args):
    from .parser import ParseError, format_normal_form, parse_superspace
    from .superspace import normal_form

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


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def cmd_induce(args):
    from . import induction as induction_mod
    from . import reps as reps_mod

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


COMMANDS = {"verify": cmd_verify, "decompose": cmd_decompose,
            "rmatrix": cmd_rmatrix, "coords": cmd_coords,
            "normalform": cmd_normalform, "induce": cmd_induce}
