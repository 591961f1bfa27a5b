"""``glq verify``: the defining relations, the Hopf axioms, the star
structure and the square of the antipode."""

from .. import reps as reps_mod
from ..coeff import add_term
from ..graded import GradedMap, GradingContext
from ..uq import (UqExpression, all_generators, antipode, antipode_word,
                  coproduct, counit, counit_word, k2rho, star)
from . import (_check, _default_probe_degree, _probe_check, _suite,
               _witness, _witnessed)


def _suite_relations(ctx):
    profiles = [("vector", (False,)), ("dual", (True,)),
                ("vector(x)vector", (False, False)),
                ("vector(x)dual", (False, True))]
    checks = []
    for label, profile in profiles:
        results = reps_mod.check_relations(
            reps_mod.profile_rep(ctx, profile))
        found = next(((name,) for name, ok in results if not ok), None)
        checks.append(_witnessed("defining-relations-" + label, found,
                                 ("relation",), relations=len(results)))
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
        checks.append(_unitary_check(
            "unitary-" + label, reps_mod.unitarity_check(rep, gram, q0)))
    return _suite("star", checks, q0=str(q0))


def _unitary_check(name, result):
    """Holds when some star type is adjoint and the Gram matrix is
    positive at q0.  A failing one names the first Gram diagonal entry
    that is not positive there or, with a positive Gram matrix, each
    star type with its first generator where adjointness fails."""
    found, fields = None, ()
    if not result["unitary_types"]:
        if result["nonpositive_entry"] is not None:
            found = result["nonpositive_entry"]
            fields = ("gram-entry", "value")
        else:
            found = ([dict(_witness(("generator", "entry", "residual"), f),
                           type=t)
                      for t, f in sorted(result["not_adjoint"].items())],)
            fields = ("not-adjoint",)
    return _witnessed(name, found, fields, types=result["unitary_types"],
                      positive=result["positive"])


def _suite_k2rho(ctx, probe_degree):
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


def report(args):
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
