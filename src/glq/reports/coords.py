"""``glq coords``: the antipode, star and Peter-Weyl checks of the
coordinate algebra."""

from .. import coords as coords_mod
from .. import reps as reps_mod
from ..coeff import ONE, q_int
from ..coords import GqElement, t_, tbar_
from ..graded import GradingContext, rank
from ..uq import (UqExpression, antipode, pbw_probe_expressions,
                  probe_monomials)
from . import _check, _default_probe_degree, _suite


def _coords_antipode_suite(ctx, probe_degree):
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


def report(args):
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
