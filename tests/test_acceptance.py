"""Acceptance gate: every advertised capability, one criterion per test,
one printed pass/fail line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v`` (add ``-s``
to see the per-criterion lines while they print).
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

from glq.coeff import ONE, ZERO, add_term
from glq.graded import GradedMap, GradingContext, joint_kernel, rank
import glq.coords as coords
import glq.induction as induction
import glq.reps as reps
import glq.rmatrix as rmatrix
import glq.superspace as superspace
from glq.cli import main as cli_main
from glq.coords import GqElement, t_, tbar_
from glq.parser import parse_superspace
from glq.superspace import SuperspaceElement, z_, zb_
from glq.uq import (
    UqExpression,
    all_generators,
    antipode,
    antipode_word,
    coproduct,
    counit,
    counit_word,
    k2rho,
    pbw_probe_expressions,
    probe_monomials,
)

DESK_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " — " + "; ".join(map(str, failures[:4]))
    print("criterion %02d [%s]: %s%s" % (num, name, status, detail),
          flush=True)
    assert not failures, "criterion %02d failed: %s" % (num, failures[:4])


# ---------------------------------------------------------------------------
# 1. Defining relations hold in the basic modules at every desk size.
# ---------------------------------------------------------------------------


def test_criterion_01_defining_relations():
    failures = []
    for size in DESK_SIZES:
        ctx = GradingContext(*size)
        V = reps.vector_rep(ctx)
        D = reps.dual_rep(V)
        modules = [
            ("vector", V),
            ("dual", D),
            ("square", reps.tensor_rep(V, V)),
            ("cube", reps.tensor_rep(reps.tensor_rep(V, V), V)),
            ("mixed", reps.tensor_rep(V, D)),
        ]
        for label, rep in modules:
            for rel_name, ok in reps.check_relations(rep):
                if not ok:
                    failures.append((size, label, rel_name))
    _report(1, "defining-relations", failures)


# ---------------------------------------------------------------------------
# 2. Hopf axioms: coassociativity, counit, antipode.
# ---------------------------------------------------------------------------


def test_criterion_02_hopf_axioms():
    failures = []
    for size in DESK_SIZES:
        ctx = GradingContext(*size)

        def delta(word):
            return coproduct(UqExpression.from_word(ctx, word)).items()

        for g in all_generators(ctx):
            e = UqExpression.from_gen(ctx, g)
            left, right, eps_left, eps_right = {}, {}, {}, {}
            for (w1, w2), c in coproduct(e).items():
                for (a, b), dc in delta(w1):
                    add_term(left, (a, b, w2), c * dc)
                for (a, b), dc in delta(w2):
                    add_term(right, (w1, a, b), c * dc)
                add_term(eps_left, w2, c * counit_word(w1))
                add_term(eps_right, w1, c * counit_word(w2))
            if left != right:
                failures.append((size, "coassociativity", g))
            if not eps_left == e.terms == eps_right:
                failures.append((size, "counit", g))
        rep = reps.vector_rep(ctx)
        for word in probe_monomials(ctx, 2):
            x = UqExpression.from_word(ctx, word)
            collapsed = {}
            for (w1, w2), c in coproduct(x).items():
                sw, sc = antipode_word(ctx, w1)
                add_term(collapsed, sw + w2, c * sc)
            lhs = rep.evaluate_expr(UqExpression(ctx, collapsed))
            rhs = GradedMap.identity(rep.space).scale(counit(x))
            if not (lhs - rhs).is_zero():
                failures.append((size, "antipode", word))
                break
    _report(2, "hopf-axioms", failures)


# ---------------------------------------------------------------------------
# 3. The antipode squared is conjugation by the distinguished Cartan word.
# ---------------------------------------------------------------------------


def test_criterion_03_antipode_squared():
    failures = []
    for size in DESK_SIZES:
        ctx = GradingContext(*size)
        V = reps.vector_rep(ctx)
        for label, rep in (("vector", V), ("dual", reps.dual_rep(V))):
            k = rep.evaluate_expr(k2rho(ctx))
            kinv = rep.evaluate_expr(k2rho(ctx, inverse=True))
            for word in probe_monomials(ctx, 2):
                x = UqExpression.from_word(ctx, word)
                lhs = rep.evaluate_expr(antipode(antipode(x)))
                rhs = k @ rep.evaluate_expr(x) @ kinv
                if lhs != rhs:
                    failures.append((size, label, word))
                    break
    _report(3, "antipode-squared", failures)


# ---------------------------------------------------------------------------
# 4. Each R-matrix intertwines the coproduct with its opposite.
# ---------------------------------------------------------------------------


def test_criterion_04_intertwiners():
    failures = []
    for size in DESK_SIZES:
        ctx = GradingContext(*size)
        for kind in ("pp", "bb", "mixed"):
            if rmatrix.check_intertwiner(ctx, kind) is not None:
                failures.append((size, kind))
    _report(4, "r-matrix-intertwiners", failures)


# ---------------------------------------------------------------------------
# 5. Braid relation for the plain-plain and barred-barred operators.
# ---------------------------------------------------------------------------


def test_criterion_05_braid_relation():
    failures = []
    for size in [(1, 1), (2, 1)]:
        ctx = GradingContext(*size)
        for kind in ("pp", "bb"):
            if rmatrix.check_braid(ctx, kind) is not None:
                failures.append((size, kind))
    _report(5, "braid-relation", failures)


# ---------------------------------------------------------------------------
# 6. Exchange identity between the R-matrix and coordinate generators.
# ---------------------------------------------------------------------------


def test_criterion_06_exchange_identity():
    failures = []
    for size, degree in (((1, 1), 4), ((2, 1), 3)):
        ctx = GradingContext(*size)
        for kind in ("pp", "bb", "mixed"):
            if rmatrix.check_rtt(ctx, kind, degree) is not None:
                failures.append((size, kind, degree))
    _report(6, "exchange-identity", failures)


# ---------------------------------------------------------------------------
# 7. Coordinate antipode and star, including the frozen barred-letter
#    antipode value.
# ---------------------------------------------------------------------------


def test_criterion_07_coordinate_antipode_star():
    failures = []
    ctx = GradingContext(1, 1)
    probes = probe_monomials(ctx, 4)
    N = ctx.N
    letters = [t_(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    letters += [tbar_(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    words = [(l,) for l in letters]
    words += [(t_(1, N), t_(N, 1)), (tbar_(1, 1), t_(1, N)),
              (t_(1, 1), tbar_(1, N), t_(N, N))]
    for w in words:
        f = GqElement.from_word(ctx, w)
        sf = coords.antipode_coords(f)
        for x in probes:
            lhs = coords.evaluate(ctx, sf, x)
            rhs = coords.evaluate(ctx, f,
                                  antipode(UqExpression.from_word(ctx, x)))
            if lhs != rhs:
                failures.append(("antipode-dual", w, x))
                break
    frozen = coords.antipode_coords(GqElement.from_letter(ctx, tbar_(1, 2)))
    if frozen.terms != {(t_(2, 1),): -ONE}:
        failures.append(("frozen-antipode-barred-letter", frozen.terms))
    for theta in (1, 2):
        for w in words:
            f = GqElement.from_word(ctx, w)
            ff = coords.star_coords(coords.star_coords(f, theta), theta)
            if ff.terms != f.terms:
                failures.append(("star-involution", theta, w))
            if (coords.coproduct(coords.star_coords(f, theta))
                    != coords.star_coproduct(f, theta)):
                failures.append(("star-coproduct", theta, w))
    _report(7, "coordinate-antipode-star", failures)


# ---------------------------------------------------------------------------
# 8. Unitarity at rational points, including the frozen Gram diagonal.
# ---------------------------------------------------------------------------


def test_criterion_08_unitarity():
    failures = []
    for size in DESK_SIZES:
        ctx = GradingContext(*size)
        V = reps.vector_rep(ctx)
        D = reps.dual_rep(V)
        for q0 in (Fraction(3, 2), Fraction(2)):
            for label, rep, gram in (
                    ("vector", V, reps.vector_gram(ctx)),
                    ("dual", D, reps.dual_gram(ctx))):
                out = reps.unitarity_check(rep, gram, q0)
                if not out["positive"] or not out["unitary_types"]:
                    failures.append((size, label, str(q0), out))
    c11 = GradingContext(1, 1)
    dense = reps.vector_gram(c11).specialize(Fraction(3, 2))
    diag = [dense[i][i] for i in range(2)]
    if diag != [Fraction(1), Fraction(2, 3)]:
        failures.append(("frozen-gram-diagonal", diag))
    _report(8, "unitarity", failures)


# ---------------------------------------------------------------------------
# 9. The tensor square at (2|1) splits with dimensions {4, 5}, checked
#    against a closure oracle that never calls the decomposition code.
# ---------------------------------------------------------------------------


def _closure_dim(rep, seed_vec):
    """Dimension of the submodule generated by one vector, by closing
    the span under every generator image until the rank stabilises."""
    mats = [rep.image(g) for g in all_generators(rep.ctx)]
    basis = [dict(seed_vec)]
    while True:
        current = rank(basis)
        grown = list(basis)
        for v in basis:
            for mat in mats:
                out = {}
                for (r, c), val in mat.entries.items():
                    if c in v:
                        s = out.get(r, ZERO) + val * v[c]
                        if s:
                            out[r] = s
                        else:
                            out.pop(r, None)
                if out:
                    grown.append(out)
        new_rank = rank(grown)
        if new_rank == current:
            return current
        basis = grown


def test_criterion_09_tensor_square_split():
    failures = []
    ctx = GradingContext(2, 1)
    V = reps.vector_rep(ctx)
    square = reps.tensor_rep(V, V)
    hw_vectors = joint_kernel(
        [square.image(g) for g in reps.raising_generators(ctx)])
    dims = sorted(_closure_dim(square, v) for v in hw_vectors)
    if dims != [4, 5]:
        failures.append(("closure-dims", dims))
    if sum(dims) != square.dim:
        failures.append(("dims-sum", dims, square.dim))
    summands = reps.decompose(square)
    if sorted(s.dim for s in summands) != [4, 5]:
        failures.append(("decompose-dims", [s.dim for s in summands]))
    _report(9, "tensor-square-split", failures)


# ---------------------------------------------------------------------------
# 10. The rewriting system terminates, is confluent across strategies,
#     sends the signed sphere element to zero, and is functionally sound.
# ---------------------------------------------------------------------------


def test_criterion_10_rewriting():
    failures = []
    for size in [(1, 1), (2, 1), (1, 2)]:
        ctx = GradingContext(*size)
        report = superspace.verify_identities(ctx, seed=7, word_count=15,
                                              max_len=6)
        for key in ("derived_identity", "unsigned_variant_nonzero",
                    "unit_relation", "confluence"):
            if report[key] is not True:
                failures.append((size, key, report.get("witness")))
        rng = random.Random(13)
        alphabet = [z_(a) for a in range(1, ctx.N + 1)]
        alphabet += [zb_(a) for a in range(1, ctx.N + 1)]
        for _ in range(10):
            word = tuple(rng.choice(alphabet)
                         for _ in range(rng.randint(2, 6)))
            el = SuperspaceElement.from_word(ctx, word)
            nf, steps = superspace.normal_form(ctx, el, instrument=True)
            if not all(superspace.is_normal(ctx, w) for w in nf.terms):
                failures.append((size, "not-normal", word))
        # Root-vector probes separate the correction pairs of the
        # crossing rule, which sorted generator words of degree 2 miss.
        probes = pbw_probe_expressions(ctx, 3)
        for l1 in alphabet:
            for l2 in alphabet:
                word = (l1, l2)
                for pos in superspace.redexes(ctx, word):
                    out = superspace.apply_rule(ctx, word, pos)
                    diff = induction.to_coordinate_element(
                        ctx, SuperspaceElement.from_word(ctx, word)
                        - SuperspaceElement(ctx, out))
                    if any(coords.evaluate(ctx, diff, p) for p in probes):
                        failures.append((size, "unsound-rule", pos, word))
    _report(10, "rewriting-system", failures)


# ---------------------------------------------------------------------------
# 11. The two families of degree-k induced modules: dimensions,
#     irreducibility, and the highest weight of each.
# ---------------------------------------------------------------------------

# Highest weight of the degree-k barred module, k = 0..3: one column of
# k boxes, so the first k marks with the overflow beyond the even block
# on index m+1.  The plain module is headed by (0, ..., 0, -k).
COLUMN_LABELS = {
    (1, 1): [(0, 0), (1, 0), (1, 1), (1, 2)],
    (2, 1): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
    (1, 2): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)],
}


def test_criterion_11_induced_modules():
    failures = []
    for size in [(1, 1), (2, 1), (1, 2)]:
        ctx = GradingContext(*size)
        m, n = size
        for k in range(0, 4):
            expected_dim = sum(comb(m, j) * comb(n - 1 + k - j, k - j)
                               for j in range(min(m, k) + 1))
            plain = tuple([0] * (ctx.N - 1) + [-k])
            for side, barred, want in (("plain", False, plain),
                                       ("barred", True,
                                        COLUMN_LABELS[size][k])):
                rep, _ = induction.build_induced(ctx, k, barred)
                summands = reps.decompose(rep)
                if rep.dim != expected_dim:
                    failures.append((size, k, side, "dim", rep.dim,
                                     expected_dim))
                if len(summands) != 1:
                    failures.append((size, k, side, "reducible"))
                if summands[0].highest_weight != want:
                    failures.append((size, k, side, "weight",
                                     summands[0].highest_weight, want))
    _report(11, "induced-modules", failures)


# ---------------------------------------------------------------------------
# 12. Reciprocity: morphism counts agree between the two sides of the
#     induction, with the known non-zero cells.
# ---------------------------------------------------------------------------


def test_criterion_12_reciprocity():
    failures = []
    nonzero = {}
    for size in [(1, 1), (2, 1)]:
        ctx = GradingContext(*size)
        V = reps.vector_rep(ctx)
        square = reps.tensor_rep(V, V)
        summands = reps.decompose(square)
        tests = [("trivial", reps.trivial_rep(ctx)), ("vector", V)]
        tests += [("square:%s" % (s.highest_weight,), s.rep)
                  for s in summands]
        for k in range(0, 3):
            for barred in (False, True):
                rep_h, _ = induction.build_induced(ctx, k, barred)
                for label, W in tests:
                    lhs, rhs = induction.frobenius_dims(ctx, W, rep_h, k,
                                                        barred)
                    if lhs != rhs:
                        failures.append((size, k, barred, label, lhs, rhs))
                    if lhs:
                        nonzero[(size, k, barred, label.split(":")[0])] = lhs
    expected_keys = set()
    for size in [(1, 1), (2, 1)]:
        expected_keys.add((size, 0, False, "trivial"))
        expected_keys.add((size, 0, True, "trivial"))
        expected_keys.add((size, 1, True, "vector"))
        expected_keys.add((size, 2, True, "square"))
    if set(nonzero) != expected_keys:
        failures.append(("nonzero-cells", sorted(set(nonzero)
                                                 ^ expected_keys)))
    if any(v != 1 for v in nonzero.values()):
        failures.append(("multiplicity", nonzero))
    _report(12, "reciprocity", failures)


# ---------------------------------------------------------------------------
# 13. Command-line contract: byte-identical reports, exit codes, the
#     frozen normal-form rendering.
# ---------------------------------------------------------------------------


def test_criterion_13_cli_contract(capsys):
    failures = []
    argv = ["verify", "--m", "1", "--n", "1"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    if out1 != out2:
        failures.append("reports-not-byte-identical")
    codes = [code1, code2]
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "glq.cli"] + argv, capture_output=True,
            text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
        codes.append(proc.returncode)
        if proc.stdout != out1:
            failures.append(("hash-seed-report-differs", seed))
    if codes != [0, 0, 0, 0]:
        failures.append(("exit-codes", codes))
    code_fail = cli_main(argv + ["--inject-failure"])
    fail_report = json.loads(capsys.readouterr().out)
    if code_fail != 1 or fail_report["ok"] is not False:
        failures.append(("inject-failure", code_fail))
    code_nf = cli_main(["normalform", "zb[1]*z[1]"])
    nf_report = json.loads(capsys.readouterr().out)
    rendered = nf_report["suites"][0]["normal_form"]
    if code_nf != 0 or rendered != "-q^2 * Z[1;0] Zb[1;0]":
        failures.append(("frozen-normal-form", rendered))
    ctx = GradingContext(1, 1)
    if parse_superspace(ctx, rendered) != superspace.normal_form(
            ctx, parse_superspace(ctx, "zb[1]*z[1]"))[0]:
        failures.append("round-trip")
    _report(13, "cli-contract", failures)
