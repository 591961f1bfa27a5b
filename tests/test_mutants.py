"""Mutation gate: seeded defects that the CLI reports must catch.

Each row of MUTANTS plants one defect with monkeypatch at (2|1), runs
one `glq` report in-process and asserts that the report exits 1 with
every named check at ``"ok": false``.  A check that no planted defect can
turn false would be a check that earns nothing (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).

``test_every_report_check_is_earned_or_listed`` runs twelve reports at
(2|1) and requires every check name they emit to be in some row's
must-fail set, or in ``UNEARNED`` with the reason no row reaches it.
``test_every_failing_mutant_check_names_a_witness`` requires every
must-fail check of every row to carry a ``witness`` under its mutant, or
to be in ``BARE`` with the reason it does not.

The module caches (`reps.profile_rep`, the dual-power decompositions and
the `coords` word layouts) are cleared before each report and after each
test, so a mutant's report builds its own modules and none of them
outlives the test.
"""

import json
from functools import partial

import pytest

from glq import coeff, coords, graded, reps, rmatrix, uq
from glq.cli import main
from glq.coeff import ONE
from glq.graded import GradedMap, GradingContext
from glq.uq import probe_monomials

from test_rmatrix import _flip_first_off_diagonal

VERIFY = ["verify", "--m", "2", "--n", "1"]
RMATRIX = ["rmatrix", "--m", "2", "--n", "1", "--kind", "pp",
           "--probe-degree", "2"]
INDUCE = ["induce", "--m", "2", "--n", "1", "--k", "2", "--side"]
COORDS = ["coords", "--m", "2", "--n", "1", "--check"]
E12 = uq.gen_E(1, 2)

# Held from import time: a planted defect rebinds coords.word_layout.
CACHES = (reps.profile_rep, reps._power_summands, coords.word_layout)


def _clear_caches():
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches():
    yield
    _clear_caches()


def _flip_antipode_sign_of_e12(monkeypatch):
    true_gen = uq._antipode_gen

    def flipped(g):
        word, c = true_gen(g)
        return (word, -c) if g == E12 else (word, c)

    monkeypatch.setattr(uq, "_antipode_gen", flipped)


def _drop_theta2_star_sign(monkeypatch):
    true_gen = uq._star_gen

    def unsigned(ctx, g, theta):
        word, _ = true_gen(ctx, g, theta)
        return word, 0

    monkeypatch.setattr(uq, "_star_gen", unsigned)


def _star_of_e12_without_kinv(monkeypatch):
    true_gen = uq._star_gen

    def short(ctx, g, theta):
        word, sign = true_gen(ctx, g, theta)
        return ((uq.gen_E(2, 1), uq.gen_K(1)), sign) if g == E12 \
            else (word, sign)

    monkeypatch.setattr(uq, "_star_gen", short)


def _sign_on_e12_only(monkeypatch):
    true_gen = uq._star_gen

    def signed(ctx, g, theta):
        word, sign = true_gen(ctx, g, theta)
        return word, sign + (g == E12)

    monkeypatch.setattr(uq, "_star_gen", signed)


def _antipode_of_e12_without_cartan(monkeypatch):
    true_gen = uq._antipode_gen

    def bare(g):
        word, c = true_gen(g)
        return ((g,), c) if g == E12 else (word, c)

    monkeypatch.setattr(uq, "_antipode_gen", bare)


def _drop_koszul_sign_of_layout(monkeypatch):
    true_layout = coords.word_layout

    def unsigned(ctx, word):
        rep, row, col, _ = true_layout(ctx, word)
        return rep, row, col, False

    monkeypatch.setattr(coords, "word_layout", unsigned)


def _drop_koszul_sign_of_flip(monkeypatch):
    true_flip = graded.graded_flip

    def unsigned(space1, space2):
        f = true_flip(space1, space2)
        return GradedMap(f.domain, f.codomain, {rc: ONE for rc in f.entries})

    # rmatrix holds its own binding of the name.
    monkeypatch.setattr(graded, "graded_flip", unsigned)
    monkeypatch.setattr(rmatrix, "graded_flip", unsigned)


def _on_uq_side(letter_fn):
    """Whether a word rule of coeff runs on a generator table of uq (its
    coproduct or antipode) rather than on a letter map of coords."""
    return letter_fn is uq._delta_gen or letter_fn is uq._antipode_gen


def _drop_leg_sign(monkeypatch, on_uq_side):
    true_split = coeff.split_word

    def unsigned(word, letter_split, parity):
        if _on_uq_side(letter_split) == on_uq_side:
            return true_split(word, letter_split, lambda w: 0)
        return true_split(word, letter_split, parity)

    monkeypatch.setattr(coeff, "split_word", unsigned)


def _drop_reversal_sign(monkeypatch, on_uq_side):
    true_reverse = coeff.reverse_word

    def unsigned(word, letter_map, parity=None):
        if _on_uq_side(letter_map) == on_uq_side:
            parity = None
        return true_reverse(word, letter_map, parity)

    for module in (coeff, uq, coords):
        monkeypatch.setattr(module, "reverse_word", unsigned)


MUTANTS = {
    "r-element-off-diagonal-flipped": (
        _flip_first_off_diagonal, RMATRIX,
        {"coproduct-intertwiner", "braid-relation", "exchange-identity"}),
    "antipode-sign-of-e12-flipped": (
        _flip_antipode_sign_of_e12, VERIFY,
        {"defining-relations-dual", "defining-relations-vector(x)dual",
         "antipode-axiom-vector", "unitary-dual"}),
    # Weak spot: only unitary-dual sees this sign.  star-involutive-type-2
    # applies the sign twice, and it squares away.
    "star-theta2-sign-dropped": (
        _drop_theta2_star_sign, VERIFY, {"unitary-dual"}),
    # Weak spot: only braid-relation sees this sign.  The intertwiner and
    # the exchange identity never build the flip.
    "graded-flip-koszul-sign-dropped": (
        _drop_koszul_sign_of_flip, RMATRIX, {"braid-relation"}),
    "star-sign-on-e12-only": (
        _sign_on_e12_only, VERIFY,
        {"star-involutive-type-1", "star-involutive-type-2",
         "unitary-vector"}),
    "antipode-of-e12-without-cartan": (
        _antipode_of_e12_without_cartan, VERIFY,
        {"antipode-squared-vector", "antipode-squared-dual"}),
    # Weak spot: only unitary-dual sees a star of E_12 without its
    # K_2^{-1}.  Applied twice, that star sends E_12 to K_1 K_1^{-1} K_2
    # E_12, and star-involutive-type-θ compares the two only in the
    # vector module, where K_2 acts as 1 on the image of E_12.
    "star-of-e12-without-kinv": (
        _star_of_e12_without_kinv, VERIFY, {"unitary-dual"}),
    # Every coordinate pairing reads its Koszul sign from word_layout.
    # Weak spot: `coords --check peterweyl` stays ok without it, because
    # matrix_coefficients folds into its coefficients the very sign that
    # the pairing takes out again.
    "layout-koszul-sign-dropped/rmatrix": (
        _drop_koszul_sign_of_layout, RMATRIX, {"exchange-identity"}),
    "layout-koszul-sign-dropped/coords-antipode": (
        _drop_koszul_sign_of_layout, COORDS + ["antipode"],
        {"antipode-dual-to-enveloping"}),
    "layout-koszul-sign-dropped/induce-bar": (
        _drop_koszul_sign_of_layout, INDUCE + ["bar"],
        {"defining-relations"}),
    "layout-koszul-sign-dropped/induce-unbar": (
        _drop_koszul_sign_of_layout, INDUCE + ["unbar"],
        {"defining-relations"}),
    # The Koszul word rules of coeff, each dropped on one side only.
    "leg-sign-dropped-in-uq": (
        partial(_drop_leg_sign, on_uq_side=True), VERIFY,
        {"antipode-axiom-vector"}),
    # Weak spot: `induce` at (1|1) through (2|2), k = 2 and 3, cannot see
    # a dropped coordinate leg sign, although its translations pair the
    # coordinate coproduct.
    "leg-sign-dropped-in-coords": (
        partial(_drop_leg_sign, on_uq_side=False), COORDS + ["star"],
        {"star-coproduct-type-1", "star-coproduct-type-2"}),
    "reversal-sign-dropped-in-uq/verify": (
        partial(_drop_reversal_sign, on_uq_side=True), VERIFY,
        {"antipode-axiom-vector"}),
    "reversal-sign-dropped-in-uq/coords-antipode": (
        partial(_drop_reversal_sign, on_uq_side=True), COORDS + ["antipode"],
        {"antipode-dual-to-enveloping"}),
    "reversal-sign-dropped-in-coords": (
        partial(_drop_reversal_sign, on_uq_side=False),
        COORDS + ["antipode"], {"antipode-dual-to-enveloping"}),
}


def _report(capsys, monkeypatch, argv):
    _clear_caches()
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _checks(report):
    return {c["name"]: c for s in report["suites"] for c in s["checks"]}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(capsys, monkeypatch, name):
    plant, argv, must_fail = MUTANTS[name]
    code, report = _report(capsys, monkeypatch, argv)
    assert code == 0
    assert all(c["ok"] for c in _checks(report).values())
    plant(monkeypatch)
    code, report = _report(capsys, monkeypatch, argv)
    checks = _checks(report)
    assert code == 1
    assert report["ok"] is False
    assert {n for n in must_fail if checks[n]["ok"] is False} == must_fail


def test_antipode_mutant_names_its_witness(capsys, monkeypatch):
    """S(E_12) with the wrong sign.  The antipode axiom for E_12 is
    S(E_12) X + E_12 = 0, where E_12 is the term of 1 (x) E_12 in the
    coproduct; flipping the sign of S(E_12) leaves 2 E_12, which is 2 at
    (0, 1) in the vector module.  Every probe before E_12 is a Cartan
    word, which the mutant does not touch."""
    _flip_antipode_sign_of_e12(monkeypatch)
    _, report = _report(capsys, monkeypatch, VERIFY)
    check = _checks(report)["antipode-axiom-vector"]
    assert check["witness"] == {"probe": "E[1,2]", "entry": [0, 1],
                                "residual": "2"}
    probes = probe_monomials(GradingContext(2, 1), 2)
    assert all(g[0] != "E" for w in probes[:probes.index((E12,))]
               for g in w)


@pytest.mark.parametrize("plant, name", [
    (_sign_on_e12_only, "star-involutive-type-1"),
    (_sign_on_e12_only, "star-involutive-type-2"),
    (_antipode_of_e12_without_cartan, "antipode-squared-vector"),
    (_antipode_of_e12_without_cartan, "antipode-squared-dual"),
])
def test_failed_probe_loop_names_a_witness(capsys, monkeypatch, plant, name):
    plant(monkeypatch)
    _, report = _report(capsys, monkeypatch, VERIFY)
    check = _checks(report)[name]
    assert check["ok"] is False
    witness = check["witness"]
    assert set(witness) == {"probe", "entry", "residual"}
    assert witness["probe"] == "E[1,2]"
    assert len(witness["entry"]) == 2
    assert witness["residual"] != "0"


def test_passing_probe_loops_carry_no_witness(capsys, monkeypatch):
    _, report = _report(capsys, monkeypatch, VERIFY)
    assert not any("witness" in c for c in _checks(report).values())


def test_intertwiner_mutant_names_its_witness(capsys, monkeypatch):
    """At (2|1) the flipped coefficient is that of e_12 (x) e_21, so R
    loses 2 c D with c = q - q^{-1} and D = e_12 (x) e_21, which sends
    v_2 (x) v_1 (index 3) to v_1 (x) v_2 (index 1).  The Cartan
    generators come first and commute with D, which keeps the weight.
    For E_12, Delta = E_12 (x) K_1 K_2^{-1} + 1 (x) E_12, so the
    difference of the sides is 2 c (Delta'(E_12) D - D Delta(E_12)).
    D Delta(E_12) lives in row 1.  Delta'(E_12) D sends v_2 (x) v_1 to
    K_1 K_2^{-1} v_1 (x) E_12 v_2 = q v_1 (x) v_1 (index 0).  So the
    smallest entry is (0, 3), and the residual is 2 c q = 2 q^2 - 2."""
    _flip_first_off_diagonal(monkeypatch)
    _, report = _report(capsys, monkeypatch, RMATRIX)
    check = _checks(report)["coproduct-intertwiner"]
    assert check["witness"] == {"generator": "E[1,2]", "entry": [0, 3],
                                "residual": "2*q^2 - 2"}


RMATRIX_WITNESSES = [
    ("r-element-off-diagonal-flipped", "coproduct-intertwiner",
     {"generator", "entry", "residual"}),
    ("r-element-off-diagonal-flipped", "braid-relation",
     {"entry", "residual"}),
    ("r-element-off-diagonal-flipped", "exchange-identity",
     {"probe", "entry", "residual"}),
    ("graded-flip-koszul-sign-dropped", "braid-relation",
     {"entry", "residual"}),
]


@pytest.mark.parametrize("mutant, name, fields", RMATRIX_WITNESSES,
                         ids=["%s/%s" % row[:2] for row in RMATRIX_WITNESSES])
def test_failed_rmatrix_check_names_a_witness(capsys, monkeypatch, mutant,
                                              name, fields):
    plant, argv, _ = MUTANTS[mutant]
    plant(monkeypatch)
    _, report = _report(capsys, monkeypatch, argv)
    check = _checks(report)[name]
    assert check["ok"] is False
    witness = check["witness"]
    assert set(witness) == fields
    assert witness["residual"] != "0"
    # A (row, col) of a map, or the (i, j, k, l) of R T1 T2 - T2 T1 R.
    assert len(witness["entry"]) == (4 if name == "exchange-identity" else 2)


def test_failed_relations_check_names_the_first_relation(capsys,
                                                         monkeypatch):
    """defining-relations-dual names the first defining relation that
    does not vanish in the dual module."""
    _flip_antipode_sign_of_e12(monkeypatch)
    _, report = _report(capsys, monkeypatch, VERIFY)
    check = _checks(report)["defining-relations-dual"]
    dual = reps.profile_rep(GradingContext(2, 1), (True,))
    results = reps.check_relations(dual)
    assert check["witness"] == {
        "relation": next(name for name, ok in results if not ok)}
    assert check["relations"] == len(results)


# ---------------------------------------------------------------------------
# Guard: every check the reports emit is earned by some row, or says why not.
# ---------------------------------------------------------------------------

AT_2_1 = ["--m", "2", "--n", "1"]
REPORTS = [
    VERIFY,
    ["decompose"] + AT_2_1 + ["--word", "E", "--power", "2"],
    ["decompose"] + AT_2_1 + ["--word", "Ed", "--power", "2"],
    *(["rmatrix"] + AT_2_1 + ["--kind", kind]
      for kind in ("pp", "bb", "mixed")),
    *(COORDS + [check] for check in ("antipode", "star", "peterweyl")),
    INDUCE + ["bar"],
    ["induce"] + AT_2_1 + ["--k", "3", "--side", "unbar"],
    ["normalform"] + AT_2_1 + ["zb[2]*z[1]"],
]

UNPLANTED = ("no row plants a defect in what it reads: the vector module, "
             "the coproduct of a generator or the defining relations")
DERIVED = ("true whenever the report is written: reps.decompose raises "
           "first, reported as summands-certified (ROADMAP item 9)")
VACUOUS = ("compares 0 = 0 or 1 = 1 at (2|1), k = 2 and 3 (ROADMAP "
           "item 3)")
INDUCED = ("no row plants a defect that keeps the induced module's "
           "relations and weights but changes its span or its summands")

UNEARNED = {
    "coassociativity": UNPLANTED,
    "counit-axiom": UNPLANTED,
    "defining-relations-vector": UNPLANTED,
    "defining-relations-vector(x)vector": UNPLANTED,
    "antipode-squared-weight-ratio": ("S^2 applies a coordinate sign "
                                      "twice, and it squares away"),
    "matrix-coefficients-independent": ("matrix_coefficients folds in the "
                                        "layout sign that the pairing "
                                        "takes out again"),
    "dimensions-sum": DERIVED,
    "summands-nonempty": DERIVED,
    "span-stable": ("false only when build_induced raises an error other "
                    "than a relation or weight error; no row plants one"),
    "dimension": INDUCED,
    "highest-weight": INDUCED,
    "irreducible": INDUCED,
    "reciprocity-trivial": VACUOUS,
    "reciprocity-vector": VACUOUS,
    "round-trip": ("no row plants a defect in the normal-form parser or "
                   "formatter"),
}


# Must-fail checks that report a bare false, with the reason.
COORDS_BARE = ("a coords check: its witness waits for the next step of "
               "ROADMAP item 12")
UNITARY_BARE = ("reports the star types and the positivity that make it, "
                "not where adjointness fails")
BARE = {
    "unitary-vector": UNITARY_BARE,
    "unitary-dual": UNITARY_BARE,
    "antipode-dual-to-enveloping": COORDS_BARE,
    "star-coproduct-type-1": COORDS_BARE,
    "star-coproduct-type-2": COORDS_BARE,
    "defining-relations": ("an induce check: its error message names "
                           "every relation the induced module violates"),
}


def test_every_failing_mutant_check_names_a_witness(capsys, monkeypatch):
    """Every must-fail check of every row carries a witness under its
    mutant, or is in BARE with the reason it does not."""
    bare = set()
    witnessed = set()
    for plant, argv, must_fail in MUTANTS.values():
        with monkeypatch.context() as m:
            plant(m)
            _, report = _report(capsys, m, argv)
        checks = _checks(report)
        for name in must_fail:
            (witnessed if "witness" in checks[name] else bare).add(name)
    assert sorted(bare - set(BARE)) == [], "bare, unlisted"
    assert sorted(set(BARE) & witnessed) == [], "listed, now witnessed"
    assert sorted(set(BARE) - bare) == [], "listed, never failed"


def test_every_report_check_is_earned_or_listed(capsys, monkeypatch):
    emitted = set()
    for argv in REPORTS:
        _, report = _report(capsys, monkeypatch, argv)
        emitted |= set(_checks(report))
    earned = set().union(*(must_fail for _, _, must_fail in MUTANTS.values()))
    assert sorted(earned - emitted) == [], "earned, not emitted"
    assert sorted(emitted - earned - set(UNEARNED)) == [], "unearned, unlisted"
    assert sorted(set(UNEARNED) & earned) == [], "listed, now earned"
    assert sorted(set(UNEARNED) - emitted) == [], "listed, not emitted"
