"""Command-line contract: deterministic JSON reports, exit codes, the
expression parser, and the normal-form printer."""

import importlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from glq.cli import main
from glq.coeff import _POLY_ONE, ONE, Q, RatFunc, _canon, _make
from glq.graded import GradingContext
from glq import parser
from glq.parser import (
    ParseError,
    format_normal_form,
    parse_coords,
    parse_scalar,
    parse_superspace,
    parse_uq,
)
from glq.superspace import SuperspaceElement, normal_form, z_, zb_
from glq.uq import UqExpression, gen_E, gen_K


# The sources of this checkout, for the jobs run in a fresh interpreter.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, json.loads(out)


def _checked_oracle(value, at, words=None):
    """parser._checked as it was before it skipped the polynomial
    denominator and read an int without the Fraction interface: every
    exponent, numerator and denominator of both dicts is compared."""
    limit = sys.get_int_max_str_digits()
    if limit:
        bound = 10 ** limit
        terms = {(): value} if isinstance(value, RatFunc) else value.terms
        for x in [terms[w] for w in words or terms if w in terms]:
            for part in (x.coeffs, x.den):
                for e, c in part.items():
                    if not (-bound < e < bound and c.denominator < bound
                            and -bound < c.numerator < bound):
                        raise ParseError(parser._TOO_LONG % limit, at)
    return value


# The smallest digit limit, and integers just below, at and past its
# bound 10^L, with small ones between.
_LIMIT = 640
_BOUND = 10 ** _LIMIT
_NEAR = st.sampled_from([_BOUND - 1, _BOUND, _BOUND + 1]) | st.integers(1, 3)
_SIGNED = st.builds(lambda k, s: s * k, _NEAR, st.sampled_from([1, -1]))
_RATIONAL = _SIGNED | st.builds(lambda a, b: _canon(Fraction(a, b)), _SIGNED,
                                _NEAR)
_POLY = st.dictionaries(_SIGNED | st.integers(-2, 2), _RATIONAL,
                        min_size=1, max_size=3)
_VALUE = st.builds(_make, _POLY,
                   st.just(_POLY_ONE) | _POLY.filter(lambda d: len(d) > 1))
_WORDS = [(), (z_(1),), (zb_(2), z_(1)), (z_(2), z_(2))]
_ELEMENT = st.builds(
    lambda values: SuperspaceElement(GradingContext(1, 1),
                                     dict(zip(_WORDS, values))),
    st.lists(_VALUE, min_size=1, max_size=len(_WORDS)))


@given(value=_VALUE | _ELEMENT,
       words=st.none() | st.lists(st.sampled_from(_WORDS), unique=True))
@example(value=_make({_BOUND - 1: -(_BOUND - 1)}, {0: 1, 1: _BOUND - 1}),
         words=None)
@example(value=_make({1: Fraction(1, _BOUND)}), words=None)
@example(value=_make({1: 1}, {0: 1, -_BOUND: 2}), words=None)
@example(value=_make({_BOUND: 1}), words=None)
@example(value=SuperspaceElement(GradingContext(1, 1), {
    (z_(1),): _make({0: _BOUND}), (): _make({0: 1})}), words=[(), (z_(2),)])
def test_checked_agrees_with_the_full_check(value, words):
    """Under the smallest digit limit, parser._checked accepts or rejects
    exactly what the check of every part of every coefficient does:
    ints, Fractions, polynomial and other denominators, and elements
    checked at some of their words."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_LIMIT)
    outcomes = []
    try:
        for check in (parser._checked, _checked_oracle):
            try:
                outcomes.append(check(value, 7, words) is value)
            except ParseError as exc:
                outcomes.append((exc.message, exc.position))
    finally:
        sys.set_int_max_str_digits(limit)
    assert outcomes[0] == outcomes[1]


class TestParser:
    def test_scalar_arithmetic(self):
        assert parse_scalar("q^2") == Q * Q
        assert parse_scalar("(q + q^-1) * q") == Q * Q + ONE
        assert parse_scalar("-3") == -(ONE + ONE + ONE)
        assert parse_scalar("q / q") == ONE

    POWERS = [("q^-3", "1/(q*q*q)"),
              ("(-q)^5", "(-q)*(-q)*(-q)*(-q)*(-q)"),
              ("(-1)^4", "(-1)*(-1)*(-1)*(-1)"),
              ("-q^2", "-(q*q)"),
              ("q^0", "1"),
              ("(q^2)^-2", "1/(q*q*q*q)"),
              ("(2*q)^3", "(2*q)*(2*q)*(2*q)")]

    @pytest.mark.parametrize("text,spelled_out", POWERS)
    def test_powers_equal_their_spelled_out_products(self, text,
                                                     spelled_out):
        """Each power equals the product written out, in the stored form
        of a Laurent polynomial."""
        got = parse_scalar(text)
        want = parse_scalar(spelled_out)
        assert got == want and str(got) == str(want)
        assert got.den is want.den is parser._POLY_ONE
        assert all(type(c) is int for c in got.coeffs.values())

    def test_only_a_non_unit_base_takes_the_dense_power_path(self,
                                                             monkeypatch):
        """A unit base +-q^e is powered in one step; (2*q)^3 still goes
        through the dense-power pre-check and the squaring loop."""
        dense = []
        monkeypatch.setattr(parser, "_reject_dense_power",
                            lambda base, *args: dense.append(str(base)))
        for text, _ in self.POWERS:
            parse_scalar(text)
        assert dense == ["2*q"]

    def test_digit_limit_still_bounds_a_unit_power(self):
        """At the smallest digit limit, q^(10^640 - 1) is a valid power;
        (q^2)^(10^640 - 1) has an exponent of 641 digits and is rejected
        at its '^', and a 641-digit exponent at its first digit."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        nines = "9" * 640
        try:
            assert parse_scalar("q^" + nines) == parse_scalar(
                "q^%s * q^-%s * q^%s" % (nines, nines, nines))
            for text, position in (("(q^2)^" + nines, 5),
                                   ("(-q^-2)^-" + nines, 7),
                                   ("q^" + nines + "9", 2)):
                with pytest.raises(ParseError) as info:
                    parse_scalar(text)
                assert (info.value.message, info.value.position) == (
                    "an integer has more than 640 digits", position)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_uq_expression(self):
        ctx = GradingContext(1, 1)
        parsed = parse_uq(ctx, "K[1]*E[1,2] - q * E[1,2]*K[1]")
        manual = (UqExpression.from_word(ctx, (gen_K(1), gen_E(1, 2)))
                  - UqExpression.from_word(
                      ctx, (gen_E(1, 2), gen_K(1))).scale(Q))
        assert parsed.terms == manual.terms

    def test_coords_expression(self):
        ctx = GradingContext(1, 1)
        parsed = parse_coords(ctx, "t[1,2] tb[2,1]")
        ((word, coeff),) = parsed.terms.items()
        assert coeff == ONE
        assert [(l.barred, l.row, l.col) for l in word] == [
            (False, 1, 2), (True, 2, 1)]

    def test_superspace_expression(self):
        ctx = GradingContext(1, 1)
        parsed = parse_superspace(ctx, "2 * z[1] zb[2] + Z[0;1]")
        expected = (SuperspaceElement.from_word(
            ctx, (z_(1), zb_(2))).scale(ONE + ONE)
            + SuperspaceElement.from_word(ctx, (z_(2),)))
        assert parsed == expected

    @pytest.mark.parametrize("text", [
        "z[1] - z[1]",
        "z[1] + zb[2] - z[1] - zb[2]",
        "2 + q*z[1] - 2 - z[1]*q",
        "(z[1] + z[2]) - (z[2] + z[1])",
    ])
    def test_sum_that_cancels_is_zero(self, capsys, text):
        ctx = GradingContext(1, 1)
        parsed = parse_superspace(ctx, text)
        assert parsed.is_zero() and parsed.terms == {}
        code, _, report = run_cli(capsys, ["normalform", text])
        assert code == 0 and report["suites"][0]["normal_form"] == "0"

    def test_sum_does_not_change_its_terms(self):
        """Adding in place must not reach into an element that the sum's
        first term was built from: the sum of a product of two sums and
        a letter, and of a power of a sum and a letter."""
        ctx = GradingContext(2, 1)
        z1 = SuperspaceElement.from_word(ctx, (z_(1),))
        z2 = SuperspaceElement.from_word(ctx, (z_(2),))
        want = (z1 + z2) * (z1 + z2) + z1
        for text in ("(z[1]+z[2])*(z[1]+z[2]) + z[1]",
                     "(z[1]+z[2])^2 + z[1]"):
            got = parse_superspace(ctx, text)
            assert list(got.terms.items()) == list(want.terms.items())
        assert list(want.terms) == [(z_(1), z_(1)), (z_(1), z_(2)),
                                    (z_(2), z_(1)), (z_(2), z_(2)),
                                    (z_(1),)]

    def test_long_sum_equals_its_pairwise_sum(self):
        """A sum of 300 terms parses to the element that adding its terms
        two at a time gives, in the same term order."""
        ctx = GradingContext(2, 1)
        rng = random.Random(2301)
        terms = []
        for _ in range(300):
            letters = ["%s[%d]" % (rng.choice(("z", "zb")), rng.randint(1, 3))
                       for _ in range(rng.randint(0, 3))]
            terms.append("*".join([rng.choice(("1", "2", "q", "q^-1"))]
                                  + letters))
        signs = [rng.choice("+-") for _ in terms]
        text = terms[0] + "".join(" %s %s" % (sign, term) for sign, term
                                  in zip(signs[1:], terms[1:]))
        want = parse_superspace(ctx, terms[0])
        for sign, term in zip(signs[1:], terms[1:]):
            part = parse_superspace(ctx, term)
            want = want + part if sign == "+" else want - part
        got = parse_superspace(ctx, text)
        assert list(got.terms.items()) == list(want.terms.items())
        assert len(got.terms) > 50

    def test_digit_limit_in_a_long_sum_names_its_operator(self):
        """A coefficient that outgrows the digit limit in the middle of a
        long sum is reported at the operator that made it grow."""
        ctx = GradingContext(1, 1)
        limit = sys.get_int_max_str_digits()
        head = " + ".join("z[%d]" % (i % 2 + 1) for i in range(200))
        big = "9" * limit + "*z[1]"
        text = head + " + " + big + " + zb[1] + z[2]"
        with pytest.raises(ParseError) as info:
            parse_superspace(ctx, text)
        assert info.value.position == len(head) + 1
        assert info.value.message == "an integer has more than %d digits" % (
            limit)

    def test_multi_index_orders_barred_descending(self):
        ctx = GradingContext(2, 1)
        parsed = parse_superspace(ctx, "Zb[1,1;1]")
        ((word, _),) = parsed.terms.items()
        assert [l.index for l in word] == [3, 2, 1]

    # The rows read at another size than (1|1): malformed index groups of
    # Z and Zb with two indices in a block.
    ERROR_SIZES = {"Z[1,;0]": (2, 2), "Z[1,1;0,]": (2, 2),
                   "Zb[-;0]": (2, 2), "Z[1 1;0]": (2, 2)}

    @pytest.mark.parametrize("text,position", [
        ("z[9]", 2),
        ("K[1]*z[1]", 5),
        ("E[1,1]", 4),
        ("q^", 2),
        ("(q", 2),
        ("zb[1", 4),
        ("Z[2;0]", 2),
        ("t[1,2] / t[1,2]", 7),
        ("z[1]^-1", 4),
        ("(q-q)^-1", 5),
        ("z[1]/0", 4),
        ("z[1,2]", 0),
        ("t[1]", 0),
        ("z[1]/(z[1]-z[1]+2)", 4),
        ("Kinvx[1]", 0),
        ("z\u00e9[1]", 0),
        ("z\u00b2[1]", 0),
        ("qq", 0),
        ("Z[1,;0]", 4),
        ("Z[1,1;0,]", 8),
        ("Zb[-;0]", 4),
        ("Z[1 1;0]", 4),
    ])
    def test_errors_carry_position(self, text, position):
        ctx = GradingContext(*self.ERROR_SIZES.get(text, (1, 1)))
        with pytest.raises(ParseError) as info:
            if "K" in text or "E" in text:
                parse_uq(ctx, text)
            elif "t[" in text:
                parse_coords(ctx, text)
            else:
                parse_superspace(ctx, text)
        assert info.value.position == position

    @pytest.mark.parametrize("text,position", [
        ("z[1]^\u00b2", 5), ("z[\u0661]", 2), ("\u0663*z[1]", 0)],
        ids=["superscript-exponent", "arabic-index", "arabic-scalar"])
    def test_only_ascii_digits_are_numbers(self, capsys, text, position):
        """str.isdigit holds for a superscript two and for Arabic-Indic
        digits, which int() rejects or reads as 1 and 3; each is bad
        input at its offset, not a crash or another number."""
        with pytest.raises(ParseError) as info:
            parse_superspace(GradingContext(1, 1), text)
        assert str(info.value) == ("unexpected character %r (at position "
                                   "%d)" % (text[position], position))
        code, _, report = run_cli(capsys, ["normalform", text])
        assert code == 2
        assert report["error"]["position"] == position

    @pytest.mark.parametrize("text", ["Kinvx[1]", "z\u00e9[1]", "z\u00b2[1]",
                                      "qq"])
    def test_a_name_is_its_whole_alphanumeric_run(self, text):
        """A letter name followed by a letter or digit, a non-ASCII one
        included, is no name: the error names its first letter."""
        with pytest.raises(ParseError) as info:
            parse_superspace(GradingContext(1, 1), text)
        assert str(info.value) == ("unknown name starting with %r (at "
                                   "position 0)" % text[0])

    def test_empty_index_group_needs_an_empty_block(self):
        """An empty group of Z[...] is read only when its block has size
        0, so Z[;1] at (1|1) still misses an index."""
        with pytest.raises(ParseError) as info:
            parse_superspace(GradingContext(1, 1), "Z[;1]")
        assert str(info.value) == "expected an index (at position 2)"
        assert info.value.position == 2

    def test_mixing_algebras_rejected(self):
        ctx = GradingContext(1, 1)
        with pytest.raises(ParseError):
            parse_uq(ctx, "K[1] + t[1,1]")
        with pytest.raises(ParseError):
            parse_scalar("z[1]")

    @pytest.mark.parametrize("parse,text,name,at", [
        (parse_superspace, "z[1] + t[1,1]", "t", 7),
        (parse_superspace, "2 K[1]", "K", 2),
        (parse_uq, "K[1] * zb[2]", "zb", 7),
        (parse_coords, "t[1,2] E[1,2]", "E", 7),
        (parse_coords, "(q + Z[1;0])", "Z", 5),
    ], ids=["superspace-t", "superspace-K", "uq-zb", "coords-E", "coords-Z"])
    def test_letter_of_another_algebra_names_its_offset(self, parse, text,
                                                        name, at):
        with pytest.raises(ParseError) as info:
            parse(GradingContext(1, 1), text)
        assert str(info.value) == ("letter %r not allowed here (at position "
                                   "%d)" % (name, at))


class TestNormalFormPrinter:
    def test_frozen_example(self):
        ctx = GradingContext(1, 1)
        nf, _ = normal_form(ctx, parse_superspace(ctx, "zb[1]*z[1]"))
        assert format_normal_form(ctx, nf) == "-q^2 * Z[1;0] Zb[1;0]"

    def test_zero_and_scalar(self):
        ctx = GradingContext(1, 1)
        assert format_normal_form(ctx, SuperspaceElement.zero(ctx)) == "0"
        assert format_normal_form(
            ctx, SuperspaceElement.one(ctx).scale(Q)) == "q"

    @pytest.mark.parametrize("text", [
        "zb[1]*z[1]",
        "zb[2]*z[2]",
        "z[1]*z[2]*zb[1]",
        "zb[1]*zb[2]*z[1]*z[2]",
        "3*z[2] - q^-2 * zb[1]",
    ])
    def test_round_trip(self, text):
        ctx = GradingContext(1, 1)
        nf, _ = normal_form(ctx, parse_superspace(ctx, text))
        rendered = format_normal_form(ctx, nf)
        assert parse_superspace(ctx, rendered) == nf

    def test_round_trip_2_1(self):
        ctx = GradingContext(2, 1)
        nf, _ = normal_form(
            ctx, parse_superspace(ctx, "zb[3]*z[3]*zb[2]*z[1]"))
        rendered = format_normal_form(ctx, nf)
        assert parse_superspace(ctx, rendered) == nf

    def test_reparse_builds_each_monomial_word_once(self, monkeypatch):
        """Re-parsing the printed normal forms of the 12 rewrite jobs in
        bench/golden.json builds the word of each distinct Z/Zb monomial
        once per size: 233 words, where one per occurrence made 3065."""
        golden = json.loads((Path(_SRC).parent / "bench"
                             / "golden.json").read_text())
        printed = []
        for key in sorted(golden):
            if key.startswith("normalform "):
                _, _, m, _, n, text = key.split(" ", 5)
                ctx = GradingContext(int(m), int(n))
                nf, _ = normal_form(ctx, parse_superspace(ctx, text))
                printed.append((ctx, format_normal_form(ctx, nf)))
        assert len(printed) == 12
        built = Counter()
        build = parser.word_of_multi_index

        def counted(ctx, plain, barred):
            built[ctx.m, ctx.n, plain, barred] += 1
            return build(ctx, plain, barred)

        parser._monomial_word.cache_clear()
        monkeypatch.setattr(parser, "word_of_multi_index", counted)
        for ctx, text in printed:
            parse_superspace(ctx, text)
        assert set(built.values()) == {1}
        assert len(built) == 233


SMOKE_COMMANDS = [
    ["verify", "--m", "1", "--n", "1"],
    ["decompose", "--m", "1", "--n", "1", "--word", "E", "--power", "2"],
    ["decompose", "--m", "2", "--n", "1", "--word", "Ed", "--power", "2"],
    ["rmatrix", "--kind", "pp"],
    ["rmatrix", "--kind", "bb"],
    ["rmatrix", "--kind", "mixed"],
    ["coords", "--check", "antipode"],
    ["coords", "--check", "star"],
    ["coords", "--check", "peterweyl"],
    ["normalform", "zb[1]*z[1]"],
    ["induce", "--k", "1", "--side", "bar"],
    ["induce", "--k", "1", "--side", "unbar"],
]


FRONTIER_COMMANDS = [
    ["rmatrix", "--m", "3", "--n", "2", "--kind", "pp"],
    ["rmatrix", "--m", "3", "--n", "2", "--kind", "bb"],
    ["rmatrix", "--m", "3", "--n", "2", "--kind", "mixed"],
    ["verify", "--m", "3", "--n", "3"],
]


def _check_names(report):
    return [(s["name"], [c["name"] for c in s["checks"]])
            for s in report["suites"]]


class TestReports:
    @pytest.mark.parametrize("argv", SMOKE_COMMANDS,
                             ids=lambda a: "-".join(a[:3]))
    def test_all_subcommands_pass(self, capsys, argv):
        code, out, report = run_cli(capsys, argv)
        assert code == 0
        assert report["ok"] is True
        assert report["schema"] == "glq-report/1"
        assert report["command"] == argv[0]
        assert report["suites"]
        for suite in report["suites"]:
            assert suite["ok"] is True

    @pytest.mark.parametrize("argv", FRONTIER_COMMANDS,
                             ids=lambda a: "-".join(a[:1] + a[2:5:2] + a[6:]))
    def test_frontier_sizes_pass(self, capsys, argv):
        # The frontier run has the same suites and checks as the desk
        # size (1|1), and every one of them passes.
        code, _, report = run_cli(capsys, argv)
        _, _, desk = run_cli(capsys, [argv[0]] + argv[5:])
        assert code == 0 and report["ok"] is True
        assert _check_names(report) == _check_names(desk)
        for suite in report["suites"]:
            assert suite["ok"] is True
            assert all(c["ok"] is True for c in suite["checks"])

    def test_output_is_byte_deterministic(self, capsys):
        argv = ["verify", "--m", "1", "--n", "1"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_report_independent_of_hash_seed(self, capsys):
        # Set and dict iteration over hashed keys must not reach a report:
        # fresh interpreters under two hash seeds print the same bytes.
        argv = ["induce", "--k", "1", "--side", "bar"]
        _, in_process, _ = run_cli(capsys, argv)
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "glq.cli"] + argv, capture_output=True,
                text=True, env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == 0
            assert proc.stdout == in_process

    def test_keys_are_sorted(self, capsys):
        _, out, report = run_cli(capsys, ["rmatrix", "--kind", "pp"])
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_normalform_report_fields(self, capsys):
        code, _, report = run_cli(capsys, ["normalform", "zb[1]*z[1]"])
        assert code == 0
        suite = report["suites"][0]
        assert suite["normal_form"] == "-q^2 * Z[1;0] Zb[1;0]"
        assert suite["input"] == "zb[1]*z[1]"
        assert suite["steps"] >= 1
        assert suite["checks"][0]["name"] == "round-trip"

    @pytest.mark.parametrize("m,n,text,rendered", [
        (0, 1, "z[1]", "Z[;1]"),
        (1, 0, "zb[1]", "Zb[1;]"),
        (0, 2, "z[1]*zb[2]*z[2]", "Z[;1,0] - Z[;2,0] Zb[;1,0]"),
        (2, 0, "zb[1]*z[1]*z[2]", "q^3 * Z[1,1;] Zb[1,0;]"),
    ])
    def test_normalform_round_trips_with_one_block(self, capsys, m, n, text,
                                                   rendered):
        code, _, report = run_cli(
            capsys, ["normalform", "--m", str(m), "--n", str(n), text])
        assert code == 0 and report["ok"] is True
        suite = report["suites"][0]
        assert suite["normal_form"] == rendered
        assert suite["checks"] == [{"name": "round-trip", "ok": True}]

    def test_parse_error_reported_with_position(self, capsys):
        code, _, report = run_cli(capsys, ["normalform", "zb[1"])
        assert code == 2
        assert report["ok"] is False
        assert report["error"]["position"] == 4
        assert report["suites"] == []

    @pytest.mark.parametrize("text,rendered", [
        ("q^99999999999999*z[1]", "q^99999999999999 * Z[1;0]"),
        ("2^10000*z[1]", "%d * Z[1;0]" % 2 ** 10000),
        ("(1/2)^10000*z[1]", "1/%d * Z[1;0]" % 2 ** 10000),
    ], ids=["q-power", "2-power", "half-power"])
    def test_large_scalar_powers_print(self, capsys, text, rendered):
        """A scalar power is computed by squaring, not one product per
        unit of exponent, and one that str() can print is reported as is."""
        code, _, report = run_cli(capsys, ["normalform", text])
        assert code == 0
        assert report["suites"][0]["normal_form"] == rendered

    @pytest.mark.parametrize("m,n,rendered", [
        (1, 1, "0"), (0, 2, "Z[;300000,0]")])
    def test_power_of_a_one_term_element_is_squared(self, capsys, m, n,
                                                    rendered):
        """A one-term element has one term order, so its power is
        computed by squaring.  One factor at a time would copy the
        growing word once per unit of exponent, in quadratic time."""
        start = time.perf_counter()
        code, _, report = run_cli(
            capsys, ["normalform", "--m", str(m), "--n", str(n),
                     "z[1]^300000"])
        assert time.perf_counter() - start < 10
        assert code == 0 and report["ok"] is True
        assert report["suites"][0]["normal_form"] == rendered

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (0, 2)])
    @pytest.mark.parametrize("base,power", [
        ("z[1]", 50), ("(q*z[2])", 7), ("(2*zb[1])", 5)])
    def test_power_matches_the_written_out_product(self, capsys, m, n,
                                                   base, power):
        # Squaring and the written-out product reach normal_form with
        # the same element, so the form and the step count agree.
        reports = [run_cli(capsys, ["normalform", "--m", str(m), "--n",
                                    str(n), text])[2]["suites"][0]
                   for text in ("%s^%d" % (base, power),
                                "*".join([base] * power))]
        for r in reports:
            del r["input"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("text,position", [
        ("2^20000*z[1]", 1),
        ("2^99999999*z[1]", 1),
        ("z[1]*(1/2)^20000", 10),
        ("(2^8000)*(2^8000)*z[1]", 8),
        ("(2^8000*z[1])*2^8000", 13),
        ("z[1]*%s" % ("9" * 4400), 5),
        ("%s+1" % ("9" * 4300), 4300),
    ], ids=["power", "huge-power", "power-of-fraction", "product",
            "element-product", "literal", "sum"])
    def test_unprintable_scalar_is_bad_input(self, capsys, text, position):
        """A literal, sum, product or power whose integers str() would
        refuse to print is rejected with the offset of the literal or
        operator, not a crash while printing."""
        code, _, report = run_cli(capsys, ["normalform", text])
        assert code == 2
        assert report["error"]["position"] == position
        assert report["error"]["message"].endswith(
            "more than %d digits" % sys.get_int_max_str_digits())

    @pytest.mark.parametrize("text,position", [
        ("(q+1)^20000*z[1]", 5), ("((q+1)*z[1])^20000", 12)],
        ids=["scalar", "one-term-element"])
    def test_unprintable_dense_power_is_rejected_first(self, capsys, text,
                                                       position):
        """A dense polynomial power whose coefficients cannot be printed
        is rejected at its caret before any square is computed, with
        the report that the squaring loop would reach much later."""
        start = time.perf_counter()
        code, _, report = run_cli(capsys, ["normalform", text])
        assert time.perf_counter() - start < 10
        assert code == 2
        assert report["error"] == {
            "message": "an integer has more than %d digits"
            % sys.get_int_max_str_digits(), "position": position}

    @pytest.mark.parametrize("text,steps", [
        ("(z[1]+z[2])^16", 65536), ("z[1]^10000", 1)],
        ids=["power-of-a-sum", "power-of-a-letter"])
    def test_large_normalform_input_finishes(self, capsys, text, steps):
        """Inputs of ROADMAP item 6 whose cost grows with the exponent,
        each under a time bound.  The 2^16 free words of the first are
        rewritten one by one (about 1 s here); the second is one word of
        10000 odd letters, which one step sends to 0.  Both letters are
        odd at (2|1), so both powers vanish."""
        start = time.perf_counter()
        code, _, report = run_cli(
            capsys, ["normalform", "--m", "2", "--n", "1", text])
        assert time.perf_counter() - start < 10
        assert code == 0 and report["ok"] is True
        suite = report["suites"][0]
        assert suite["normal_form"] == "0" and suite["steps"] == steps

    @pytest.mark.parametrize("m,n,text,position", [
        (1, 1, "z[1]^99999999999999999999", 4),
        (2, 1, "z[1]^99999999999999999999", 4),
        (2, 1, "(z[1]+zb[2])^99999999999999999999", 12),
        (2, 1, "zb[3]*(z[1]^700000)*z[2]^400000", 19),
        (1, 1, "Zb[0;99999999999]", 0),
    ], ids=["power-1-1", "power-2-1", "power-of-a-sum", "product",
            "monomial"])
    def test_word_past_the_budget_is_bad_input(self, m, n, text, position):
        """A power, product or Z/Zb monomial whose word would pass
        MAX_WORD_LENGTH letters is rejected at its operator (or letter)
        before it is built.  Each square of a one-term power doubles its
        word, so a parser without the budget grows memory without bound
        on the first rows: the job runs in a child with a time limit and
        a 1 GiB address-space limit."""
        proc = subprocess.run(
            [sys.executable, "-m", "glq.cli", "normalform", "--m", str(m),
             "--n", str(n), text], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, PYTHONPATH=_SRC),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (1 << 30, 1 << 30)))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["error"] == {
            "message": "a word has more than %d letters"
            % parser.MAX_WORD_LENGTH, "position": position}

    def test_word_at_the_budget_is_accepted(self, capsys):
        # z[2] is the even letter at (1|1), so its power is normal, and
        # the printed form parses back within the budget.
        power = "z[2]^%d" % parser.MAX_WORD_LENGTH
        code, _, report = run_cli(capsys, ["normalform", power])
        assert code == 0 and report["ok"] is True
        assert report["suites"][0]["normal_form"] == "Z[0;%d]" \
            % parser.MAX_WORD_LENGTH
        code, _, report = run_cli(capsys, ["normalform", power + "*z[2]"])
        assert code == 2
        assert report["error"]["position"] == len(power)

    def test_word_at_the_budget_is_not_cached(self):
        """Only short monomial words stay in the parser's cache, and only
        a bounded number of them: a budget-sized word is built afresh."""
        ctx = GradingContext(1, 1)
        parser._monomial_word.cache_clear()
        long = parse_superspace(ctx, "Z[0;%d]" % parser.MAX_WORD_LENGTH)
        assert parser._monomial_word.cache_info().currsize == 0
        assert long == parse_superspace(
            ctx, "z[2]^%d" % parser.MAX_WORD_LENGTH)
        short = "Z[1;%d]" % (parser._CACHED_WORD_LENGTH - 1)
        assert parse_superspace(ctx, short) == parse_superspace(ctx, short)
        info = parser._monomial_word.cache_info()
        assert (info.currsize, info.hits) == (1, 1)
        assert info.maxsize == parser._CACHED_WORDS

    @pytest.mark.parametrize("text", ["(9*q+9)^%d*z[1]",
                                      "((9*q+9)*z[1])^%d"],
                             ids=["scalar", "one-term-element"])
    def test_dense_power_precheck_changes_no_report(self, capsys,
                                                    monkeypatch, text):
        """At the smallest digit limit the pre-check rejects (9q+9)^k*z
        from the least k with 18^k > 10^640 (k+1).  On both sides of that
        k, the reports equal those of the squaring loop alone: a valid
        power, one the loop rejects, and two the pre-check rejects."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            least = next(k for k in itertools.count(2)
                         if 18 ** k > 10 ** 640 * (k + 1))
            jobs = [["normalform", text % k]
                    for k in range(least - 2, least + 2)]
            with pytest.raises(ParseError):
                parser._reject_dense_power(parse_scalar("9*q+9"), least, 0)
            parser._reject_dense_power(parse_scalar("9*q+9"), least - 1, 0)
            checked = [run_cli(capsys, argv)[:2] for argv in jobs]
            monkeypatch.setattr(parser, "_reject_dense_power",
                                lambda *args: None)
            looped = [run_cli(capsys, argv)[:2] for argv in jobs]
        finally:
            sys.set_int_max_str_digits(limit)
        assert checked == looped
        assert [code for code, _ in checked] == [0, 2, 2, 2]

    def test_unitary_failure_names_the_first_nonpositive_gram_entry(
            self, capsys):
        """At q0 = -2 a Gram entry q^-1 is -1/2: both unitary checks fail,
        each naming its first diagonal entry that is not positive."""
        code, _, report = run_cli(capsys, ["verify", "--q0", "-2",
                                           "--probe-degree", "1"])
        assert code == 1
        checks = {c["name"]: c for s in report["suites"] for c in s["checks"]}
        assert checks["unitary-vector"]["witness"] == {
            "gram-entry": [1, 1], "value": "-1/2"}
        assert checks["unitary-dual"]["witness"] == {
            "gram-entry": [0, 0], "value": "-1/2"}

    def test_injected_failure_flips_exit_code(self, capsys):
        argv = ["verify", "--m", "1", "--n", "1"]
        code, _, report = run_cli(capsys, argv)
        assert code == 0 and report["ok"] is True
        code, _, report = run_cli(capsys, argv + ["--inject-failure"])
        assert code == 1
        assert report["ok"] is False
        names = [s["name"] for s in report["suites"]]
        assert names[-1] == "injected-failure"
        assert all(s["ok"] for s in report["suites"][:-1])

    def test_decompose_lists_summands(self, capsys):
        _, _, report = run_cli(
            capsys,
            ["decompose", "--m", "2", "--n", "1", "--word", "E",
             "--power", "2"])
        suite = report["suites"][0]
        listed = [(s["dim"], tuple(s["highest_weight"]))
                  for s in suite["summands"]]
        assert listed == [(5, (2, 0, 0)), (4, (1, 1, 0))]

    def test_decompose_frontier_cube_at_3_2(self, capsys):
        # Counted by hand, not by the library: the super-symmetric cube
        # of V = C^(3|2) has 10 + 12 + 3 = 25 basis monomials (even
        # letters repeat, odd ones do not), the super-exterior cube
        # 1 + 6 + 9 + 4 = 20, and the rest of 5^3 = 125 is two copies of
        # the mixed-symmetry module, (125 - 25 - 20) / 2 = 40 each.
        code, _, report = run_cli(
            capsys,
            ["decompose", "--m", "3", "--n", "2", "--word", "E",
             "--power", "3"])
        assert code == 0 and report["ok"] is True
        suite = report["suites"][0]
        listed = [(s["dim"], tuple(s["highest_weight"]))
                  for s in suite["summands"]]
        assert listed == [(25, (3, 0, 0, 0, 0)), (40, (2, 1, 0, 0, 0)),
                          (40, (2, 1, 0, 0, 0)), (20, (1, 1, 1, 0, 0))]
        assert sum(dim for dim, _ in listed) == 125
        checks = {c["name"]: c for c in suite["checks"]}
        assert checks["dimensions-sum"] == {
            "name": "dimensions-sum", "ok": True, "total": 125}

    def test_decompose_frontier_fourth_power_at_3_2(self, capsys):
        # About a second here: one highest-weight line per summand
        # certifies the decomposition without ambient elimination.
        start = time.perf_counter()
        code, _, report = run_cli(
            capsys,
            ["decompose", "--m", "3", "--n", "2", "--word", "E",
             "--power", "4"])
        assert time.perf_counter() - start < 20
        assert code == 0 and report["ok"] is True
        suite, = report["suites"]
        assert all(c["ok"] is True for c in suite["checks"])
        assert len(suite["summands"]) == 10
        assert sum(s["dim"] for s in suite["summands"]) == 625

    def test_decompose_frontier_fourth_power_at_3_3(self, capsys):
        # All five partitions of 4 fit the (3|3)-hook, so the summands
        # are 1 + 3 + 2 + 3 + 1 = 10, over 6^4 = 1296 dimensions.
        start = time.perf_counter()
        code, _, report = run_cli(
            capsys,
            ["decompose", "--m", "3", "--n", "3", "--word", "E",
             "--power", "4"])
        assert time.perf_counter() - start < 20
        assert code == 0 and report["ok"] is True
        suite, = report["suites"]
        assert all(c["ok"] is True for c in suite["checks"])
        assert len(suite["summands"]) == 10
        assert sum(s["dim"] for s in suite["summands"]) == 1296

    def test_induce_reports_dimension(self, capsys):
        _, _, report = run_cli(
            capsys, ["induce", "--k", "2", "--side", "bar"])
        borel = report["suites"][0]
        by_name = {c["name"]: c for c in borel["checks"]}
        assert by_name["dimension"]["measured"] == 2
        assert by_name["highest-weight"]["measured"] == [0, -2]

    def test_induce_frontier_cube_at_3_3(self, capsys):
        # The module-algebra rule builds this module in about a second,
        # where the coproduct path alone takes 40-60 s.
        start = time.perf_counter()
        code, _, report = run_cli(
            capsys, ["induce", "--m", "3", "--n", "3", "--k", "4",
                     "--side", "bar"])
        assert time.perf_counter() - start < 20
        assert code == 0 and report["ok"] is True
        checks = [c for s in report["suites"] for c in s["checks"]]
        assert len(checks) == 7
        assert all(c["ok"] is True for c in checks)

    @pytest.mark.parametrize("side", ["bar", "unbar"])
    def test_induce_frontier_fourth_degree_at_4_4(self, capsys, side):
        # 35 + 80 + 60 + 16 + 1 = 192 monomials of degree 4 on either
        # side: the four letters of index <= m are odd and appear at most
        # once, the other four repeat freely.
        start = time.perf_counter()
        code, _, report = run_cli(
            capsys, ["induce", "--m", "4", "--n", "4", "--k", "4",
                     "--side", side])
        assert time.perf_counter() - start < 20
        assert code == 0 and report["ok"] is True
        checks = [c for s in report["suites"] for c in s["checks"]]
        assert all(c["ok"] is True for c in checks)
        by_name = {c["name"]: c for c in checks}
        assert by_name["dimension"]["measured"] == 192

    def test_induce_reports_a_relation_failure(self, capsys, monkeypatch):
        from glq import induction

        monkeypatch.setattr(induction, "check_relations",
                            lambda rep, relations: [("forced", False)])
        code, _, report = run_cli(
            capsys, ["induce", "--k", "1", "--side", "bar"])
        assert code == 1 and report["ok"] is False
        (borel,) = report["suites"]
        by_name = {c["name"]: c for c in borel["checks"]}
        assert by_name["span-stable"]["ok"] is True
        assert by_name["defining-relations"]["ok"] is False
        assert "forced" in by_name["defining-relations"]["error"]

    def test_induce_reports_an_action_leaving_the_span(self, capsys,
                                                        monkeypatch):
        from glq import induction

        full = induction.plain_monomials
        monkeypatch.setattr(induction, "plain_monomials",
                            lambda ctx, k: full(ctx, k)[:-1])
        code, _, report = run_cli(
            capsys, ["induce", "--k", "1", "--side", "bar"])
        assert code == 1 and report["ok"] is False
        (borel,) = report["suites"]
        by_name = {c["name"]: c for c in borel["checks"]}
        assert by_name["span-stable"]["ok"] is False
        assert "leaves the degree-1 span" in by_name["span-stable"]["error"]
        assert "defining-relations" not in by_name

    def test_induce_reports_a_cartan_mismatch(self, capsys, monkeypatch):
        # K_a built as K_a^{-1}: the weights read off K disagree with the
        # K_a^{-1} images, a failed check and not a crash.
        from glq import induction
        from glq.reps import Representation
        from glq.uq import gen_Kinv

        def k_inverted(ctx, space, images, name=""):
            images = dict(images)
            for a in range(1, ctx.N + 1):
                images[gen_K(a)] = images[gen_Kinv(a)]
            return Representation(ctx, space, images, name)

        monkeypatch.setattr(induction, "Representation", k_inverted)
        code, _, report = run_cli(
            capsys, ["induce", "--m", "2", "--n", "1", "--k", "2",
                     "--side", "bar"])
        assert code == 1 and report["ok"] is False
        (borel,) = report["suites"]
        assert [(c["name"], c["ok"]) for c in borel["checks"]] == [
            ("span-stable", True), ("cartan-weights", False)]
        assert borel["checks"][1]["error"] == (
            "('Kinv', 1) does not act by q^(sigma_a w_a) on the weights "
            "read off K")

    @pytest.mark.parametrize("argv,check", [
        (["decompose", "--word", "E", "--power", "2"], "summands-certified"),
        (["induce", "--k", "2", "--side", "bar"], "irreducible"),
        (["coords", "--check", "peterweyl"],
         "matrix-coefficients-independent"),
    ])
    def test_uncertified_decomposition_is_a_failed_check(
            self, capsys, monkeypatch, argv, check):
        # With no lowering generators each summand closes on its seed
        # alone, and reps.decompose rejects the sum as not exhaustive.
        from glq import reps

        monkeypatch.setattr(reps, "lowering_generators", lambda ctx: [])
        code, _, report = run_cli(capsys, argv + ["--m", "2", "--n", "1"])
        assert code == 1 and report["ok"] is False
        by_name = {c["name"]: c for c in report["suites"][0]["checks"]}
        assert by_name[check]["ok"] is False
        assert by_name[check]["error"].startswith(
            "decomposition does not exhaust the module: ")
        failed = [c["name"] for s in report["suites"] for c in s["checks"]
                  if not c["ok"]]
        if argv[0] == "induce":
            assert failed == ["irreducible", "highest-weight"]
            assert by_name["highest-weight"]["measured"] is None
        else:
            assert failed == [check]

    def test_crash_exits_3_without_a_report(self, capsys, monkeypatch):
        from glq.reports import verify

        def crash(args):
            raise RuntimeError("forced crash")

        monkeypatch.setattr(verify, "report", crash)
        code = main(["verify"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert "RuntimeError: forced crash" in captured.err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glq.cli", "normalform", "zb[1]*z[1]"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["suites"][0]["normal_form"] == "-q^2 * Z[1;0] Zb[1;0]"
        # The help, which loads no layer, at the width COLUMNS=80 sets.
        for argv, text in ((["--help"], MAIN_HELP),
                           (["induce", "--help"], INDUCE_HELP)):
            proc = subprocess.run(
                [sys.executable, "-m", "glq.cli"] + argv, capture_output=True,
                text=True, env=dict(os.environ, COLUMNS="80"))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == text


MAIN_HELP = """\
usage: glq [-h] {verify,decompose,rmatrix,coords,normalform,induce} ...

Exact verification suites for the quantum general linear supergroup apparatus.

positional arguments:
  {verify,decompose,rmatrix,coords,normalform,induce}
    verify              defining relations, Hopf axioms, star structure,
                        antipode square
    decompose           summands of a tensor power of the vector module or its
                        dual
    rmatrix             intertwiner, braid, and exchange-identity suites for
                        one R-matrix kind
    coords              coordinate-algebra checks
    normalform          normal form of a superspace expression
    induce              induced-module and reciprocity suites

options:
  -h, --help            show this help message and exit
"""

INDUCE_HELP = """\
usage: glq induce [-h] [--m M] [--n N] --k K --side {bar,unbar}

options:
  -h, --help          show this help message and exit
  --m M               number of even rows (default 1)
  --n N               number of odd rows (default 1)
  --k K               degree of the induced module, at least 0
  --side {bar,unbar}  which of the two degree-k modules: bar builds the module
                      on plain z-monomials, unbar the one on barred zb-
                      monomials
"""


# The glq modules each job loads: the command line always; the shared
# report helpers, Q(q) and the grading once the arguments are accepted;
# and beyond them only the job's own report module and the layers it runs.
# No row loads traceback, which glq.cli imports on its crash path only.
# Every accepted job loads json, which glq.cli imports to print the
# report; only verify loads fractions, and decimal and numbers with it,
# because its --q0 is the one non-integral rational of these jobs.
_CLI = {"glq", "glq.cli"}
_BASE = _CLI | {"glq.reports", "glq.coeff", "glq.graded", "json"}
_RATIONALS = {"fractions", "decimal", "numbers"}
_ENVELOPING = {"glq.reps", "glq.uq"}
_COORDINATES = _ENVELOPING | {"glq.coords"}
LAYER_ROWS = [
    (["--help"], _CLI, 0),
    (["verify", "--m", "-1", "--n", "2"], _CLI, 2),
    (["normalform", "zb[1]*z[1]"],
     _BASE | {"glq.reports.normalform", "glq.parser", "glq.superspace"}, 0),
    (["verify"], _BASE | {"glq.reports.verify"} | _ENVELOPING | _RATIONALS,
     0),
    (["decompose", "--word", "E", "--power", "2"],
     _BASE | {"glq.reports.decompose"} | _ENVELOPING, 0),
    (["coords", "--check", "star"],
     _BASE | {"glq.reports.coords"} | _COORDINATES, 0),
    (["rmatrix", "--kind", "pp"],
     _BASE | {"glq.reports.rmatrix", "glq.rmatrix"} | _COORDINATES, 0),
    (["induce", "--k", "1", "--side", "bar"],
     _BASE | {"glq.reports.induce", "glq.induction", "glq.superspace"}
     | _COORDINATES, 0),
]

_RUN_JOB = """import sys
from glq.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
"""
_WRITE_LOADED = """
sys.stderr.write(" ".join(m for m in sys.modules if m.startswith("glq")
                          or m in ("traceback", "json", "fractions",
                                   "decimal", "numbers")))
sys.exit(code)
"""


def _loaded_modules(code, argv=(), exit_code=0):
    """The glq.* names in sys.modules, and those of traceback, json,
    fractions, decimal and numbers that are there, after ``code`` runs
    in a fresh interpreter that imports glq from this checkout and exits
    with ``exit_code``."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _WRITE_LOADED] + list(argv),
        capture_output=True, text=True, env=dict(os.environ,
                                                 PYTHONPATH=_SRC))
    assert proc.returncode == exit_code, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv,expected,exit_code", LAYER_ROWS,
                         ids=[argv[0] if code == 0 else "rejected"
                              for argv, _, code in LAYER_ROWS])
def test_each_subcommand_loads_only_its_layers(argv, expected, exit_code):
    assert _loaded_modules(_RUN_JOB, argv, exit_code) == expected


def test_subcommands_and_report_modules_match():
    """main imports glq.reports.<subcommand> and calls its report(args),
    so each subcommand has exactly one report module and each report
    module one subcommand."""
    import pkgutil

    import glq.reports
    from glq.cli import build_arg_parser

    commands = next(a for a in build_arg_parser()._actions
                    if a.dest == "command").choices
    modules = {m.name for m in pkgutil.iter_modules(glq.reports.__path__)}
    assert sorted(modules) == sorted(commands)
    for name in modules:
        module = importlib.import_module("glq.reports." + name)
        assert callable(module.report), name


# One report per subcommand at (2|1), run in one process.
ALIASING_JOBS = [
    ["verify", "--m", "2", "--n", "1"],
    ["decompose", "--m", "2", "--n", "1", "--word", "E", "--power", "2"],
    ["rmatrix", "--m", "2", "--n", "1", "--kind", "mixed"],
    ["coords", "--m", "2", "--n", "1", "--check", "antipode"],
    ["normalform", "--m", "2", "--n", "1", "zb[1]*z[1]"],
    ["induce", "--m", "2", "--n", "1", "--k", "2", "--side", "bar"],
]


def test_reports_mutate_no_shared_value(capsys):
    """A product with 1 hands back its other factor, so 1, every shared
    q^e and the polynomial denominator are held by many values: one edit
    in place would change all of them."""
    from glq import coeff
    from glq.cli import build_arg_parser

    commands = next(a for a in build_arg_parser()._actions
                    if a.dest == "command").choices
    assert sorted(argv[0] for argv in ALIASING_JOBS) == sorted(commands)
    for argv in ALIASING_JOBS:
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert coeff._POLY_ONE == {0: 1}, argv
        assert ONE.coeffs == {0: 1} and ONE.den is coeff._POLY_ONE, argv
        assert coeff.ZERO.coeffs == {}, argv
        assert coeff._Q_POWERS, argv
        for e, x in coeff._Q_POWERS.items():
            assert x.coeffs == {e: 1} and x.den is coeff._POLY_ONE, argv


@pytest.mark.parametrize("module", ["glq.superspace", "glq.parser"])
def test_rewriting_and_parsing_load_no_algebra_layer(module):
    loaded = _loaded_modules("import sys, %s\ncode = 0\n" % module)
    assert not loaded & {"glq.coords", "glq.uq", "glq.reps",
                         "glq.graded"}, loaded


# Every accepted option must reach the run: changing its value either
# exits 2 or changes a suite.  An option that only its echo in
# "parameters" (or the star suite's "q0") reflects could be silently
# ignored, so those fields do not count as a change.  A value of None
# leaves the option out.
_SUITE_HIDES_IT = pytest.mark.xfail(
    strict=True, reason="the coords antipode and star suites read the "
    "option but report the same bytes for both values")

OPTION_ROWS = [
    (["verify"], "--m", "1", "2"),
    (["verify"], "--n", "1", "2"),
    (["verify"], "--probe-degree", "1", "2"),
    (["verify"], "--q0", "3/2", "-2"),
    (["decompose", "--word", "E", "--power", "2"], "--m", "1", "2"),
    (["decompose", "--word", "E", "--power", "2"], "--n", "1", "2"),
    (["decompose", "--power", "2"], "--word", "E", "Ed"),
    (["decompose", "--word", "E"], "--power", "2", "3"),
    (["rmatrix", "--kind", "pp"], "--m", "1", "2"),
    (["rmatrix", "--kind", "pp"], "--n", "1", "2"),
    (["rmatrix", "--kind", "pp"], "--probe-degree", "1", "2"),
    (["rmatrix"], "--kind", "pp", "mixed"),
    pytest.param(["coords", "--check", "antipode"], "--m", "1", "2",
                 marks=_SUITE_HIDES_IT),
    pytest.param(["coords", "--check", "antipode"], "--n", "1", "2",
                 marks=_SUITE_HIDES_IT),
    pytest.param(["coords", "--check", "antipode"], "--probe-degree", "1",
                 "2", marks=_SUITE_HIDES_IT),
    pytest.param(["coords", "--check", "star"], "--m", "1", "2",
                 marks=_SUITE_HIDES_IT),
    pytest.param(["coords", "--check", "star"], "--n", "1", "2",
                 marks=_SUITE_HIDES_IT),
    (["coords", "--check", "star"], "--probe-degree", None, "1"),
    (["coords", "--check", "peterweyl"], "--m", "1", "2"),
    (["coords", "--check", "peterweyl"], "--n", "1", "2"),
    (["coords", "--check", "peterweyl"], "--probe-degree", None, "1"),
    (["coords"], "--check", "antipode", "star"),
    (["normalform", "z[2]*zb[1]*z[1]"], "--m", "1", "2"),
    (["normalform", "z[2]*zb[1]*z[1]"], "--n", "1", "2"),
    (["induce", "--k", "1", "--side", "bar"], "--m", "1", "2"),
    (["induce", "--k", "1", "--side", "bar"], "--n", "1", "2"),
    (["induce", "--side", "bar"], "--k", "1", "2"),
    (["induce", "--k", "1"], "--side", "bar", "unbar"),
]


def _run_or_exit_code(capsys, argv):
    """(exit code, suites without the echoed q0); suites is None when the
    parser rejects argv."""
    try:
        code = main(argv)
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code, None
    report = json.loads(capsys.readouterr().out)
    return code, [{k: v for k, v in suite.items() if k != "q0"}
                  for suite in report["suites"]]


def _option_row_id(row):
    base, option, before, after = getattr(row, "values", row)
    return "%s %s %s->%s" % (" ".join(base[:3:2]), option, before, after)


@pytest.mark.parametrize("base, option, before, after", OPTION_ROWS,
                         ids=[_option_row_id(r) for r in OPTION_ROWS])
def test_every_option_reaches_the_run(capsys, base, option, before, after):
    given = [] if before is None else [option, before]
    code, suites = _run_or_exit_code(capsys, base + given)
    assert code in (0, 1)
    changed_code, changed = _run_or_exit_code(capsys, base + [option, after])
    assert changed_code == 2 or changed != suites


BAD_INPUTS = [
    ["decompose", "--word", "E", "--power", "0"],
    ["decompose", "--word", "E", "--power", "-2"],
    ["verify", "--probe-degree", "0"],
    ["rmatrix", "--kind", "pp", "--probe-degree", "-1"],
    ["coords", "--check", "star", "--probe-degree", "2"],
    ["coords", "--check", "peterweyl", "--probe-degree", "3"],
    ["coords", "--m", "2", "--n", "1", "--check", "star",
     "--probe-degree", "7"],
    ["verify", "--probe-degree", "3"],
    ["verify", "--m", "2", "--n", "1", "--probe-degree", "7"],
    ["coords", "--check", "antipode", "--probe-degree", "3"],
    ["induce", "--k", "-1", "--side", "bar"],
    ["induce", "--m", "1", "--n", "0", "--k", "2", "--side", "unbar"],
    ["induce", "--m", "1", "--n", "0", "--k", "1", "--side", "bar"],
    ["verify", "--m", "0", "--n", "0"],
    ["verify", "--m", "-1", "--n", "2"],
    ["normalform", "--m", "1", "--n", "-1", "z[1]"],
    ["verify", "--q0", "abc"],
    ["verify", "--q0", "0"],
    ["verify", "--q0", "1"],
    ["verify", "--q0", "2/2"],
    ["verify", "--q0", "1e5000"],
    ["verify", "--q0", "1e-5000"],
    ["verify", "--q0", "1e100000000"],
    ["verify", "--m", "\u0662"],
    ["decompose", "--word", "E", "--power", "\u0662"],
    ["verify", "--q0", "\u0663/\u0662"],
]


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
    def test_rejected_by_parser_with_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_valid_edge_values_accepted(self, capsys):
        code, _, report = run_cli(
            capsys, ["decompose", "--m", "1", "--n", "0", "--word", "E",
                     "--power", "1"])
        assert code == 0
        assert report["parameters"]["power"] == 1
        code, _, report = run_cli(
            capsys, ["verify", "--q0", "2/3", "--probe-degree", "1"])
        assert code == 0
        assert report["parameters"]["q0"] == "2/3"
        assert report["parameters"]["probe_degree"] == 1
