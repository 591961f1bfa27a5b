"""R-matrix operators: intertwining, braid relation, invertibility,
classical limit, and element-level exchange relations against the
coordinate generating matrices."""

import json
from collections import Counter

import pytest

import glq.rmatrix as rmatrix
from glq.cli import main
from glq.coeff import ONE, Q, QINV, add_term, q_int
from glq.graded import GradingContext, GradedMap, GradedSpace, invert
from glq.parser import parse_uq
from glq.reps import dual_rep, vector_rep
from glq.rmatrix import (
    braid_from_r,
    braid_relation_holds,
    classical_limit_is_identity,
    generating_element,
    intertwines,
    r_element,
    r_matrix,
    rtt_exchange_witness,
    triple_product,
    _with_empty_word,
    build_r_matrix,
    check_braid,
    check_intertwiner,
    check_rtt,
    resolve_kind,
)
from glq.uq import probe_monomials

from test_coords import _pair_by_formula

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.fixture(params=SIZES, ids=lambda s: "m%dn%d" % s)
def ctx(request):
    return GradingContext(*request.param)


def _operators(ctx):
    pi = vector_rep(ctx)
    pibar = dual_rep(pi)
    return [
        ("vv", r_matrix(ctx, "vv"), pi, pi),
        ("dd", r_matrix(ctx, "dd"), pibar, pibar),
        ("dv", r_matrix(ctx, "dv"), pibar, pi),
    ]


# ---------------------------------------------------------------------------
# Operator form: intertwining, braid, inverse, classical limit.
# ---------------------------------------------------------------------------


def test_intertwining(ctx):
    for kind, R, r1, r2 in _operators(ctx):
        assert intertwines(R, r1, r2) is None, kind


def test_inverses_are_exact(ctx):
    for kind, R, _, _ in _operators(ctx):
        Rinv = invert(R)
        assert Rinv is not None, kind
        idm = GradedMap.identity(R.domain)
        assert Rinv @ R == idm and R @ Rinv == idm, kind


def test_classical_limit(ctx):
    for kind, R, _, _ in _operators(ctx):
        assert classical_limit_is_identity(R), kind


@pytest.mark.parametrize("size", [(1, 1), (2, 1)], ids=lambda s: "m%dn%d" % s)
def test_braid_relation(size):
    ctx = GradingContext(*size)
    pi = vector_rep(ctx)
    pibar = dual_rep(pi)
    V, D = pi.space, pibar.space
    rhat_vv = braid_from_r(r_matrix(ctx, "vv"), V, V)
    rhat_dd = braid_from_r(r_matrix(ctx, "dd"), D, D)
    assert braid_relation_holds(rhat_vv, V) is None
    assert braid_relation_holds(rhat_dd, D) is None


def test_vv_operator_frozen_at_1_1():
    ctx = GradingContext(1, 1)
    R = r_matrix(ctx, "vv")
    gap = Q - QINV
    assert R.entries == {
        (0, 0): q_int(1),
        (1, 1): ONE,
        (2, 2): ONE,
        (3, 3): q_int(-1),
        (1, 2): gap,
    }


def test_dd_operator_frozen_at_1_1():
    ctx = GradingContext(1, 1)
    R = r_matrix(ctx, "dd")
    gap = Q - QINV
    # single off-diagonal entry, sending vbar_1 (x) vbar_2 into
    # vbar_2 (x) vbar_1
    assert R.entries == {
        (0, 0): q_int(1),
        (1, 1): ONE,
        (2, 2): ONE,
        (3, 3): q_int(-1),
        (2, 1): gap,
    }


def test_dv_operator_frozen_at_1_1():
    ctx = GradingContext(1, 1)
    R = r_matrix(ctx, "dv")
    gap = Q - QINV
    assert R.get(0, 0) == QINV
    assert R.get(3, 3) == Q
    assert R.get(1, 1) == ONE and R.get(2, 2) == ONE
    # single off-diagonal entry, sending vbar_1 (x) v_1 into vbar_2 (x) v_2
    off = {k: v for k, v in R.entries.items() if k[0] != k[1]}
    assert off == {(3, 0): gap}


# ---------------------------------------------------------------------------
# Element form and exchange relations.
# ---------------------------------------------------------------------------


def _flat(ctx, a, b):
    return (a - 1) * ctx.N + (b - 1)


@pytest.mark.parametrize("size", SIZES + [(1, 0), (0, 1), (3, 2)],
                         ids=lambda s: "m%dn%d" % s)
def test_element_realizes_to_operator(size):
    """The displayed matrix-unit coefficients, pushed through the Koszul
    identification of matrix tensors with a hand-coded sign and flat
    index, give exactly the operator form."""
    ctx = GradingContext(*size)
    V = GradedSpace(tuple(ctx.parity(a) for a in range(1, ctx.N + 1)))
    space = V.tensor(V)
    for kind in ("vv", "dd", "dv"):
        ent = {}
        for (i, j, k, l), c in r_element(ctx, kind).items():
            sgn = ((ctx.parity(k) + ctx.parity(l)) * ctx.parity(j)) % 2
            key = (_flat(ctx, i, k), _flat(ctx, j, l))
            cc = -c if sgn else c
            ent[key] = ent.get(key, cc - cc) + cc
        realized = GradedMap(space, space, {k: v for k, v in ent.items() if v})
        assert realized == r_matrix(ctx, kind), kind


def test_r_element_frozen_at_1_1():
    ctx = GradingContext(1, 1)
    gap = Q - QINV
    assert r_element(ctx, "vv") == {
        (1, 1, 1, 1): q_int(1), (1, 1, 2, 2): ONE,
        (2, 2, 1, 1): ONE, (2, 2, 2, 2): q_int(-1),
        (1, 2, 2, 1): -gap,
    }
    assert r_element(ctx, "dd") == {
        (1, 1, 1, 1): q_int(1), (1, 1, 2, 2): ONE,
        (2, 2, 1, 1): ONE, (2, 2, 2, 2): q_int(-1),
        (2, 1, 1, 2): gap,
    }
    assert r_element(ctx, "dv") == {
        (1, 1, 1, 1): q_int(-1), (1, 1, 2, 2): ONE,
        (2, 2, 1, 1): ONE, (2, 2, 2, 2): q_int(1),
        (2, 1, 2, 1): gap,
    }


def test_triple_product_is_associative():
    ctx = GradingContext(2, 1)
    R = _with_empty_word(r_element(ctx, "dv"))
    t1 = generating_element(ctx, 1, True)
    t2 = generating_element(ctx, 2, False)
    left = triple_product(ctx, triple_product(ctx, R, t1), t2)
    right = triple_product(ctx, R, triple_product(ctx, t1, t2))
    assert left == right


@pytest.mark.parametrize("kind", ["vv", "dd", "dv"])
def test_rtt_exchange(ctx, kind):
    degree = 3 if (ctx.m, ctx.n) == (1, 1) else 2
    probes = probe_monomials(ctx, degree)
    assert rtt_exchange_witness(ctx, kind, probes) is None


def _pair_term_by_term(ctx, element, x_word):
    """The oracle for the table reads: pair every (i, j, k, l, word) term
    of an element with the probe word on its own."""
    out = {}
    for (i, j, k, l, w), c in element.items():
        v = _pair_by_formula(ctx, w, x_word)
        if v:
            add_term(out, (i, j, k, l), c * v)
    return out


def _exchange_sides(ctx, kind, r):
    R = _with_empty_word(r)
    t1 = generating_element(ctx, 1, kind in ("dd", "dv"))
    t2 = generating_element(ctx, 2, kind == "dd")
    lhs = triple_product(ctx, triple_product(ctx, R, t1), t2)
    rhs = triple_product(ctx, triple_product(ctx, t2, t1), R)
    return lhs, rhs


def test_rtt_exchange_detects_a_wrong_sign():
    """Flipping one off-diagonal coefficient must break the exchange
    relation — guards the test itself against vacuous passes."""
    ctx = GradingContext(1, 1)
    bad = r_element(ctx, "vv")
    bad[(1, 2, 2, 1)] = -bad[(1, 2, 2, 1)]
    lhs, rhs = _exchange_sides(ctx, "vv", bad)
    probes = probe_monomials(ctx, 2)
    broken = any(
        _pair_term_by_term(ctx, lhs, x) != _pair_term_by_term(ctx, rhs, x)
        for x in probes)
    assert broken


def _flip_first_off_diagonal(monkeypatch):
    true_r_element = rmatrix.r_element

    def flipped(ctx, kind):
        out = true_r_element(ctx, kind)
        key = min(k for k in out if k[0] != k[1])
        out[key] = -out[key]
        return out

    monkeypatch.setattr(rmatrix, "r_element", flipped)


@pytest.mark.parametrize("kind", ["vv", "dd", "dv"])
def test_rtt_exchange_holds_rejects_a_flipped_coefficient(monkeypatch, kind):
    _flip_first_off_diagonal(monkeypatch)
    ctx = GradingContext(2, 1)
    assert rtt_exchange_witness(ctx, kind, probe_monomials(ctx, 2)) \
        is not None


@pytest.mark.parametrize("kind", ["pp", "bb", "mixed"])
def test_failed_exchange_report_names_a_witness(capsys, monkeypatch, kind):
    """The report of a broken R element names a probe, an entry and a
    residual, and pairing that probe term by term gives the same
    residual at that entry."""
    _flip_first_off_diagonal(monkeypatch)
    code = main(["rmatrix", "--m", "2", "--n", "1", "--kind", kind,
                 "--probe-degree", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    (rtt,) = [s for s in report["suites"] if s["name"] == "rtt"]
    (check,) = rtt["checks"]
    assert check["ok"] is False
    witness = check["witness"]
    ctx = GradingContext(2, 1)
    (probe,) = parse_uq(ctx, witness["probe"]).terms
    kind = resolve_kind(kind)
    lhs, rhs = _exchange_sides(ctx, kind, rmatrix.r_element(ctx, kind))
    residuals = _pair_term_by_term(ctx, lhs, probe)
    for key, c in _pair_term_by_term(ctx, rhs, probe).items():
        add_term(residuals, key, -c)
    entry = tuple(witness["entry"])
    assert entry == min(residuals)
    assert str(residuals[entry]) == witness["residual"]
    probes = probe_monomials(ctx, 2)
    assert all(_pair_term_by_term(ctx, lhs, x) == _pair_term_by_term(
        ctx, rhs, x) for x in probes[:probes.index(probe)])


def test_passing_report_has_no_witness(capsys):
    main(["rmatrix", "--m", "2", "--n", "1", "--kind", "mixed"])
    report = json.loads(capsys.readouterr().out)
    (rtt,) = [s for s in report["suites"] if s["name"] == "rtt"]
    assert rtt["checks"] == [{"degree": 3, "name": "exchange-identity",
                              "ok": True}]


def test_compose_indexes_each_left_factor_once(capsys, monkeypatch):
    # A map's column index is built on its first compose (or apply) and
    # kept, so a word image that many letters extend is indexed once.
    indexed = []
    left = []
    columns = GradedMap._columns
    compose = GradedMap.compose

    def counting_columns(self):
        indexed.append(self)
        return columns(self)

    def counting_compose(self, other):
        left.append(self)
        return compose(self, other)

    monkeypatch.setattr(GradedMap, "_columns", counting_columns)
    # `@` is bound to compose itself, so it is patched too.
    monkeypatch.setattr(GradedMap, "compose", counting_compose)
    monkeypatch.setattr(GradedMap, "__matmul__", counting_compose)
    assert main(["rmatrix", "--m", "2", "--n", "2", "--kind", "pp"]) == 0
    capsys.readouterr()
    # Both lists hold their maps, so no id is reused while they live.
    assert indexed and max(Counter(map(id, indexed)).values()) == 1
    assert max(Counter(map(id, left)).values()) > 1


class TestKindWrappers:
    def test_aliases(self):
        assert resolve_kind("pp") == "vv" == resolve_kind("vv")
        assert resolve_kind("bb") == "dd"
        assert resolve_kind("mixed") == "dv"
        with pytest.raises(ValueError):
            resolve_kind("xx")

    def test_build_matches_constructors(self):
        ctx = GradingContext(1, 1)
        R, r1, r2 = build_r_matrix(ctx, "pp")
        assert R == r_matrix(ctx, "vv")
        assert r1 is r2
        R, r1, r2 = build_r_matrix(ctx, "mixed")
        assert R == r_matrix(ctx, "dv")
        assert r1.name != r2.name

    @pytest.mark.parametrize("kind", ["pp", "bb", "mixed"])
    def test_reports(self, kind):
        ctx = GradingContext(1, 1)
        assert check_intertwiner(ctx, kind) is None
        if kind == "mixed":
            with pytest.raises(ValueError):
                check_braid(ctx, kind)
        else:
            assert check_braid(ctx, kind) is None
        assert check_rtt(ctx, kind, 2) is None


def test_failed_report_runs_the_exchange_check_once(capsys, monkeypatch):
    # The witness of a failed exchange identity comes from the one pass
    # that decided it.
    calls = []
    true_witness = rmatrix.rtt_exchange_witness

    def counting(*args):
        calls.append(args)
        return true_witness(*args)

    _flip_first_off_diagonal(monkeypatch)
    monkeypatch.setattr(rmatrix, "rtt_exchange_witness", counting)
    assert main(["rmatrix", "--m", "2", "--n", "1", "--kind", "pp",
                 "--probe-degree", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    (rtt,) = [s for s in report["suites"] if s["name"] == "rtt"]
    assert "witness" in rtt["checks"][0]
    assert len(calls) == 1
