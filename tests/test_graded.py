"""Graded spaces, Koszul tensor calculus, and exact echelon routines."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from glq.coeff import RatFunc, ZERO, ONE, Q, QINV, add_term, q_int
from glq.graded import (
    Echelon,
    GradedMap,
    GradedSpace,
    GradingContext,
    first_difference,
    graded_flip,
    invert,
    nullspace,
    rank,
    solve,
    tensor_unindex,
    joint_kernel,
)


def test_grading_context_basics():
    ctx = GradingContext(2, 1)
    assert [ctx.parity(a) for a in (1, 2, 3)] == [0, 0, 1]
    assert [ctx.sigma(a) for a in (1, 2, 3)] == [1, 1, -1]
    assert ctx.eps(2) == (0, 1, 0)
    with pytest.raises(ValueError):
        ctx.parity(4)
    with pytest.raises(ValueError):
        GradingContext(0, 0)


def test_two_rho_values():
    assert [GradingContext(1, 1).two_rho_eps(c) for c in (1, 2)] == [-1, -1]
    assert [GradingContext(2, 1).two_rho_eps(c) for c in (1, 2, 3)] == [0, -2, -2]
    assert GradingContext(1, 1).k2rho_exponents() == (-1, 1)
    assert GradingContext(2, 1).k2rho_exponents() == (0, -2, 2)


def test_two_rho_pairing_on_simple_roots():
    # (2 rho, eps_a - eps_{a+1}) = sigma_a + sigma_{a+1}
    for (m, n) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        ctx = GradingContext(m, n)
        for a in range(1, ctx.N):
            root = tuple(x - y for x, y in zip(ctx.eps(a), ctx.eps(a + 1)))
            pairing = sum(root[c - 1] * ctx.two_rho_eps(c)
                          for c in range(1, ctx.N + 1))
            assert pairing == ctx.sigma(a) + ctx.sigma(a + 1)


def test_graded_space_tensor_row_major():
    sp = GradedSpace((0, 1))
    tt = sp.tensor(sp)
    assert tt.parities == (0, 1, 1, 0)
    assert tt.dim == 4


def _e(space, r, c, val=ONE):
    return GradedMap(space, space, {(r, c): val})


def test_graded_map_compose_and_apply():
    sp = GradedSpace((0, 1))
    e12 = _e(sp, 0, 1)
    e21 = _e(sp, 1, 0)
    prod = e12 @ e21
    assert prod == _e(sp, 0, 0)
    assert e12.apply({1: Q}) == {0: Q}
    assert e12.apply({0: Q}) == {}
    both = GradedMap(sp, sp, {(0, 0): ONE, (0, 1): ONE, (1, 1): QINV})
    assert both.apply({0: Q, 1: -Q}) == {1: -ONE}


# Sparse maps and vectors with small Q(q) values, some of them zero.
_values = st.builds(lambda c, e: q_int(e).scale(c),
                    st.integers(-2, 2), st.integers(-2, 2))
_spaces = st.lists(st.integers(0, 1), max_size=4).map(GradedSpace)


@st.composite
def _maps(draw, domain=None, codomain=None):
    domain = domain or draw(_spaces)
    codomain = codomain or draw(_spaces)
    cells = st.tuples(st.integers(0, codomain.dim - 1),
                      st.integers(0, domain.dim - 1))
    entries = (draw(st.dictionaries(cells, _values, max_size=8))
               if domain.dim and codomain.dim else {})
    return GradedMap(domain, codomain, entries)


def _vector(draw, space):
    return draw(st.dictionaries(st.integers(0, space.dim - 1), _values,
                                max_size=4)) if space.dim else {}


def _walk(mat, vec):
    """The map applied entry by entry over the whole matrix."""
    out = {}
    for (r, c), v in mat.entries.items():
        x = vec.get(c)
        if x:
            add_term(out, r, v * x)
    return out


@st.composite
def _built_maps(draw):
    """A map as one of the operations builds it from random maps."""
    a = draw(_maps())
    how = draw(st.sampled_from(["plain", "add", "compose", "tensor",
                                "transpose"]))
    if how == "add":
        return a + draw(_maps(a.domain, a.codomain))
    if how == "compose":
        return a @ draw(_maps(codomain=a.domain))
    if how == "tensor":
        return a.tensor(draw(_maps()))
    if how == "transpose":
        return a.transpose()
    return a


@given(st.data())
def test_apply_by_column_matches_the_entry_walk(data):
    mat = data.draw(_built_maps())
    # The column index is built on the first apply and reused after.
    for _ in range(2):
        vec = _vector(data.draw, mat.domain)
        assert mat.apply(vec) == _walk(mat, vec)


def test_invert_exact_and_singular():
    sp = GradedSpace((0, 1, 0))
    mat = GradedMap(sp, sp, {(0, 0): Q, (0, 2): ONE, (1, 1): Q - QINV,
                             (2, 0): ONE, (2, 2): Q})
    inv = invert(mat)
    assert inv is not None
    assert inv @ mat == GradedMap.identity(sp)
    assert mat @ inv == GradedMap.identity(sp)
    singular = GradedMap(sp, sp, {(0, 0): Q, (0, 2): ONE,
                                  (2, 0): Q * Q, (2, 2): Q, (1, 1): ONE})
    assert invert(singular) is None


def test_koszul_tensor_sign():
    # (e12 (x) e21)(v2 (x) v1) = -(v1 (x) v2) on the (1|1) space
    sp = GradedSpace((0, 1))
    e12 = _e(sp, 0, 1)
    e21 = _e(sp, 1, 0)
    t = e12.tensor(e21)
    assert t.get(1, 2) == -ONE
    assert len(t.entries) == 1


def test_koszul_composition_rule():
    # (f (x) g)(f' (x) g') = (-1)^{|g||f'|} (f f' (x) g g')
    sp = GradedSpace((0, 1))
    f, g = _e(sp, 0, 1), _e(sp, 1, 0)   # both odd maps
    fp, gp = _e(sp, 1, 0), _e(sp, 0, 1)
    lhs = f.tensor(g) @ fp.tensor(gp)
    rhs = ((f @ fp).tensor(g @ gp)).scale(-1)
    assert lhs == rhs


def test_koszul_tensor_even_factor_no_sign():
    sp = GradedSpace((0, 1))
    k = GradedMap(sp, sp, {(0, 0): Q, (1, 1): QINV})  # even map
    e12 = _e(sp, 0, 1)
    t = k.tensor(e12)
    # rows (r1, r2), cols (c1, c2): e12 piece has |r2|+|c2| = 1, so the
    # sign is (-1)^{|c1|}
    assert t.get(0 * 2 + 0, 0 * 2 + 1) == Q
    assert t.get(1 * 2 + 0, 1 * 2 + 1) == -QINV


def test_graded_flip_involution_and_sign():
    sp = GradedSpace((0, 1))
    fl = graded_flip(sp, sp)
    assert fl @ fl == GradedMap.identity(sp.tensor(sp))
    # v1 (x) v2 -> v2 (x) v1 (one even factor: plus sign)
    assert fl.get(2, 1) == ONE
    # v2 (x) v2 -> -v2 (x) v2
    assert fl.get(3, 3) == -ONE


def test_graded_map_arithmetic():
    sp = GradedSpace((0, 0, 1))
    a = GradedMap(sp, sp, {(0, 1): Q, (2, 2): ONE})
    b = GradedMap(sp, sp, {(0, 1): -Q, (1, 0): QINV})
    s = a + b
    assert s.get(0, 1) == ZERO and (0, 1) not in s.entries
    assert s.get(1, 0) == QINV and s.get(2, 2) == ONE
    assert (a - a).is_zero()
    assert a.scale(2).get(0, 1) == Q + Q


def test_maps_between_different_spaces_do_not_add():
    """A sum or difference needs equal domains and equal codomains, as a
    composite needs matching spaces: otherwise first_difference would
    find an empty difference and no witness."""
    even_odd = GradedMap.identity(GradedSpace((0, 1)))
    odd_even = GradedMap.identity(GradedSpace((1, 0)))
    for op in (lambda a, b: a + b, lambda a, b: a - b, first_difference):
        with pytest.raises(ValueError, match="different spaces"):
            op(even_odd, odd_even)
    sp = GradedSpace((0, 1))
    wider = GradedSpace((0, 1, 0))
    with pytest.raises(ValueError, match="different spaces"):
        GradedMap.zero(sp, sp) + GradedMap.zero(sp, wider)
    with pytest.raises(ValueError, match="different spaces"):
        GradedMap.zero(sp, sp) - GradedMap.zero(wider, sp)
    assert first_difference(even_odd, even_odd) is None


def test_transpose_and_specialize():
    sp = GradedSpace((0, 1))
    a = GradedMap(sp, sp, {(0, 1): Q})
    assert a.transpose().get(1, 0) == Q
    dense = a.specialize(2)
    assert dense[0][1] == 2 and dense[1][0] == 0


def test_echelon_span_tracking():
    ech = Echelon()
    assert ech.add({0: ONE, 1: Q})
    assert not ech.add({0: Q, 1: Q * Q})          # dependent
    assert ech.add({1: ONE})
    assert ech.dim == 2
    assert not ech.reduce({0: Q - QINV})
    assert Echelon().reduce({0: ONE})


def test_rank_and_nullspace():
    rows = [{0: ONE, 1: Q}, {0: Q, 1: Q * Q}]
    assert rank(rows) == 1
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    v = basis[0]
    # substitute back into each row
    for row in rows:
        total = ZERO
        for c, coef in row.items():
            total = total + coef * v.get(c, ZERO)
        assert total == ZERO


def test_nullspace_trivial_kernel():
    rows = [{0: ONE}, {1: Q - QINV}]
    assert nullspace(rows, 2) == []


def test_solve_consistent_and_inconsistent():
    rows = [{0: ONE, 1: Q}, {1: Q - QINV}]
    rhs = [ONE, ONE]
    x = solve(rows, 2, rhs)
    assert x is not None
    for row, b in zip(rows, rhs):
        total = ZERO
        for c, coef in row.items():
            total = total + coef * x.get(c, ZERO)
        assert total == b
    assert solve([{0: ONE}, {0: ONE}], 1, [ONE, ONE + ONE]) is None


def test_solve_underdetermined():
    x = solve([{0: ONE, 1: ONE}], 2, [Q])
    assert x is not None
    assert x.get(0, ZERO) + x.get(1, ZERO) == Q


def test_random_echelon_consistency():
    rng = random.Random(41522)
    for _ in range(25):
        ncols = rng.randint(1, 5)
        vecs = []
        for _ in range(rng.randint(0, 6)):
            v = {}
            for c in range(ncols):
                if rng.random() < 0.5:
                    v[c] = RatFunc.q_power(rng.randint(-2, 2),
                                           rng.randint(-3, 3))
            vecs.append({c: x for c, x in v.items() if x})
        r = rank(vecs)
        null_dim = len(nullspace(vecs, ncols))
        assert r + null_dim == ncols
        # every input vector lies in the span of the echelon basis
        ech = Echelon()
        for v in vecs:
            ech.add(v)
        for v in vecs:
            assert not ech.reduce(v)


def tensor_index(indices, dims):
    """Row-major flattening of a multi-index: the inverse that
    tensor_unindex is checked against."""
    out = 0
    for i, d in zip(indices, dims):
        out = out * d + i
    return out


def test_tensor_index_roundtrip():
    dims = (2, 3, 4)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                flat = tensor_index((i, j, k), dims)
                assert tensor_unindex(flat, dims) == (i, j, k)
    assert tensor_index((1, 2, 3), dims) == 1 * 12 + 2 * 4 + 3


class TestJointKernel:
    def test_raising_kernel_of_vector_module(self):
        from glq.reps import vector_rep, raising_generators

        ctx = GradingContext(2, 1)
        rep = vector_rep(ctx)
        maps = [rep.image(g) for g in raising_generators(ctx)]
        assert joint_kernel(maps) == [{0: ONE}]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            joint_kernel([])

    def test_mismatched_domains_rejected(self):
        from glq.reps import vector_rep

        c1 = GradingContext(1, 1)
        c2 = GradingContext(2, 1)
        a = vector_rep(c1).image(("K", 1))
        b = vector_rep(c2).image(("K", 1))
        with pytest.raises(ValueError):
            joint_kernel([a, b])
