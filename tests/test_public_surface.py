"""The public surface: every exported name and every library entry point
that the README names imports and does what its name says."""

from __future__ import annotations

import glq
from glq.coeff import ONE, Q, RatFunc
from glq.coords import GqElement
from glq.graded import GradingContext
from glq.parser import (format_normal_form, parse_coords, parse_scalar,
                        parse_superspace, parse_uq)
from glq.superspace import normal_form
from glq.uq import UqExpression


def test_every_exported_name_resolves():
    assert len(set(glq.__all__)) == len(glq.__all__)
    for name in glq.__all__:
        assert getattr(glq, name) is not None, name


def test_readme_entry_points_parse_into_their_algebras():
    ctx = GradingContext(2, 1)
    assert parse_scalar("q + 1") == Q + ONE
    assert isinstance(parse_scalar("q^-2"), RatFunc)
    assert isinstance(parse_uq(ctx, "K[1]*E[1,2]"), UqExpression)
    assert isinstance(parse_coords(ctx, "t[1,2]*tb[2,1]"), GqElement)
    x, _ = normal_form(ctx, parse_superspace(ctx, "zb[2]*z[1]"))
    assert parse_superspace(ctx, format_normal_form(ctx, x)) == x
