"""
The coordinate Hopf superalgebra as functionals
===============================================

Coordinate generators are matrix coefficients of the vector module and
its dual: linear functionals on the enveloping algebra.  Products,
coproducts, the antipode, and the star operations are all computed
exactly, and identities between functionals are certified by evaluating
on a separating family of probe elements.
"""

from glq.graded import GradingContext, rank
import glq.coords as coords
import glq.reps as reps
from glq.coords import GqElement, t_, tbar_
from glq.uq import UqExpression, antipode, gen_E, pbw_probe_expressions

ctx = GradingContext(1, 1)

# A coordinate word is a product of matrix-coefficient letters; its
# value on an algebra element comes from the coproduct of the element.
# The odd letters contribute grading signs: this pairing is -1, not 1.
f = GqElement.from_word(ctx, (t_(1, 2), t_(2, 1)))
x = UqExpression.from_word(ctx, (gen_E(1, 2), gen_E(2, 1)))
print("pairing <t_12 t_21, E_12 E_21> =", coords.evaluate(ctx, f, x))

# The antipode flips bar status and transposes indices, with a parity
# sign and a weight factor on barred letters.
g = GqElement.from_letter(ctx, tbar_(1, 2))
print("antipode of tbar_12:", coords.antipode_coords(g).terms)

# It is dual to the antipode of the enveloping algebra:
# <S(f), x> = <f, S(x)> on every probe.
probes = pbw_probe_expressions(ctx, 2)
sf = coords.antipode_coords(g)
agree = all(
    coords.evaluate(ctx, sf, p)
    == coords.evaluate(ctx, g, antipode(p))
    for p in probes)
print("antipode duality on %d probes: %s" % (len(probes), agree))

# Star is an involution exchanging plain and barred letters; it is
# compatible with the coproduct once the graded tensor signs are kept.
ff = coords.star_coords(coords.star_coords(f, 1), 1)
print("star is involutive:", ff.terms == f.terms)
print("star-coproduct compatibility:",
      coords.star_coproduct(f, 1) == coords.coproduct(coords.star_coords(f, 1)))

# Matrix coefficients of inequivalent irreducibles are jointly
# independent: the measured rank matches the sum of squared dimensions.
V = reps.vector_rep(ctx)
funcs = [GqElement.one(ctx)]
square = reps.tensor_rep(V, V)
summands = reps.decompose(square)
for profile, parts in (((False,), reps.decompose(V)),
                       ((False, False), summands)):
    for grid in coords.matrix_coefficients(ctx, profile, parts):
        funcs += [entry for row in grid for entry in row]
expected = 1 + V.dim ** 2 + sum(s.dim ** 2 for s in summands)
vectors = [{j: v for j, v in
            enumerate(coords.evaluate(ctx, fn, p) for p in probes) if v}
           for fn in funcs]
print("matrix-coefficient family: rank %d of expected %d"
      % (rank(vectors), expected))
