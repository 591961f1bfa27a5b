"""
Tensor representations and their decomposition
==============================================

The vector module of the quantized enveloping superalgebra, its dual,
and their tensor powers are realized as exact matrices over Q(q).
Every defining relation of the algebra is checked in each module, and
tensor squares split into explicitly computed irreducible summands.
"""

from fractions import Fraction

from glq.graded import GradingContext
import glq.reps as reps

# Work at size (2|1): two even basis directions, one odd.
ctx = GradingContext(2, 1)
V = reps.vector_rep(ctx)
D = reps.dual_rep(V)
print("vector module dim:", V.dim, " weights:", V.weights)
print("dual module dim:  ", D.dim, " weights:", D.weights)

# Every defining relation of the algebra holds in both modules.
for label, rep in (("vector", V), ("dual", D)):
    results = reps.check_relations(rep)
    bad = [name for name, ok in results if not ok]
    print("%s module: %d relations checked, failures: %s"
          % (label, len(results), bad or "none"))

# The tensor square splits into two irreducibles, found by closing the
# highest-weight vectors under the lowering operators.
square = reps.tensor_rep(V, V)
summands = reps.decompose(square)
print("tensor square dim:", square.dim)
for s in summands:
    print("  summand: highest weight %s, dim %d" % (s.highest_weight, s.dim))

# Weight classification: which integral weights head a tensor-family
# module, and which head a dual-family one.
for weight in [(2, 1, 0), (0, 0, -1), (-1, 0, 0)]:
    in_tensor, diagram = reps.in_first_family(ctx, weight)
    in_dual, _ = reps.in_second_family(ctx, weight)
    print("weight %s: tensor family %s, dual family %s, diagram %s"
          % (weight, in_tensor, in_dual, diagram))

# Unitarity at a rational point: the sesquilinear form is positive and
# every generator is adjoint to its star partner.
gram = reps.vector_gram(ctx)
out = reps.unitarity_check(V, gram, Fraction(3, 2))
print("unitarity at q=3/2: positive %s, unitary star types %s"
      % (out["positive"], out["unitary_types"]))
