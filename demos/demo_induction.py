"""
Induced modules and reciprocity
===============================

Degree-k monomials in the plain superspace coordinates carry an action
of the enveloping algebra through translation; so do the barred ones.
Both realizations are built explicitly, shown to be irreducible with
the expected dimensions and highest weights, and the dimension form of
reciprocity is verified: maps from a test module into the induced
module match maps of its restriction into the inducing character.
"""

from math import comb

from glq.graded import GradingContext
import glq.induction as induction
import glq.reps as reps

ctx = GradingContext(2, 1)
m, n = ctx.m, ctx.n

# Both degree-k realizations, k = 0..3: dimension, irreducibility, and
# the pair of highest weights (one per realization).
print("degree-k section spaces at (2|1):")
for k in range(4):
    expected = sum(comb(m, j) * comb(n - 1 + k - j, k - j)
                   for j in range(min(m, k) + 1))
    rep, _ = induction.build_induced(ctx, k, barred=False)
    plain = reps.decompose(rep)
    barred = reps.decompose(induction.build_induced(ctx, k, barred=True)[0])
    print("  k=%d  dim %d (expected %d)  irreducible %s/%s  weights %s | %s"
          % (k, rep.dim, expected, len(plain) == 1, len(barred) == 1,
             plain[0].highest_weight, barred[0].highest_weight))

# Reciprocity: for each test module W and each realization, the two
# dimension counts agree.  The grid below prints the nonzero cells.
V = reps.vector_rep(ctx)
square = reps.tensor_rep(V, V)
tests = [("trivial", reps.trivial_rep(ctx)), ("vector", V)]
tests += [("square[%s]" % (s.highest_weight,), s.rep)
          for s in reps.decompose(square)]
print("reciprocity grid (only nonzero dimension counts shown):")
for k in range(3):
    for barred in (False, True):
        rep_h, _ = induction.build_induced(ctx, k, barred)
        for label, W in tests:
            lhs, rhs = induction.frobenius_dims(ctx, W, rep_h, k, barred)
            assert lhs == rhs, (k, barred, label)
            if lhs:
                print("  k=%d %s  W=%-18s dim %d = %d"
                      % (k, "barred" if barred else "plain ",
                         label, lhs, rhs))

# The two one-sided translation actions graded-commute: acting on one
# side never disturbs the module structure carried by the other.
from glq.coeff import ONE
from glq.superspace import SuperspaceElement, z_, zb_
from glq.uq import gen_E, gen_parity

f = induction.to_coordinate_element(
    ctx, SuperspaceElement.from_word(ctx, (z_(1), zb_(3))))
x, y = gen_E(2, 3), gen_E(3, 2)
left_of_right = induction.left_translation(
    ctx, x, induction.right_translation(ctx, y, f))
right_of_left = induction.right_translation(
    ctx, y, induction.left_translation(ctx, x, f))
sign = -1 if (gen_parity(ctx, x) * gen_parity(ctx, y)) % 2 else 1
if sign == -1:
    right_of_left = right_of_left.scale(-ONE)
print("sided translations commute up to the parity sign (%+d): %s"
      % (sign, left_of_right == right_of_left))
