"""
Quantum projective superspace and its rewriting system
======================================================

The superspace algebra is generated by one row of plain coordinates and
one row of barred ones, subject to q-commutation rules, odd squares
vanishing, a crossing rule with correction terms, and a unit relation.
A confluent, terminating rewriting system computes normal forms; the
parser and printer round-trip them; and the invariant slice under the
circle action is extracted with honest rank certificates.
"""

from glq.graded import GradingContext
import glq.induction as induction
import glq.superspace as superspace
from glq.parser import format_normal_form, parse_superspace
from glq.superspace import SuperspaceElement, z_, zb_

ctx = GradingContext(1, 1)

# Rewriting a crossed word: the barred letter passes the plain one,
# picking up coefficients; the instrumented run also counts steps while
# asserting that the termination measure strictly drops at each one.
el = SuperspaceElement.from_word(ctx, (zb_(1), z_(1)))
nf, steps = superspace.normal_form(ctx, el, instrument=True)
print("zb_1 z_1 normalizes in %d steps to: %s"
      % (steps, format_normal_form(ctx, nf)))

# The printer and parser are inverse to each other on normal forms.
text = format_normal_form(ctx, nf)
print("round-trip through the printer:", parse_superspace(ctx, text) == nf)

# Independence of strategy: leftmost, rightmost, and seeded-random
# rule choices give identical normal forms on random words, the signed
# quadratic identity collapses to zero, and the unit relation holds.
report = superspace.verify_identities(ctx, seed=1, word_count=10, max_len=5)
for key in ("confluence", "derived_identity", "unit_relation",
            "unsigned_variant_nonzero"):
    print("%-25s %s" % (key + ":", report[key]))

# The circle-action weight counts barred letters minus plain ones; the
# invariant slice in bidegree (d, d) is enumerated with a functional
# rank certificate for linear independence.
for word in [(z_(1),), (zb_(1), zb_(2)), (z_(1), zb_(2))]:
    w = SuperspaceElement.from_word(ctx, word)
    print("circle weight of %s: %d"
          % (" ".join(("zb_" if l.barred else "z_") + str(l.index)
                      for l in word),
             superspace.gl1_weight(ctx, w)))
words, rank_value, deps = induction.cp_basis(ctx, 1)
print("invariant slice at degree (1,1): %d monomials, rank %d, "
      "dependencies %s" % (len(words), rank_value, deps or "none"))

# The coordinate co-action on a generator: one row of the coordinate
# matrix, with unit coefficients.
action = induction.coaction(ctx, SuperspaceElement.from_word(ctx, (z_(1),)))
print("co-action on z_1:")
for (space_word, coord_word), coeff in sorted(
        action.items(), key=lambda kv: repr(kv[0])):
    print("   %s (x) %s  ->  %s" % (space_word, coord_word, coeff))
