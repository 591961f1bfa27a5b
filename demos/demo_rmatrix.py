"""
R-matrices, the braid relation, and exchange identities
=======================================================

Three exact operators live on pairs of the basic modules: one on
vector (x) vector, one on dual (x) dual, and one on the mixed pair.
Each intertwines the coproduct with its graded opposite; the first two
satisfy the braid relation on triple tensors; and all three satisfy
the exchange identity with the coordinate generator matrices.
"""

from glq.graded import GradingContext
import glq.rmatrix as rmatrix

ctx = GradingContext(1, 1)

# Build the vector-vector operator and show its matrix entries.
R, left, right = rmatrix.build_r_matrix(ctx, "pp")
print("vector-vector operator on the %d-dimensional tensor square:"
      % R.domain.dim)
for (r, c) in sorted(R.entries):
    print("  entry (%d, %d) = %s" % (r, c, R.entries[(r, c)]))

# The intertwining identity holds for every generator, for all three
# kinds, and the braid relation for the two like-type kinds.  Each check
# returns where it fails first, or None when it holds.
for kind in ("pp", "bb", "mixed"):
    inter = rmatrix.check_intertwiner(ctx, kind) is None
    braid_text = ("n/a (mixed pair)" if kind == "mixed"
                  else rmatrix.check_braid(ctx, kind) is None)
    print("kind %-5s  intertwiner: %s   braid: %s" % (kind, inter, braid_text))

# The classical limit: at q = 1 each operator degenerates to the
# identity matrix.
print("classical limit is the identity:",
      rmatrix.classical_limit_is_identity(R))

# Exchange identities with the coordinate matrices, verified by pairing
# both sides against probe elements of the enveloping algebra.  The
# operator is kept in element form here, with the displayed matrix-unit
# coefficients; the coordinate legs supply the grading signs.
for kind in ("pp", "bb", "mixed"):
    ok = rmatrix.check_rtt(ctx, kind, 3) is None
    print("exchange identity (%s) on probes of degree <= 3: %s" % (kind, ok))
