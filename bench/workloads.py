"""The benchmark's workloads: each is a list of `glq` CLI argument vectors.

Why these three, and which layer each one stresses:

* ``decompose`` -- tensor powers and induced modules.  `graded` echelon
  solves and the Q(q) gcd path do most of the work; every module is
  fresh, so the `reps` word caches are written, not read.  It is the
  bypass workload for any `coords` change.
* ``pairing`` -- R-matrix, coordinate and `verify` suites.  Pairings in
  `coords.evaluate_word` and cached `reps` word lookups do most of the
  work, and no echelon is built.  It is the bypass workload for any
  `graded` change.
* ``rewrite`` -- seeded products of linear forms in projective
  superspace, each sent through ``glq normalform``.  `superspace`
  rewriting and `parser` do most of the work, and almost every Q(q)
  coefficient has a one-term denominator, unlike ``decompose``.

The seed permutes the job order of every pass and generates the
``rewrite`` expressions; the program only ever sees the argv.
"""

import random

DECOMPOSE = (
    "decompose --m 2 --n 2 --word E --power 3",
    "decompose --m 2 --n 1 --word E --power 4",
    "decompose --m 3 --n 1 --word E --power 3",
    "decompose --m 2 --n 1 --word Ed --power 3",
    "decompose --m 1 --n 2 --word Ed --power 3",
    "induce --m 2 --n 2 --k 2 --side bar",
    "induce --m 2 --n 1 --k 3 --side unbar",
)

PAIRING = (
    "rmatrix --m 2 --n 2 --kind pp",
    "rmatrix --m 2 --n 2 --kind mixed",
    "rmatrix --m 2 --n 1 --kind bb",
    "coords --m 2 --n 2 --check antipode",
    "coords --m 2 --n 2 --check star",
    "verify --m 1 --n 1",
    "verify --m 2 --n 1",
    "verify --m 2 --n 2",
)

# (m, n, number of linear forms) for each normalform job.  Three jobs per
# size; the longer products at (1|1) keep the per-size cost comparable.
REWRITE_SLOTS = tuple((m, n, k) for m, n, k in
                      ((1, 1, 7), (2, 1, 6), (2, 2, 6), (3, 2, 6))
                      for _ in range(3))

# Integers and q-powers only: their products keep one-term denominators.
COEFFICIENTS = ("1", "2", "3", "-1", "-2", "q", "-q", "q^-1", "2*q",
                "3*q^-1")


def linear_form_product(rng, m, n, k, slot):
    """A product of k three-term linear forms in z[a] and zb[a].

    Which letters each form holds is fixed per (m, n, k, slot): the 3k
    letters of a balanced pool (plain and barred alternate, indices cycle
    through 1..m+n) dealt so that no form repeats a letter.  The seeded
    rng picks every coefficient and the order of the terms.  So every
    seed gives other products but nearly the same rewriting work: only
    cancellations between coefficients move the step count of
    ``normal_form``, which keeps timings of different seeds comparable.
    """
    deal = random.Random("forms-%d-%d-%d-%d" % (m, n, k, slot))
    N = m + n
    pool = [("z" if i % 2 == 0 else "zb", (i // 2) % N + 1)
            for i in range(3 * k)]
    while True:
        deal.shuffle(pool)
        forms = [pool[3 * i:3 * i + 3] for i in range(k)]
        if all(len(set(f)) == 3 for f in forms):
            break
    for form in forms:
        rng.shuffle(form)
    return "*".join(
        "(" + " + ".join("%s*%s[%d]" % (rng.choice(COEFFICIENTS), name, a)
                         for name, a in form) + ")"
        for form in forms)


def rewrite_jobs(seed):
    rng = random.Random("rewrite-%d" % seed)
    return tuple(("normalform", "--m", str(m), "--n", str(n),
                  linear_form_product(rng, m, n, k, slot))
                 for slot, (m, n, k) in enumerate(REWRITE_SLOTS))


def jobs(workload, seed):
    """The job list of a workload, one argv tuple per job."""
    if workload == "decompose":
        return tuple(tuple(j.split()) for j in DECOMPOSE)
    if workload == "pairing":
        return tuple(tuple(j.split()) for j in PAIRING)
    if workload == "rewrite":
        return rewrite_jobs(seed)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("decompose", "pairing", "rewrite")
