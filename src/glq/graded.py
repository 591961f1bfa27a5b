"""Z2-graded linear algebra over Q(q) with Koszul sign bookkeeping.

A grading context fixes the two block sizes (m even basis labels, n odd
ones, labels 1..m+n) and provides parities, the signs sigma_a, and the
weight 2*rho that controls the square of the antipode.

Graded vector spaces are just parity tuples; linear maps are sparse
matrices over Q(q) tagged with their domain and codomain.  The tensor
product of maps follows the Koszul convention

    (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w),

entrywise (A (x) B)[(r1,r2),(c1,c2)] = (-1)^{(|r2|+|c2|)|c1|} A[r1,c1] B[r2,c2],
with row-major flattening of index pairs.

The module also provides exact echelon-form routines (incremental span
tracking, nullspaces, linear solving, inverses) used throughout for
weight-space and intertwiner computations.
"""

from .coeff import RatFunc, ZERO, ONE, add_term


class GradingContext:
    """Block sizes and sign conventions for a fixed (m, n)."""

    __slots__ = ("m", "n", "N")

    def __init__(self, m, n):
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m, n >= 0 with m + n >= 1")
        self.m = m
        self.n = n
        self.N = m + n

    def parity(self, a):
        """Parity of basis label a (1-indexed): 0 for a <= m, else 1."""
        if not 1 <= a <= self.N:
            raise ValueError("basis label %r out of range" % (a,))
        return 0 if a <= self.m else 1

    def sigma(self, a):
        """(-1)^parity(a) as an integer."""
        return 1 if self.parity(a) == 0 else -1

    def eps(self, a):
        """Weight of the a-th vector basis element, as an exponent tuple."""
        return tuple(1 if b == a else 0 for b in range(1, self.N + 1))

    def two_rho_eps(self, c):
        """(2 rho, eps_c) = sum_{b>c} sigma_b - sum_{b<c} sigma_b."""
        return (sum(self.sigma(b) for b in range(c + 1, self.N + 1))
                - sum(self.sigma(b) for b in range(1, c)))

    def k2rho_exponents(self):
        """Exponents n_a with K_{2 rho} = prod_a K_a^{n_a}."""
        return tuple(self.sigma(a) * self.two_rho_eps(a)
                     for a in range(1, self.N + 1))

    def __eq__(self, other):
        return (isinstance(other, GradingContext)
                and (self.m, self.n) == (other.m, other.n))

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return "GradingContext(m=%d, n=%d)" % (self.m, self.n)


class GradedSpace:
    """A finite-dimensional Z2-graded space: a tuple of basis parities."""

    __slots__ = ("parities", "_hash")

    def __init__(self, parities):
        self.parities = tuple(int(p) % 2 for p in parities)
        self._hash = None

    @property
    def dim(self):
        return len(self.parities)

    def parity(self, i):
        return self.parities[i]

    def tensor(self, other):
        """Row-major tensor product: index (i, j) -> i * other.dim + j."""
        return GradedSpace(tuple(p + r
                                 for p in self.parities
                                 for r in other.parities))

    def __eq__(self, other):
        return (isinstance(other, GradedSpace)
                and self.parities == other.parities)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.parities)
        return self._hash

    def __repr__(self):
        return "GradedSpace(%r)" % (self.parities,)


class GradedMap:
    """Sparse matrix over Q(q) with graded domain and codomain.

    Entries are stored as {(row, col): RatFunc}, zeros omitted.  Vectors
    are dicts {index: RatFunc}.  Only the constructor writes ``entries``;
    every operation builds its dict first and a new map from it.  So the
    column index that ``apply`` or ``compose`` builds on first use never
    goes stale, and a cached word image is indexed once however many
    letters extend it.
    """

    __slots__ = ("domain", "codomain", "entries", "_by_col")

    def __init__(self, domain, codomain, entries=None):
        self.domain = domain
        self.codomain = codomain
        self.entries = {}
        if entries:
            for rc, v in entries.items():
                if v:
                    self.entries[rc] = v
        self._by_col = None

    @staticmethod
    def identity(space):
        return GradedMap(space, space,
                         {(i, i): ONE for i in range(space.dim)})

    @staticmethod
    def zero(domain, codomain):
        return GradedMap(domain, codomain)

    def get(self, r, c):
        return self.entries.get((r, c), ZERO)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.entries == other.entries)

    def __add__(self, other):
        if (other.domain != self.domain
                or other.codomain != self.codomain):
            raise ValueError("sum of maps between different spaces")
        out = dict(self.entries)
        for rc, v in other.entries.items():
            add_term(out, rc, v)
        return GradedMap(self.domain, self.codomain, out)

    def __neg__(self):
        return GradedMap(self.domain, self.codomain,
                         {rc: -v for rc, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if isinstance(s, int):
            s = RatFunc.from_int(s)
        if not s:
            return GradedMap.zero(self.domain, self.codomain)
        return GradedMap(self.domain, self.codomain,
                         {rc: v * s for rc, v in self.entries.items()})

    def _columns(self):
        """The entries by column, {col: [(row, value)]}, in entry order."""
        by_col = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        return by_col

    def compose(self, other):
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition domain mismatch")
        # The left factor keeps its column index, as in apply: a word
        # image in Representation's cache is composed with every letter
        # that extends it.
        if self._by_col is None:
            self._by_col = self._columns()
        by_col = self._by_col
        out = {}
        for (r2, c2), v2 in other.entries.items():
            for r1, v1 in by_col.get(r2, ()):
                add_term(out, (r1, c2), v1 * v2)
        return GradedMap(other.domain, self.codomain, out)

    __matmul__ = compose

    def apply(self, vec):
        """Apply to a sparse column vector {index: RatFunc}, walking only
        the columns in its support."""
        if self._by_col is None:
            self._by_col = self._columns()
        by_col = self._by_col
        out = {}
        for c, x in vec.items():
            if x:
                for r, v in by_col.get(c, ()):
                    add_term(out, r, v * x)
        return out

    def tensor(self, other):
        """Koszul tensor product of maps (row-major index flattening)."""
        dom = self.domain.tensor(other.domain)
        cod = self.codomain.tensor(other.codomain)
        d2 = other.domain.dim
        c2 = other.codomain.dim
        pr = other.codomain.parities
        pc = other.domain.parities
        p1c = self.domain.parities
        out = {}
        for (r1, cc1), v1 in self.entries.items():
            for (r2, cc2), v2 in other.entries.items():
                sgn = (pr[r2] + pc[cc2]) * p1c[cc1]
                val = v1 * v2
                if sgn % 2:
                    val = -val
                out[(r1 * c2 + r2, cc1 * d2 + cc2)] = val
        return GradedMap(dom, cod, out)

    def transpose(self):
        return GradedMap(self.codomain, self.domain,
                         {(c, r): v for (r, c), v in self.entries.items()})

    def specialize(self, q0):
        """Dense Fraction matrix at q = q0, as list of rows."""
        rows = [[None] * self.domain.dim for _ in range(self.codomain.dim)]
        for r in range(self.codomain.dim):
            for c in range(self.domain.dim):
                rows[r][c] = self.get(r, c).specialize(q0)
        return rows

    def __repr__(self):
        return ("GradedMap(%dx%d, %d nonzero)"
                % (self.codomain.dim, self.domain.dim, len(self.entries)))


def first_difference(lhs, rhs):
    """None when the two maps are equal; else the smallest (row, col)
    entry of lhs - rhs and its value there, as (entry, residual)."""
    if lhs == rhs:
        return None
    diff = lhs - rhs
    entry = min(diff.entries)
    return entry, diff.entries[entry]


def graded_flip(space1, space2):
    """The graded swap v (x) w -> (-1)^{|v||w|} w (x) v as a GradedMap."""
    dom = space1.tensor(space2)
    cod = space2.tensor(space1)
    d1 = space1.dim
    d2 = space2.dim
    out = {}
    for i in range(d1):
        for j in range(d2):
            sgn = space1.parities[i] * space2.parities[j]
            v = ONE if sgn % 2 == 0 else -ONE
            out[(j * d1 + i, i * d2 + j)] = v
    return GradedMap(dom, cod, out)


# ---------------------------------------------------------------------------
# Exact echelon-form linear algebra on sparse dict vectors.
# ---------------------------------------------------------------------------


def vec_scale(vec, s):
    if not s:
        return {}
    return {i: x * s for i, x in vec.items()}


def vec_sub_scaled(vec, other, s):
    """vec - s * other, in place on a copy."""
    out = dict(vec)
    for i, x in other.items():
        add_term(out, i, -(s * x))
    return out


class Echelon:
    """Incrementally maintained reduced echelon basis of a span."""

    __slots__ = ("rows",)

    def __init__(self):
        # pivot column -> vector normalised to have entry 1 there
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec modulo the current span."""
        vec = {i: x for i, x in vec.items() if x}
        for piv in sorted(set(vec) & set(self.rows)):
            x = vec.get(piv)
            if x:
                vec = vec_sub_scaled(vec, self.rows[piv], x)
        return vec

    def add(self, vec):
        """Insert vec; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        # The smallest entry by term count, to keep fractions small.
        piv = min(res, key=lambda i: (res[i].term_count(), i))
        inv = res[piv].inverse()
        row = vec_scale(res, inv)
        # back-substitute into existing rows to stay fully reduced
        for p, r in list(self.rows.items()):
            x = r.get(piv)
            if x:
                self.rows[p] = vec_sub_scaled(r, row, x)
        self.rows[piv] = row
        return True

    def basis(self):
        return [dict(r) for _, r in sorted(self.rows.items())]


def rank(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.dim


def nullspace(rows, ncols):
    """Kernel basis of the matrix whose rows are the given dict vectors.

    Returns a list of dict vectors {col: RatFunc} spanning
    {x : sum_c row[c] x[c] = 0 for every row}.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    pivots = set(ech.rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: ONE}
        for piv, row in ech.rows.items():
            x = row.get(f)
            if x:
                vec[piv] = -x
        basis.append(vec)
    return basis


def solve(rows, ncols, rhs):
    """One solution x of the linear system rows . x = rhs, or None.

    rows is a list of dict vectors (the matrix rows), rhs a list of
    RatFunc of the same length.  Solutions x with A x = b correspond to
    kernel vectors of [A | -b] whose last coordinate is 1.
    """
    aug = ncols
    augmented = []
    for row, b in zip(rows, rhs):
        v = dict(row)
        if b:
            v[aug] = -b
        augmented.append(v)
    for vec in nullspace(augmented, ncols + 1):
        t = vec.get(aug)
        if t:
            inv = t.inverse()
            return {c: x * inv for c, x in vec.items() if c != aug}
    return None


def invert(mat):
    """Exact inverse of a square GradedMap, one solve per column, or None
    if it is singular."""
    d = mat.domain.dim
    rows = [{} for _ in range(d)]
    for (r, c), v in mat.entries.items():
        rows[r][c] = v
    ent = {}
    for j in range(d):
        x = solve(rows, d, [ONE if i == j else ZERO for i in range(d)])
        if x is None:
            return None
        for i, v in x.items():
            ent[(i, j)] = v
    return GradedMap(mat.domain, mat.domain, ent)


def tensor_unindex(flat, dims):
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def joint_kernel(maps):
    """Basis of the common kernel of the given maps on a shared domain,
    as a list of sparse coordinate vectors."""
    if not maps:
        raise ValueError("need at least one map")
    dim = maps[0].domain.dim
    rows = []
    for m in maps:
        if m.domain.dim != dim:
            raise ValueError("maps must share a domain")
        by_row = {}
        for (r, c), v in m.entries.items():
            by_row.setdefault(r, {})[c] = v
        rows.extend(by_row.values())
    return nullspace(rows, dim)
