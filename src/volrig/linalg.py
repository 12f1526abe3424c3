"""Exact dense linear algebra over a large prime field or the rationals.

The two fields are values: GF, the prime field GF(DEFAULT_PRIME) that
every randomized computation defaults to, and QQ, the rationals.
Entries are plain Python ints (reduced mod q over a prime field) or, over
the rationals, ints and fractions.Fraction, so all arithmetic is exact;
there is no floating point anywhere in the package.  The numbers the
package makes over QQ, its constants 0 and 1 and its placement
coordinates, are ints, and QQ.of, for outside input, returns a Fraction.
So an integer matrix over QQ is eliminated in ints until a pivot other
than +-1 appears, and `fractions` is imported only where a Fraction is
made or tested.
"""

from __future__ import annotations

import operator
import random

from .errors import (BadParameters, DimensionMismatch, InstanceTooLarge,
                     NotInvertible)

# Primes available to randomized rank computations, indexed by the CLI's
# --prime flag.  Index 0 is the default.  Each prime must dwarf the degree
# of any determinant polynomial we evaluate, so that a single random trial
# misses the generic rank with probability at most degree/q.
PRIME_TABLE = (
    4611686018427387847,  # 2**62 - 57
    2305843009213693951,  # 2**61 - 1
    2147483647,           # 2**31 - 1
)
DEFAULT_PRIME = PRIME_TABLE[0]

# Largest dense matrix, in entries, that the package will build: the
# rigidity matrix (for generic ranks, independent facet columns, the
# rational rank and the CLI's counterexample, before it is built), the
# n x n generic basis of shifting, the
# f_{k-1} x C(n,k) shifting matrix of level k, the f x (n-d)(d-1)
# membership span matrix of the characteristic face, the predecessor
# span matrix of any set (checked from the count of predecessors, before
# they are listed), the wedge matrix on all C(n,d) sets or on given
# faces, and the boundary matrix.  Sparsity
# completion holds its a n - b facets to the same number, and a generic
# basis its minor memo, the one memo of reductions: f_{k-1} k x n
# reductions of basis rows (levels at k >= 4, vectors and spans at
# k >= 5).  On a 2-core VM
# (Python 3.11) sampling and checking an n = 500 basis (250k entries)
# took 15 s and 67 MB, growing as n^3; a
# 250k-entry wedge matrix builds and eliminates in under a second; the
# largest accepted partial-order shift, a 227k-entry shifting matrix
# (n = 30, one basis), runs in 0.7-1.3 s as a whole `shift --trials 1`
# job; and the largest accepted reductions, 63 of 62 x 63 per basis for
# the boundary of the 62-simplex, take 4-5 s as a whole `sigma0` job.
# The benchmark's largest are a 180 x 176 rigidity matrix, a 576-entry
# basis, a 16 x 120 shifting matrix, a 44 x 42 membership span matrix,
# a 3402-entry wedge matrix and a 280 x 140 boundary matrix.
MAX_DENSE_ENTRIES = 250_000


def check_dense_size(nrows: int, ncols: int, what: str) -> None:
    """Refuse, before allocating anything, a dense matrix too large to
    build and eliminate in reasonable time and memory."""
    if nrows * ncols > MAX_DENSE_ENTRIES:
        raise InstanceTooLarge("%s would be %d x %d, above the %d-entry limit"
                               % (what, nrows, ncols, MAX_DENSE_ENTRIES))


class PrimeField:
    """Arithmetic modulo a prime q; elements are ints in [0, q)."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if q < 2:
            raise BadParameters("modulus must be at least 2, got %r" % (q,))
        self.q = q

    zero = 0
    one = 1

    def of(self, x):
        """An int mod q, or a Fraction a/b as a times b's inverse; other
        values are refused rather than truncated."""
        if isinstance(x, int):
            return x % self.q
        from fractions import Fraction
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator % self.q) % self.q
        raise BadParameters("%r is not an integer or a fraction" % (x,))

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        try:
            return pow(a, -1, self.q)
        except ValueError:
            raise NotInvertible("%d has no inverse mod %d" % (a, self.q))

    def describe(self) -> str:
        return "GF(%d)" % self.q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return "PrimeField(%d)" % self.q


class RationalField:
    """Exact rational arithmetic on ints and fractions.Fraction.

    zero and one are the ints 0 and 1, and inv keeps +-1 an int, so a
    matrix built from these constants (a boundary matrix, the identity
    block of a kernel) stays in ints until a pivot other than +-1 appears;
    from there on the arithmetic is Fraction's.  of returns a Fraction,
    and refuses floats rather than take their binary expansions.
    """

    __slots__ = ()
    q = None

    zero = 0
    one = 1

    def of(self, x):
        """x as a Fraction, from an int, a Fraction or a string such as
        "3/7"."""
        if isinstance(x, float):
            raise BadParameters("%r is a float, not an exact rational" % (x,))
        from fractions import Fraction
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotInvertible("zero is not invertible")
        if a == 1 or a == -1:
            return a
        from fractions import Fraction
        return 1 / Fraction(a)

    def describe(self) -> str:
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()
GF = PrimeField(DEFAULT_PRIME)


def echelon_insert(rows: list, vec, field):
    """Reduce vec against semi-echelon rows: the one elimination routine,
    behind ExactMatrix's rank, span, determinant and kernel, the spans
    of shifting and the cofactors of rigidity from d = 5 on.

    A row is (pivot, [(column, entry)] of its nonzeros): its pivot entry
    is one and every earlier row's pivot column is zero in it.  So
    clearing each row's pivot in turn leaves the earlier pivots cleared,
    and what remains of vec, scaled by the inverse of its leading entry,
    is such a row for the rows given.  Returns that row and the leading
    entry before scaling, or (None, zero) when vec is in the rows' span.
    Rows are never changed, so spans may share them.  Over GF(q) entries
    of vec are reduced only where read, and once at the end.
    """
    q = field.q
    v = list(vec)
    for p, terms in rows:
        c = v[p]
        if c and q:
            c %= q
        if c:
            for j, x in terms:
                v[j] -= c * x
    new = ([(j, r) for j, x in enumerate(v) if x and (r := x % q)] if q
           else [(j, x) for j, x in enumerate(v) if x])
    if not new:
        return None, field.zero
    p, lead = new[0]
    if lead != 1:
        s = field.inv(lead)
        new = ([(j, x * s % q) for j, x in new] if q
               else [(j, x * s) for j, x in new])
    return (p, new), lead


def _semi_echelon(vectors, dim: int, field) -> list:
    """Semi-echelon rows spanning length-dim vectors, read until full."""
    rows = []
    for vec in vectors:
        if len(rows) == dim:
            break
        row, _ = echelon_insert(rows, vec, field)
        if row:
            rows.append(row)
    return rows


def _det_at(data, rows, cols, field):
    """det of the rows of data at the given row and column indices.
    Sizes 1 to 3 are closed forms read straight from the entries, and
    other sizes multiply the leads of the gathered rows (_signed_leads)."""
    size = len(rows)
    if size > 3 or not size:
        return _signed_leads(([data[r][c] for c in cols] for r in rows),
                             field)[1]
    if size == 1:
        x = data[rows[0]][cols[0]]
    elif size == 2:
        (a, b), (i, j) = [data[r] for r in rows], cols
        x = a[i] * b[j] - a[j] * b[i]
    else:
        (a, b, c), (i, j, k) = [data[r] for r in rows], cols
        x = (a[i] * (b[j] * c[k] - b[k] * c[j])
             - a[j] * (b[i] * c[k] - b[k] * c[i])
             + a[k] * (b[i] * c[j] - b[j] * c[i]))
    q = field.q
    return x % q if q else x


def _last_column_cofactors(a, b, c, e, i, j, l, q):
    """The four coefficients (-1)^(r+1) det(the rows other than the r-th
    of a, b, c, e at columns i, j, l), r = 0..3: expanding det of the
    rows at columns (i, j, l, t) along its last column gives the sum of
    coefficient r times row r's entry at t.  They are built from the six
    2 x 2 minors at (j, l), each reduced once mod q (not at all for q
    None, over QQ)."""
    ab = a[j] * b[l] - a[l] * b[j]
    ac = a[j] * c[l] - a[l] * c[j]
    ae = a[j] * e[l] - a[l] * e[j]
    bc = b[j] * c[l] - b[l] * c[j]
    be = b[j] * e[l] - b[l] * e[j]
    ce = c[j] * e[l] - c[l] * e[j]
    out = (c[i] * be - b[i] * ce - e[i] * bc,
           a[i] * ce - c[i] * ae + e[i] * ac,
           b[i] * ae - a[i] * be - e[i] * ab,
           a[i] * bc - b[i] * ac + c[i] * ab)
    return [x % q for x in out] if q else list(out)


def _signed_leads(vectors, field):
    """Semi-echelon rows of k vectors of one length and the product of
    their leads, signed by the order of their pivots, or (None, zero)
    when they are dependent.  When the vectors are the rows of a k x k
    matrix that product is its determinant: in pivot order the leads sit
    on the diagonal, and each inversion flips the sign.  Over QQ a whole
    product is an int (_whole)."""
    q = field.q
    ech, det = [], field.one
    for vec in vectors:
        row, lead = echelon_insert(ech, vec, field)
        if row is None:
            return None, field.zero
        if sum(p > row[0] for p, _ in ech) % 2:
            lead = -lead
        ech.append(row)
        det = det * lead % q if q else det * lead
    return ech, det if q else _whole(det)


def _whole(x):
    """A rational x as an int when it is whole, like every number the
    package makes over QQ, where elimination makes Fractions."""
    return x.numerator if x.denominator == 1 else x


def _reduced(ech: list, n: int, field) -> list:
    """The (unique) reduced echelon form of semi-echelon rows of length
    n, in reverse row order.  Reducing each row against the later ones,
    last row first, clears every other pivot and keeps each lead at
    one."""
    rref = []
    for p, terms in reversed(ech):
        v = [field.zero] * n
        for j, x in terms:
            v[j] = x
        rref.append(echelon_insert(rref, v, field)[0])
    return rref


class ExactMatrix:
    """Dense matrix over a PrimeField or RationalField.

    Rank, column span, determinant and kernel all insert rows (columns,
    for a span) into semi-echelon form with echelon_insert, in plain
    Python arithmetic (reduced mod q over a prime field, bare int and
    Fraction operators over QQ: an integer matrix stays in ints until a
    pivot other than +-1).  Determinants and minors up to 3 x 3 use
    closed forms instead (_det_at).  Nothing is memoised here: the one
    minor memo is a generic basis's (shifting.GenericBasis.minor).
    """

    __slots__ = ("nrows", "ncols", "data", "field")

    def __init__(self, data, field, _trusted=False):
        if _trusted:
            self.data = data
        else:
            self.data = [[field.of(x) for x in row] for row in data]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows in matrix data")
        self.field = field

    @classmethod
    def zeros(cls, nrows, ncols, field):
        z = field.zero
        return cls([[z] * ncols for _ in range(nrows)], field, _trusted=True)

    def _reduce(self, x):
        q = self.field.q
        return x % q if q else x

    def _dot(self, a, b):
        return self._reduce(sum(map(operator.mul, a, b), self.field.zero))

    def mul_vec(self, vec):
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length %d, matrix has %d columns"
                                    % (len(vec), self.ncols))
        return [self._dot(row, vec) for row in self.data]

    def rank(self) -> int:
        return len(_semi_echelon(self.data, self.ncols, self.field))

    def in_column_span(self, vec) -> bool:
        """Whether vec is a linear combination of this matrix's columns."""
        if len(vec) != self.nrows:
            raise DimensionMismatch("vector length %d, matrix has %d rows"
                                    % (len(vec), self.nrows))
        f = self.field
        rows = _semi_echelon(zip(*self.data), self.nrows, f)
        return echelon_insert(rows, [f.of(x) for x in vec], f)[0] is None

    def right_kernel(self) -> "ExactMatrix":
        """Basis of the null space, one basis vector per column: for each
        free column of the reduced echelon form, the vector with a one
        there and zeros at the other free columns."""
        f, n = self.field, self.ncols
        piv = {p: dict(terms) for p, terms
               in _reduced(_semi_echelon(self.data, n, f), n, f)}
        free = [c for c in range(n) if c not in piv]
        data = [[f.neg(piv[i].get(fc, f.zero)) if i in piv
                 else f.one if i == fc else f.zero for fc in free]
                for i in range(n)]
        return ExactMatrix(data, f, _trusted=True)

    def det(self, rows=None, cols=None):
        """Determinant, or the minor at the given 0-based row and column
        index tuples (see _det_at)."""
        rows = range(self.nrows) if rows is None else rows
        cols = range(self.ncols) if cols is None else cols
        if len(rows) != len(cols):
            raise DimensionMismatch("determinant of a %dx%d matrix"
                                    % (len(rows), len(cols)))
        return _det_at(self.data, rows, cols, self.field)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and other.field == self.field
                and other.data == self.data)

    def __repr__(self):
        return "ExactMatrix(%dx%d over %s)" % (self.nrows, self.ncols,
                                               self.field.describe())


def seeded_rng(seed: int) -> random.Random:
    """random.Random(seed), refusing a negative seed: Random seeds with
    |seed|, so seed -s would repeat the draws of seed s, and the trials
    seed + t of a negative seed would not all differ."""
    if seed < 0:
        raise BadParameters("seed must be at least 0, got %d" % seed)
    return random.Random(seed)


def sample_generic_matrix(nrows: int, ncols: int, seed: int,
                          first_column_ones: bool = False,
                          field: PrimeField = GF) -> ExactMatrix:
    """Matrix with entries drawn uniformly from the field by a seeded RNG.

    Entries are drawn row by row, left to right, so the result is a pure
    function of (nrows, ncols, seed, field).  With first_column_ones the
    first column is overwritten with ones after sampling.
    """
    if field.q is None:
        raise BadParameters("uniform sampling needs a finite field")
    if nrows < 0 or ncols < 0:
        raise BadParameters("negative matrix shape")
    rng = seeded_rng(seed)
    q = field.q
    data = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
    if first_column_ones and ncols > 0:
        for row in data:
            row[0] = field.one
    return ExactMatrix(data, field, _trusted=True)
