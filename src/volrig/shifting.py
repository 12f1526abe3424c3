"""Exterior shifting through compound coordinates of a generic basis.

Fix a basis f_1, ..., f_n of n-space with f_1 the all-ones vector and
the other entries random field elements.  For a size-k label set sigma,
the wedge f_sigma = f_{sigma_1} ^ ... ^ f_{sigma_k} has one coordinate
per size-k subset tau of the labels, namely the minor det A[tau, sigma].
Working inside a complex K means keeping only the coordinates at K's
own size-k faces (the quotient by missing faces).  A set sigma belongs
to the shifted family when its quotient vector escapes the span of the
vectors of all strictly smaller sets, in the chosen order on sets.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, combinations, groupby, takewhile
from math import comb
from operator import le

# Only the wedge map and placement_from_basis reach rigidity, so sigma0 and
# shift leave it unexecuted.
from . import rigidity
from .complexes import SimplicialComplex, as_face, k_faces
from .errors import (BadParameters, DimensionMismatch, GenericityFailure,
                     SingularBasis, SizeExceedsDimension, VertexOutOfRange)
from .linalg import (GF, ExactMatrix, _det_at, _last_column_cofactors,
                     _reduced, _signed_leads, check_dense_size,
                     echelon_insert, sample_generic_matrix)

# Failed nonsingularity draws retry with seed + (attempt << 32), keeping
# distinct attempts and distinct base seeds from colliding.
_RESEED_SHIFT = 32
_MAX_ATTEMPTS = 16


class GenericBasis:
    """Nonsingular n x n matrix whose first column is all ones.

    Column j holds the basis vector f_{j+1}; the all-ones first column
    pins down the one non-random basis vector the theory requires.
    """

    __slots__ = ("n", "matrix", "_minors")

    def __init__(self, n: int, matrix: ExactMatrix):
        self.n = n
        self.matrix = matrix
        self._minors = {}

    @property
    def field(self):
        return self.matrix.field

    def minor(self, rows: tuple, cols):
        """det of the basis matrix at a 0-based row index tuple and
        ascending column indices: the compound coordinates of the level
        walks and, at k <= 2 and k >= 5, of compound vectors and spans.
        Up to 3 x 3 this is the matrix's det.  Above, M[rows, :] = L R is
        reduced once and memoised in _minors under rows (k x n entries),
        which the sets of a level at k >= 4, or of a vector or span at
        k >= 5, share: R in reduced echelon form, its rows sorted by
        pivot, and lead = det L.  The minor is lead det R[:, cols].  R's
        pivot columns are unit vectors, so this is lead times
        (-1)^(sum of out + sum of miss) det R[miss, out], for the rows
        miss whose pivots cols leave out and the positions out in cols
        of the columns that replace them: one entry of R when cols miss
        one pivot, a small determinant when they miss more.
        """
        k = len(rows)
        if k <= 3:
            return self.matrix.det(rows, cols)
        if len(cols) != k:
            raise DimensionMismatch("determinant of a %dx%d matrix"
                                    % (k, len(cols)))
        f, n = self.field, self.n
        red = self._minors.get(rows)
        if red is None:
            ech, lead = _signed_leads((self.matrix.data[r] for r in rows), f)
            where, rref = [None] * n, []
            for i, (p, terms) in enumerate(sorted(_reduced(ech, n, f))
                                           if ech else ()):
                where[p] = i
                rref.append([f.zero] * n)
                for j, x in terms:
                    rref[i][j] = x
            red = self._minors[rows] = (lead, where, rref)
        lead, where, rref = red
        hit = [where[c] for c in cols]
        if lead and None in hit:
            out = [t for t, i in enumerate(hit) if i is None]
            miss = sorted(set(range(k)).difference(hit))
            lead = f.mul(lead, _det_at(rref, miss, [cols[t] for t in out], f))
            if (sum(out) + sum(miss)) % 2:
                lead = f.neg(lead)
        return lead


def generic_basis(n: int, seed: int = 0, field=GF) -> GenericBasis:
    if n < 1:
        raise BadParameters("need at least one vertex")
    check_dense_size(n, n, "generic basis")
    for attempt in range(_MAX_ATTEMPTS):
        m = sample_generic_matrix(n, n, seed + (attempt << _RESEED_SHIFT),
                                  first_column_ones=True, field=field)
        if m.rank() == n:
            return GenericBasis(n=n, matrix=m)
    raise SingularBasis("no nonsingular sample in %d attempts (n=%d, seed=%d)"
                        % (_MAX_ATTEMPTS, n, seed))


def componentwise_leq(sigma, tau) -> bool:
    """Partial order on equal-size label sets: each slot no larger."""
    s, t = as_face(sigma), as_face(tau)
    return len(s) == len(t) and all(a <= b for a, b in zip(s, t))


def characteristic_face(d: int, n: int):
    """The size-d set {1, 3, 4, ..., d, n} whose membership in the
    shifted family decides volume rigidity."""
    if d < 3 or n < d + 1:
        raise BadParameters("need d >= 3 and n >= d+1, got d=%d n=%d" % (d, n))
    return (1,) + tuple(range(3, d + 1)) + (n,)


def _down_set(sigma) -> list:
    """All sets componentwise below sigma, sigma last, in lex order: the
    i-th label runs from one past the (i-1)-th up to sigma's i-th, and
    extending lex-sorted prefixes by increasing labels keeps lex order."""
    out = [()]
    for s in sigma:
        out = [t + (x,) for t in out
               for x in range((t[-1] if t else 0) + 1, s + 1)]
    return out


def characteristic_prefix(d: int, n: int) -> list:
    """All size-d sets componentwise below the characteristic face, lex
    sorted with the face last.

    Explicitly: [d] itself plus [d] minus {i} plus {v} for 2 <= i <= d
    and d+1 <= v <= n, so 1 + (n-d)(d-1) sets in total.
    """
    return _down_set(characteristic_face(d, n))


def compound_vector(basis: GenericBasis, K: SimplicialComplex, sigma) -> list:
    """Coordinates of the wedge of basis vectors sigma against K's faces.

    Entry order follows k_faces(K, len(sigma)-1), i.e. lex on the faces;
    entries at faces missing from K are simply not represented.  It is
    _compound_rows' one column at sigma, which bounds its memo at k >= 5.
    """
    sigma = as_face(sigma)
    k = len(sigma)
    if not k:
        raise BadParameters("sigma must have at least one label")
    if k > K.d:
        raise SizeExceedsDimension("|sigma|=%d exceeds facet cardinality %d"
                                   % (k, K.d))
    if sigma[-1] > basis.n:
        raise VertexOutOfRange("sigma %r exceeds basis size n=%d"
                               % (sigma, basis.n))
    return [row[0] for row in
            _compound_rows(basis, _face_rows(K, k, basis), [sigma])]


def _face_rows(K: SimplicialComplex, k: int, basis: GenericBasis) -> list:
    """0-based index tuples of K's size-k faces in lex order: the row
    indices of every size-k compound vector against K.  Built from lists:
    CPython resizes a tuple built from a generator, so each call would
    grow the free list of another tuple size, up to its cap."""
    if K.n != basis.n:
        raise DimensionMismatch("complex has n=%d, basis has n=%d"
                                % (K.n, basis.n))
    return [tuple([t - 1 for t in tau]) for tau in k_faces(K, k - 1)]


def _check_reductions(face_rows: list, n: int) -> None:
    """Before a walk that takes basis.minor at every face of face_rows,
    refuse k >= 4 with f_{k-1} k n above the dense-entry limit: that is
    what GenericBasis.minor memoises from k = 4 on, a reduced k x n
    matrix per face.  The level walks call it, and _compound_rows where
    it takes minors (k <= 2 and k >= 5); vectors and spans at k = 3 and
    4 expand their entries and fill no memo."""
    k = len(face_rows[0])
    if k >= 4:
        check_dense_size(len(face_rows) * k, n,
                         "size-%d compound reductions" % k)


def _predecessors(sigma, n: int, order: str) -> list:
    """The size-k sets strictly below sigma in the order, sorted lex: for
    the partial order, sigma's down-set without sigma; for lex, every
    size-k subset of 1..n that sorts before sigma."""
    if order == "p":
        return _down_set(sigma)[:-1]
    if order == "lex":
        return list(takewhile(sigma.__gt__,
                              combinations(range(1, n + 1), len(sigma))))
    raise BadParameters("order must be 'p' or 'lex', got %r" % (order,))


def _predecessor_count(sigma, n: int, order: str) -> int:
    """len(_predecessors(sigma, n, order)), counted without listing them.

    For lex, a set sorts before sigma when it agrees with sigma before
    some slot i and holds a smaller label x there, with the remaining
    k-1-i labels above x.  For the partial order, ends[x] counts the
    increasing label sequences so far that end at x and stay below sigma
    slot by slot; sigma itself is the one sequence left out.
    """
    k = len(sigma)
    if order == "lex":
        return sum(comb(n - x, k - 1 - i) for i, s in enumerate(sigma)
                   for x in range((sigma[i - 1] if i else 0) + 1, s))
    if order == "p":
        ends = [1]  # the empty sequence, ending below every label
        for s in sigma:
            ends = [0, *accumulate(ends + [0] * (s - len(ends)))]
        return sum(ends) - 1
    raise BadParameters("order must be 'p' or 'lex', got %r" % (order,))


def _predecessor_span(K: SimplicialComplex, sigma, basis: GenericBasis,
                      order: str) -> ExactMatrix:
    """Columns: the compound vectors of sigma's order-predecessors, in
    _predecessors order and counted before they are listed; rows: K's
    size-k faces."""
    face_rows = _face_rows(K, len(sigma), basis)
    check_dense_size(len(face_rows), _predecessor_count(sigma, basis.n, order),
                     "predecessor span matrix")
    return ExactMatrix(_compound_rows(basis, face_rows,
                                      _predecessors(sigma, basis.n, order)),
                       basis.field, _trusted=True)


def _compound_rows(basis: GenericBasis, face_rows: list, sets) -> list:
    """A row per face of face_rows (from _face_rows), a column per label
    set of size k in sets: the entry at face F and set t is det B[F, t],
    B the basis matrix.  For k = 3 and 4 it is expanded along the column
    of t's last label: sum over r of (-1)^(r+k-1) B[F_r, t_k]
    det B[F - F_r, t[:-1]], r 0-based.  Adjacent sets sharing their
    first k - 1 labels (lex sorted predecessors do) form a group; per
    face and group the k cofactors are taken once (_expanded_row), and
    each set then costs one k-term product.  The characteristic face's
    predecessors fall into d - 1 groups.  For k <= 2, and for k >= 5,
    where a cofactor of size 4 or more costs a reduction of its own rows
    (one per face and r, instead of one per face), each entry is
    basis.minor, after _check_reductions."""
    cols = [tuple([s - 1 for s in t]) for t in sets]
    if len(face_rows[0]) not in (3, 4):
        _check_reductions(face_rows, basis.n)
        return [[basis.minor(rows, c) for c in cols] for rows in face_rows]
    groups = [(head, [t[-1] for t in ts])
              for head, ts in groupby(cols, key=lambda t: t[:-1])]
    return [_expanded_row(basis, rows, groups) for rows in face_rows]


def _expanded_row(basis: GenericBasis, rows: tuple, groups: list) -> list:
    """The entries det B[rows, head + (last,)] of one face, for each
    (head, lasts) in groups and each last in lasts, by expansion along
    the last column.  At k = 3 the 2 x 2 cofactors and the products are
    written out; at k = 4 the signed 3 x 3 cofactors come from the
    face's six 2 x 2 minors at the head's last two labels
    (linalg._last_column_cofactors).  Each entry is reduced once mod q
    (not at all over QQ)."""
    data, q = basis.matrix.data, basis.field.q
    vecs = [data[r] for r in rows]
    out = []
    if len(rows) == 3:
        a, b, c = vecs
        for (i, j), lasts in groups:
            x = b[i] * c[j] - b[j] * c[i]
            y = a[j] * c[i] - a[i] * c[j]
            z = a[i] * b[j] - a[j] * b[i]
            if q:
                out += [(a[t] * x + b[t] * y + c[t] * z) % q for t in lasts]
            else:
                out += [a[t] * x + b[t] * y + c[t] * z for t in lasts]
        return out
    a, b, c, e = vecs
    for head, lasts in groups:
        w, x, y, z = _last_column_cofactors(a, b, c, e, *head, q)
        if q:
            out += [(a[t] * w + b[t] * x + c[t] * y + e[t] * z) % q
                    for t in lasts]
        else:
            out += [a[t] * w + b[t] * x + c[t] * y + e[t] * z for t in lasts]
    return out


def in_shifted_family(K: SimplicialComplex, sigma, basis: GenericBasis,
                      order: str = "p") -> bool:
    """Definitional membership test: does the compound vector of sigma
    escape the column span of its _predecessor_span?"""
    sigma = as_face(sigma)
    vec = compound_vector(basis, K, sigma)
    return not _predecessor_span(K, sigma, basis, order).in_column_span(vec)


def _covers(sigma):
    """Each set just below sigma, with entry i lowered by one, as (i, set)."""
    for i, s in enumerate(sigma):
        if s - 1 > (sigma[i - 1] if i else 0):
            yield i, sigma[:i] + (s - 1,) + sigma[i + 1:]


def shifted_level(K: SimplicialComplex, k: int, basis: GenericBasis,
                  order: str = "p") -> list:
    """All size-k members of the shifted family, sorted lex.

    Under lex the levels k = 1..d make up Kalai's exterior shift Delta(K):
    a shifted complex with as many size-k sets as K has size-k faces,
    off which K's reduced Betti numbers read as b_{k-1}(K) = #{S in level
    k : 1 not in S, {1} + S not in level k+1} (Bjorner and Kalai).  Under the
    partial order the family is the one whose characteristic face
    decides volume rigidity; its levels can hold more sets than K has
    size-k faces, and from d = 4 on a rigid complex's characteristic
    face can lie outside the lex level.

    Lex is a total order, so the span of all earlier vectors is the span
    of the earlier members, kept as the semi-echelon rows
    (linalg.echelon_insert) of the members found so far, and a set is a
    member when its vector escapes them.  The sets are drawn lazily, and
    once the rows span all of K's size-k faces no later vector can
    escape, so the walk stops there.

    For the partial order the sets are walked in lex order, which extends
    the partial order, so each set comes after its whole down-set.  The
    span of a down-set's vectors is the span of the vectors of the
    members in it (induction along the order: a non-member's vector lies
    in the span of its own strict down-set).  Each set keeps the
    semi-echelon rows of the span of its closed down-set.  If c lowers
    slot i of sigma, a set tau below sigma lies below c exactly when
    tau_i < sigma_i, so sigma's strict down-set spans the rows of c plus
    the vectors of the members m below sigma with m_i = sigma_i.  The
    cover with the most rows is taken; sigma is a member when its vector
    escapes that span.  This is the definitional test of
    in_shifted_family, reducing a few vectors against shared rows per
    set (linalg.echelon_insert, which never changes the rows it is given)
    instead of inserting every predecessor's vector anew.  A span of full
    dimension (one row per size-k face of K) admits no member above it,
    so such a set skips the merge and its own vector.
    """
    _check_level(K, k)
    if order not in ("p", "lex"):
        raise BadParameters("order must be 'p' or 'lex', got %r" % (order,))
    face_rows = _face_rows(K, k, basis)
    _check_reductions(face_rows, basis.n)
    field = basis.field
    if order == "lex":
        members, rows = [], []
        for sigma in combinations(range(1, basis.n + 1), k):
            if len(rows) == len(face_rows):
                break
            cols = tuple(s - 1 for s in sigma)
            row, _ = echelon_insert(rows, [basis.minor(f, cols)
                                           for f in face_rows], field)
            if row:
                members.append(sigma)
                rows.append(row)
        return members
    vecs, spans = {}, {}
    for sigma in combinations(range(1, basis.n + 1), k):
        # Only the first set, before any member, has no cover.
        slot, rows = max(((i, spans[tau]) for i, tau in _covers(sigma)),
                         key=lambda c: len(c[1]), default=(0, []))
        if len(rows) < len(face_rows):
            rows = list(rows)
            for m, v in vecs.items():
                if m[slot] == sigma[slot] and all(map(le, m, sigma)):
                    row, _ = echelon_insert(rows, v, field)
                    if row:
                        rows.append(row)
            cols = tuple(s - 1 for s in sigma)
            vec = [basis.minor(f, cols) for f in face_rows]
            row, _ = echelon_insert(rows, vec, field)
            if row:
                rows.append(row)
                vecs[sigma] = vec
        spans[sigma] = rows
    return list(vecs)


def shifted_level_stable(K: SimplicialComplex, k: int, order: str = "p",
                         trials: int = 3, seed: int = 0, field=GF) -> list:
    """shifted_level over several independent bases, demanding agreement.

    Disagreement means at least one basis was degenerate; one round of
    fresh seeds is tried before giving up.
    """
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    _check_level(K, k)
    for round_base in (seed, seed + (1 << 48)):
        results = [shifted_level(K, k, generic_basis(K.n, round_base + t,
                                                     field=field), order)
                   for t in range(trials)]
        if all(r == results[0] for r in results):
            return results[0]
    raise GenericityFailure("shifted level disagreed across %d bases" % trials)


def _check_level(K: SimplicialComplex, k: int) -> None:
    """Refuse a level outside 1..d, or one whose shifting matrix (a row
    per (k-1)-face of K, a column per size-k label set) is too large.
    Its C(n,k) columns are checked first, against one row, and faces
    are counted only until they pass the limit, so a refusal costs no
    more than one facet's faces beyond it."""
    if k < 1 or k > K.d:
        raise BadParameters("level k=%d outside 1..%d" % (k, K.d))
    cols, what = comb(K.n, k), "shifting matrix (rows counted so far)"
    check_dense_size(1, cols, what)
    rows = set()
    for s in K.facets:
        rows.update(combinations(s, k))
        check_dense_size(len(rows), cols, what)


MembershipReport = namedtuple(
    "MembershipReport", "n d face member trials seed per_trial arithmetic")


def characteristic_membership(K: SimplicialComplex, trials: int = 3,
                              seed: int = 0, field=GF) -> MembershipReport:
    """Does the characteristic face sit in the shifted family of K?

    MEMBER: some basis generic_basis(n, seed + t), t < trials, certified
    it (_membership); per_trial holds each basis's definitional vote, so
    every trial runs.  MEMBER is never wrong, nor NOT-MEMBER for a
    non-member.  Let M_D hold the compound vectors of the face's down-set
    D (characteristic_prefix), |D| = 1 + (n-d)(d-1).  A member's D lies
    in its shifted family, so a generic basis gives M_D full column rank.
    Each set in D holds label 1, whose basis column is all ones, so a
    |D|-minor has degree at most |D|(d-1) in the basis entries, and a
    nonsingular basis (det B has degree <= n-1) misses it with chance
    at most |D|(d-1)/(q-n+1) (Schwartz-Zippel).  So t trials miss a
    member with probability at most (|D|(d-1)/(q-n+1))^t, taking the
    seeded draws as independent, as generic_rank does.
    """
    return _membership(K, trials, seed, field, False)


def _membership(K: SimplicialComplex, trials: int, seed: int, field,
                certify: bool) -> MembershipReport:
    """characteristic_membership, stopping at the first certificate
    under certify.  A basis certifies when it votes yes and its
    predecessor span has full column rank: then M_D, the predecessors'
    columns plus the face's, has full column rank at it, so a minor that
    is an integer polynomial in the basis entries is nonzero mod q and
    the face is a member over QQ, as a rank at the target is for RIGID.
    """
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    face = characteristic_face(K.d, K.n)
    check_dense_size(K.num_facets, (K.n - K.d) * (K.d - 1),
                     "membership span matrix")
    votes, member = [], False
    for t in range(trials):
        basis = generic_basis(K.n, seed + t, field=field)
        votes.append(in_shifted_family(K, face, basis))
        if votes[-1] and not member:
            span = _predecessor_span(K, face, basis, "p")
            member = span.rank() == span.ncols
            if member and certify:
                break
    return MembershipReport(
        n=K.n, d=K.d, face=face, member=member, trials=trials, seed=seed,
        per_trial=tuple(votes), arithmetic=field.describe())


def wedge_map_matrix(basis: GenericBasis, d: int, faces=None) -> ExactMatrix:
    """Matrix of the map (m_2, ..., m_d) -> sum_i f_{[d] minus i} ^ m_i.

    Rows are indexed by size-d label sets (all of them in lex order, or
    the given faces); columns come in d-1 blocks i = 2..d of n unit
    vectors e_v each, so column (i, v) sits at (i-2) n + (v-1).  The
    entry at row sigma is zero unless v is in sigma, in which case it is
    _cofactors' entry (v, i): (-1)^(d-t) det A[sigma minus v, [d] minus
    i], t the position of v in sigma.  At faces=K.facets this is
    rigidity_matrix(K, placement_from_basis(basis, d)) transposed, with
    column (i, v) signed by (-1)^(i-1).
    """
    n = basis.n
    if d < 2 or d > n:
        raise BadParameters("need 2 <= d <= n, got d=%d n=%d" % (d, n))
    if faces is None:
        check_dense_size(comb(n, d), (d - 1) * n, "wedge map matrix")
        rows = list(combinations(range(1, n + 1), d))
    else:
        rows = [as_face(s) for s in faces]
        check_dense_size(len(rows), (d - 1) * n, "wedge map matrix")
        for s in rows:
            if len(s) != d:
                raise DimensionMismatch("row face %r is not size %d" % (s, d))
            if s[-1] > n:
                raise VertexOutOfRange("row face %r exceeds n=%d" % (s, n))
    out = ExactMatrix.zeros(len(rows), (d - 1) * n, basis.field)
    for r, sigma in enumerate(rows):
        for v, c, x in rigidity._cofactors(basis.matrix, sigma):
            out.data[r][(c - 2) * n + v - 1] = x
    return out


def placement_from_basis(basis: GenericBasis, d: int) -> rigidity.Placement:
    """Read a placement off basis columns 2..d: vertex v gets row v."""
    if d < 2 or d > basis.n:
        raise BadParameters("need 2 <= d <= n, got d=%d n=%d" % (d, basis.n))
    coords = {v: tuple(basis.matrix.data[v - 1][1:d])
              for v in range(1, basis.n + 1)}
    return rigidity.Placement(d=d, coords=coords, field=basis.field)
