"""Volume rigidity of pure simplicial complexes in one dimension down.

A complex with facets of cardinality d is placed in (d-1)-space.  The
facet-volume map sends a placement to the tuple of lifted-simplex
determinants, one per facet; its Jacobian is the rigidity matrix built
here.  Motions of the form z_v = A p(v) + u with trace(A) = 0 always lie
in the left kernel, so the best possible rank is
(d-1) n - (d*d - d - 1), and a complex attaining it is called rigid.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .complexes import (SimplicialComplex, _sorted_complex, as_face,
                        build_complex)
from .errors import BadParameters, DimensionMismatch, MissingVertexCoordinates
from .linalg import (GF, QQ, ExactMatrix, _last_column_cofactors,
                     _reduced, _signed_leads, _whole, check_dense_size,
                     sample_generic_matrix, seeded_rng)


class Placement(namedtuple("Placement", "d coords field")):
    """Coordinates for vertices 1..n in (d-1)-space, exact scalars."""

    __slots__ = ()

    def vector(self, v: int):
        try:
            return self.coords[v]
        except KeyError:
            raise MissingVertexCoordinates("no coordinates for vertex %d" % v)


RigidityReport = namedtuple(
    "RigidityReport", "n d num_facets generic_rank target_rank is_rigid "
    "corank trials seed trial_ranks arithmetic")


def random_placement(n: int, d: int, seed: int, field=GF) -> Placement:
    """Placement with coordinates drawn uniformly from a prime field, or
    over QQ from the integers -999..999, row by row from Random(seed).
    Over QQ the coordinates are ints, like every number the package
    makes there (QQ.of, which makes Fractions, is for outside input)."""
    if d < 2:
        raise BadParameters("facet cardinality must be at least 2")
    if n < 1:
        raise BadParameters("need at least one vertex")
    if field.q is None:
        rng = seeded_rng(seed)
        rows = [[rng.randrange(-999, 1000) for _ in range(d - 1)]
                for _ in range(n)]
    else:
        rows = sample_generic_matrix(n, d - 1, seed, field=field).data
    coords = {v: tuple(rows[v - 1]) for v in range(1, n + 1)}
    return Placement(d=d, coords=coords, field=field)


def simplex_matrix(p: Placement, sigma) -> ExactMatrix:
    """Lifted d x d simplex matrix: column j is (p(v_j); 1).

    Vertices of sigma appear in increasing order; the bottom row is all
    ones, so the determinant is a signed volume (up to the constant
    (d-1)! which never matters for rank).
    """
    sigma = as_face(sigma)
    if len(sigma) != p.d:
        raise DimensionMismatch("face %r has %d vertices, placement wants %d"
                                % (sigma, len(sigma), p.d))
    f = p.field
    cols = [p.vector(v) for v in sigma]
    for c in cols:
        if len(c) != p.d - 1:
            raise MissingVertexCoordinates("coordinate vector of wrong length")
    data = [[cols[j][i] for j in range(p.d)] for i in range(p.d - 1)]
    data.append([f.one] * p.d)
    return ExactMatrix(data, f, _trusted=True)


def _vertex_matrix(p: Placement, n: int) -> ExactMatrix:
    """The n x d matrix whose row v-1 is (1, p(v)), like a GenericBasis's
    first d columns."""
    rows = [[p.field.one, *p.vector(v)] for v in range(1, n + 1)]
    if any(len(row) != p.d for row in rows):
        raise MissingVertexCoordinates("coordinate vector of wrong length")
    return ExactMatrix(rows, p.field, _trusted=True)


@cache
def _column_drops(d: int) -> tuple:
    """(c, [d] minus c as 0-based column indices) for 2 <= c <= d."""
    return tuple((c, (*range(c - 1), *range(c, d))) for c in range(2, d + 1))


def _cofactors(A: ExactMatrix, sigma) -> list:
    """(v, c, (-1)^(d-t) det A[sigma minus v, [d] minus c]) for v the t-th
    vertex of sigma, d = len(sigma) and 2 <= c <= d: the one cofactor
    routine.  Up to d = 3 each is A.det, a closed form; at d = 4 each c
    gives all four vertices' entries at once
    (linalg._last_column_cofactors); from d = 5 on they are read off one
    reduction per facet (_cramer_cofactors), which leaves out zero
    entries, and a facet whose block is singular takes A.det for each
    entry."""
    d, f = len(sigma), A.field
    drops = _column_drops(d)
    out = []
    if d == 4:
        a, b, c, e = [A.data[u - 1] for u in sigma]
        for col, cols in drops:
            out += zip(sigma, (col,) * 4,
                       _last_column_cofactors(a, b, c, e, *cols, f.q))
        return out
    if d >= 5:
        entries = _cramer_cofactors(A, sigma)
        if entries is not None:
            return entries
    for t, v in enumerate(sigma, start=1):
        rows = tuple(u - 1 for u in sigma if u != v)
        for c, cols in drops:
            x = A.det(rows, cols)
            out.append((v, c, f.neg(x) if (d - t) % 2 else x))
    return out


def _cramer_cofactors(A: ExactMatrix, sigma):
    """_cofactors' nonzero entries of sigma by Cramer's rule, or None
    when M, the rows of sigma at A's first d columns, is singular.

    [M | I] is reduced once (_signed_leads, _reduced).  When every pivot
    lands in M's half, the product of the leads is det M and the reduced
    form is [I | M^-1].  The entry of (v, c), v the t-th vertex of
    sigma, is (-1)^(d-t) times the minor of M at (t, c), that is
    (-1)^(d+c) times its cofactor det M (M^-1)[c-1][t-1] (Cramer's rule).
    Over QQ a whole entry is an int (linalg._whole).
    """
    d, f = len(sigma), A.field
    q, zero = f.q, f.zero
    block = ([*A.data[u - 1][:d], *[zero] * t, f.one, *[zero] * (d - 1 - t)]
             for t, u in enumerate(sigma))
    ech, det = _signed_leads(block, f)
    if any(p >= d for p, _ in ech):
        return None
    signs = (det, f.neg(det))
    out = []
    for p, terms in _reduced(ech, 2 * d, f):
        if p:
            s = signs[(d + p + 1) % 2]
            out += [(sigma[j - d], p + 1, s * x % q if q else _whole(s * x))
                    for j, x in terms[1:]]
    return out


def rigidity_matrix(K: SimplicialComplex, p: Placement) -> ExactMatrix:
    """The (d-1)n x f Jacobian of the facet-volume map at p.

    Row (v-1)(d-1) + c-2 differentiates with respect to coordinate c-1
    of vertex v, 2 <= c <= d; its entry at facet sigma is (-1)^(c-1)
    times _cofactors' entry (v, c) of sigma on the vertex matrix (1 | p),
    a cofactor of sigma's lifted simplex matrix; the zeros _cofactors
    leaves out (from d = 5 on) stay zero.  At p =
    placement_from_basis(b, d) that matrix is b's first d columns, so
    this is wedge_map_matrix(b, d, K.facets) transposed, with those
    signs.  Every vertex 1..n needs coordinates, isolated ones included.
    """
    if p.d != K.d:
        raise DimensionMismatch("placement has d=%d, complex has d=%d"
                                % (p.d, K.d))
    f, k = p.field, p.d - 1
    A = _vertex_matrix(p, K.n)
    m = ExactMatrix.zeros(k * K.n, K.num_facets, f)
    for col, sigma in enumerate(K.facets):
        for v, c, x in _cofactors(A, sigma):
            m.data[(v - 1) * k + c - 2][col] = x if c % 2 else f.neg(x)
    return m


def trivial_motion_basis(p: Placement, n: int) -> ExactMatrix:
    """Rows spanning the always-present left kernel of the rigidity matrix.

    The motions are z_v = A p(v) + u over a basis of traceless A
    (elementary off-diagonal matrices plus consecutive diagonal
    differences) and the d-1 coordinate translations: d*d - d - 1 rows
    of length (d-1) n, read off columns of the vertex matrix (1 | p).
    """
    f, k = p.field, p.d - 1
    A = _vertex_matrix(p, n)

    def motion(*terms):
        row = [f.zero] * (k * n)
        for v, x in enumerate(A.data):
            for a, c, neg in terms:
                row[v * k + a] = f.neg(x[c]) if neg else x[c]
        return row

    rows = [motion((a, b + 1, False))
            for a in range(k) for b in range(k) if a != b]
    rows += [motion((a, a + 1, False), (a + 1, a + 2, True))
             for a in range(k - 1)]
    rows += [motion((a, 0, False)) for a in range(k)]
    return ExactMatrix(rows, f, _trusted=True)


def _min_degree_order(n: int, faces) -> list:
    """Vertices 1..n in greedy minimum-degree order on the vertex graph.

    Plays the elimination game (Rose 1972): take the vertex of smallest
    current degree, the smallest label on ties, remove it, and join its
    remaining neighbours into a clique.  Isolated vertices have degree 0
    throughout, so they come first and are left out of the search.
    """
    adj = {}
    for sigma in faces:
        for v in sigma:
            adj.setdefault(v, set()).update(sigma)
    order = [v for v in range(1, n + 1) if v not in adj]
    for v, nbrs in adj.items():
        nbrs.discard(v)
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(nbrs)
            adj[u].discard(u)
        order.append(v)
    return order


def _ordered_rank(K: SimplicialComplex, p: Placement, order) -> int:
    """Rank of K's rigidity matrix at p, eliminated with little fill.

    Ranks the rigidity matrix of K relabelled so that order[i] becomes
    i + 1, at p carried along: its rows come vertex by vertex in order
    and its facet columns lex in the new labels.  Relabelling permutes
    rows and columns and flips the signs of some columns, which leaves
    the rank unchanged.
    """
    pos = {v: i for i, v in enumerate(order, start=1)}
    K2 = _sorted_complex(K.n, [tuple(sorted(pos[v] for v in sigma))
                               for sigma in K.facets])
    p2 = p._replace(coords={pos[v]: p.vector(v) for v in range(1, K.n + 1)})
    return rigidity_matrix(K2, p2).rank()


def target_rank(n: int, d: int, num_facets: int) -> int:
    """Best achievable rank; degenerate n <= d instances cap at f <= 1."""
    t = (d - 1) * n - (d * d - d - 1)
    if n <= d:
        t = min(t, num_facets)
    return t


def _report(n: int, d: int, num_facets: int, trials: int, seed: int, ranks,
            field) -> RigidityReport:
    """The RigidityReport of the placements seed + t with the given ranks,
    t < len(ranks): the best of them estimates the generic rank."""
    best, tgt = max(ranks), target_rank(n, d, num_facets)
    return RigidityReport(
        n=n, d=d, num_facets=num_facets, generic_rank=best,
        target_rank=tgt, is_rigid=(best == tgt), corank=tgt - best,
        trials=trials, seed=seed, trial_ranks=tuple(ranks),
        arithmetic=field.describe())


def _placement_ranks(K: SimplicialComplex, trials: int, seed: int, field,
                     stop_rank) -> RigidityReport:
    """Ranks of the rigidity matrix at the placements seed + t, t < trials,
    stopping after the first rank equal to stop_rank (None: never).

    Each rank is that of the complex relabelled into greedy
    minimum-degree vertex order (_min_degree_order, computed once per
    call; _ordered_rank), whose rows and lex-ordered facet columns keep
    the sparse matrix from filling in.  Relabelling leaves the rank
    unchanged.
    """
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    check_dense_size((K.d - 1) * K.n, K.num_facets, "rigidity matrix")
    order = _min_degree_order(K.n, K.facets)
    ranks = []
    for t in range(trials):
        p = random_placement(K.n, K.d, seed + t, field=field)
        ranks.append(_ordered_rank(K, p, order))
        if ranks[-1] == stop_rank:
            break
    return _report(K.n, K.d, K.num_facets, trials, seed, ranks, field)


def generic_rank(K: SimplicialComplex, trials: int = 3, seed: int = 0,
                 field=GF) -> RigidityReport:
    """Max rank of the rigidity matrix over seeded random placements.

    A special placement can only lower the rank, so the max over trials
    can only underestimate the generic rank.  Each matrix entry is a
    cofactor of degree d-2 in the coordinates, so a rank-r minor has
    degree at most r(d-2); by Schwartz-Zippel one trial misses rank r
    with probability at most r(d-2)/q, and all t independent trials miss
    with probability at most (r(d-2)/q)^t.  Over QQ the coordinates come
    from a box of 1999 integers, so the bound per trial is r(d-2)/1999.
    Every trial runs.
    """
    return _placement_ranks(K, trials, seed, field, None)


def is_volume_rigid(K: SimplicialComplex, trials: int = 3, seed: int = 0,
                    field=GF) -> bool:
    """Whether K is volume rigid, from up to trials placements: a yes
    stops at the first placement that reaches the target rank
    (_rank_until_rigid), a no ranks all of them and carries
    generic_rank's bound."""
    return _rank_until_rigid(K, trials, seed, field).is_rigid


def _rank_until_rigid(K: SimplicialComplex, trials: int, seed: int,
                      field) -> RigidityReport:
    """generic_rank(K, trials, seed, field), stopping after the first
    placement that reaches the target rank; trial_ranks holds the ranks
    of the placements actually ranked.

    Such a rank is exact: the minor that is nonzero mod p at the
    placement is a nonzero integer polynomial in the coordinates, so the
    generic rank is at least as large, and no rank exceeds the target.
    A complex that never reaches it ranks every placement, and the
    report is generic_rank's.
    """
    return _placement_ranks(K, trials, seed, field,
                            target_rank(K.n, K.d, K.num_facets))


def columns_independent(K_or_n, faces, trials: int = 3, seed: int = 0,
                        field=GF) -> bool:
    """Whether the given facet columns are independent for generic p.

    The first argument fixes the vertex count; a complex or a plain n
    both work, since independence only depends on the selected faces.
    The faces form a complex, which build_complex validates; it is
    ranked at the placements of generic_rank, stopping at the first
    that reaches full rank, and a repeated face leaves it short of that.
    """
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    n = K_or_n.n if isinstance(K_or_n, SimplicialComplex) else K_or_n
    faces = list(faces)
    if not faces:
        return True
    rep = _placement_ranks(build_complex(n, faces), trials, seed, field,
                           len(faces))
    return rep.generic_rank == len(faces)


def rational_rank(K: SimplicialComplex, seed: int = 0) -> int:
    """Rank over the rationals at the one integer placement seed, through
    generic_rank's loop: provided for cross-checks on small instances.
    The placement's coordinates are ints, so the matrix starts in ints,
    but its pivots are not +-1 and elimination soon makes Fractions."""
    return _placement_ranks(K, 1, seed, QQ, None).generic_rank
