"""Boundary operators, minimal cycles, and the surface pipeline.

The top boundary operator sends a facet to the signed sum of its
cardinality d-1 subfaces, the sign of dropping the j-th vertex (1-based)
being (-1)^j.  A complex is a minimal cycle when its top cycle space is
one-dimensional with a generator touching every facet.  The module also
evaluates, coordinate by coordinate, the identity expressing the
rigidity matrix applied to a chain through the boundary of the chain,
and drives edge-contraction reduction of surface triangulations.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import combinations

# Only the rigidity, identity and dataset checks reach these two modules,
# so boundaries, cycle spaces and contraction leave them unexecuted.
from . import rigidity, shifting
from .complexes import (SimplicialComplex, as_face, build_complex,
                        contract_edge, facets_containing, k_faces,
                        remove_facet)
from .errors import BadParameters, ChainOutsideComplex
from .linalg import (GF, QQ, ExactMatrix, PrimeField, check_dense_size,
                     seeded_rng)

GF2 = PrimeField(2)


def boundary_operator(K: SimplicialComplex, card: int, field=QQ) -> ExactMatrix:
    """Matrix of the boundary from cardinality-card faces down one level.

    Rows are the cardinality card-1 faces of K in lex order, columns the
    cardinality-card faces; the entry for dropping the j-th vertex is
    (-1)^j with j counted from 1.
    """
    if card < 2 or card > K.d:
        raise BadParameters("cardinality %d outside 2..%d" % (card, K.d))
    rows = k_faces(K, card - 2)
    cols = k_faces(K, card - 1)
    check_dense_size(len(rows), len(cols), "boundary matrix")
    row_index = {t: i for i, t in enumerate(rows)}
    m = ExactMatrix.zeros(len(rows), len(cols), field)
    minus_one = field.neg(field.one)
    for c, sigma in enumerate(cols):
        for j, v in enumerate(sigma, start=1):
            tau = tuple(u for u in sigma if u != v)
            m.data[row_index[tau]][c] = minus_one if j % 2 else field.one
    return m


def boundary_matrix(K: SimplicialComplex, field=QQ) -> ExactMatrix:
    """Top boundary operator, facets to their cardinality d-1 faces."""
    if K.d < 2:
        raise BadParameters("boundary needs facet cardinality at least 2")
    return boundary_operator(K, K.d, field)


def cycle_space(K: SimplicialComplex, field=QQ) -> ExactMatrix:
    """Kernel of the top boundary operator, one column per basis chain."""
    return boundary_matrix(K, field).right_kernel()


def is_minimal_cycle(K: SimplicialComplex, field=QQ) -> bool:
    """One-dimensional cycle space whose generator misses no facet.

    The default field is the rationals; pass GF2 for surfaces that only
    cycle with mod-2 coefficients.
    """
    return spans_minimal_cycle(cycle_space(K, field))


def spans_minimal_cycle(space: ExactMatrix) -> bool:
    """is_minimal_cycle's test on a cycle space, one column per chain."""
    return space.ncols == 1 and all(row[0] != 0 for row in space.data)


def chain_vector(K: SimplicialComplex, chain: dict, field):
    """Chain as a coefficient vector in K's facet order."""
    coeffs = {}
    for face, value in chain.items():
        f = as_face(face)
        if f not in K.facets:
            raise ChainOutsideComplex("chain touches %r, not a facet" % (f,))
        coeffs[f] = field.of(value)
    return [coeffs.get(s, field.zero) for s in K.facets]


def chain_boundary(K: SimplicialComplex, chain: dict, field) -> dict:
    """Boundary coefficients on cardinality d-1 faces, sparse."""
    vec = boundary_matrix(K, field).mul_vec(chain_vector(K, chain, field))
    return {t: c for t, c in zip(k_faces(K, K.d - 2), vec) if c != 0}


def rigidity_boundary_identity(K: SimplicialComplex, p: rigidity.Placement,
                               chain: dict) -> bool:
    """Check, entry by entry, that the rigidity matrix applied to a chain
    equals the boundary-side expression.

    For vertex v and coordinate i the right side is (-1)^(d+i) times the
    sum, over cardinality d-1 faces tau containing v, of
    sign(tau minus v, tau) * det(N) * (boundary coefficient at tau),
    where det(N) is the vertex matrix (1 | p)'s minor at tau minus v and
    the coordinate columns other than i.  It is summed in one pass over
    the faces of the chain's boundary.
    """
    d, field = K.d, p.field
    A = rigidity._vertex_matrix(p, K.n)
    lhs = rigidity.rigidity_matrix(K, p).mul_vec(chain_vector(K, chain, field))
    rhs = [field.zero] * len(lhs)
    for tau, coeff in chain_boundary(K, chain, field).items():
        for j, v in enumerate(tau, start=1):
            rows = tuple(u - 1 for u in tau if u != v)
            for i in range(1, d):
                cols = tuple(c for c in range(1, d) if c != i)
                term = field.mul(A.det(rows, cols), coeff)
                if (j + d + i) % 2:
                    term = field.neg(term)
                at = (v - 1) * (d - 1) + (i - 1)
                rhs[at] = field.add(rhs[at], term)
    return lhs == rhs


def remove_facet_rigidity(K: SimplicialComplex, face, trials: int = 3,
                          seed: int = 0, field=GF) -> rigidity.RigidityReport:
    """Rigidity report for the complex with one facet deleted."""
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    rest = remove_facet(K, face)
    if rest is None:
        return rigidity._report(K.n, K.d, 0, trials, seed, (0,) * trials,
                                field)
    return rigidity.generic_rank(rest, trials=trials, seed=seed, field=field)


def _link(K: SimplicialComplex, v: int) -> set:
    """The faces opposite v in the facets containing v, each sliced out
    of its facet around v's position."""
    return {s[:i] + s[i + 1:] for s in K.facets if v in s
            for i in (s.index(v),)}


def surface_link_condition(K: SimplicialComplex, u: int, w: int) -> bool:
    """For d=3: the links of u and w meet exactly in the link of {u,w}.

    Equivalent to the classical contractibility criterion on closed
    surfaces: common link vertices are precisely the edge's apexes, and
    the links share no edge.  Both are read off the two links (sets of
    edges): the apexes are the other ends of u's link edges through w.
    """
    if K.d != 3:
        raise BadParameters("link condition implemented for d=3 only")
    as_face((u, w))  # raises InvalidFace on malformed labels
    link_u, link_w = _link(K, u), _link(K, w)
    apexes = {x for e in link_u if w in e for x in e if x != w}
    common = {x for e in link_u for x in e} & {x for e in link_w for x in e}
    return common == apexes and not (link_u & link_w)


def default_admissible(K: SimplicialComplex, u: int, w: int) -> bool:
    """Contract only edges in >= d-1 facets that pass the d=3 link
    condition and whose contraction leaves at least one facet."""
    through = len(facets_containing(K, (u, w)))
    return (K.d - 1 <= through < K.num_facets
            and (K.d != 3 or surface_link_condition(K, u, w)))


def _stars(K: SimplicialComplex) -> dict:
    """Vertex v -> the set of K's facets through v, for each v in a facet;
    no label that occurs in no facet costs anything."""
    star = defaultdict(set)
    for s in K.facets:
        for v in s:
            star[v].add(s)
    return star


def _neighbours(star: dict, v: int) -> set:
    """The vertices that share a facet with v."""
    return {x for s in star[v] for x in s if x != v}


def _star_admissible(K: SimplicialComplex, star: dict, u: int, w: int,
                     near_u: set) -> bool:
    """default_admissible(K, u, w), read off the stars of u and w and
    near_u, the neighbours of u (_neighbours(star, u))."""
    through = [s for s in star[u] if w in s]
    if not K.d - 1 <= len(through) < K.num_facets:
        return False
    if K.d != 3:
        return True
    apexes = {x for s in through for x in s} - {u, w}
    if near_u & _neighbours(star, w) != apexes:
        return False
    # Given that, the links share an edge only between two apexes.
    return not any(tuple(sorted((u, x, y))) in star[u]
                   and tuple(sorted((w, x, y))) in star[w]
                   for x, y in combinations(apexes, 2))


def _admissible_edge(K: SimplicialComplex):
    """First edge in lex order that default_admissible accepts, or None.

    The edges are walked as u ascending, then w > u among u's neighbours
    ascending, each tested on the stars of K and u's neighbours, taken
    once per u (_star_admissible).  One default_admissible call confirms
    the edge found, and a disagreement raises RuntimeError.
    """
    star = _stars(K)
    for u in sorted(star):
        near_u = _neighbours(star, u)
        for w in sorted(x for x in near_u if x > u):
            if _star_admissible(K, star, u, w, near_u):
                if not default_admissible(K, u, w):
                    raise RuntimeError("star test accepted edge (%d, %d), "
                                       "default_admissible rejects it"
                                       % (u, w))
                return u, w
    return None


def contraction_reduce(K: SimplicialComplex):
    """Contract admissible edges until none remains; returns the fixed
    point and the contraction log.

    Every round contracts the lex-first edge, in the current labels,
    that default_admissible accepts: _admissible_edge reads it off the
    stars of the current complex and confirms it, and one contract_edge
    call builds the next complex.  So a round costs a few O(f) passes
    over the f facets, not an O(f) test per edge.  Terminates because
    every contraction loses one vertex.
    """
    log = []
    while (e := _admissible_edge(K)) is not None:
        K = contract_edge(K, *e)
        log.append(e)
    return K, log


class DatasetReport(namedtuple("DatasetReport", (
        "name size rigid_count member_count irreducible_count entries "
        "trials seed arithmetic"))):
    __slots__ = ()

    @property
    def all_rigid(self) -> bool:
        return self.rigid_count == self.size


def verify_dataset(ds: SurfaceDataset, trials: int = 3, seed: int = 0,
                   field=GF) -> DatasetReport:
    """Per complex: rank report, shifting membership, irreducibility.

    Irreducibility here means only that no admissible contraction
    exists; no homeomorphism typing is attempted.  Each complex is
    checked on its own, with the placements and bases that generic_rank
    and characteristic_membership draw for it alone, so its entry does
    not depend on the rest of the dataset.  trials means "up to trials"
    for a rigid complex and a member: each test stops at the first
    placement or basis that certifies its verdict (_rank_until_rigid,
    _membership with certify).  A flexible complex or a non-member runs
    every trial and keeps the bound of all of them.  Either way each
    verdict is the one generic_rank and characteristic_membership give.
    """
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    entries = []
    for idx, K in enumerate(ds.complexes):
        rep = rigidity._rank_until_rigid(K, trials, seed, field)
        mem = None
        if K.d >= 3 and K.n >= K.d + 1:
            mem = shifting._membership(K, trials, seed, field, True).member
        entries.append({
            "index": idx, "n": K.n, "d": K.d, "facets": K.num_facets,
            "rank": rep.generic_rank, "target": rep.target_rank,
            "rigid": rep.is_rigid, "member": mem,
            "irreducible": _admissible_edge(K) is None,
        })
    return DatasetReport(
        name=ds.name, size=len(entries),
        rigid_count=sum(e["rigid"] for e in entries),
        member_count=sum(bool(e["member"]) for e in entries),
        irreducible_count=sum(e["irreducible"] for e in entries),
        entries=tuple(entries), trials=trials, seed=seed,
        arithmetic=field.describe())


def sample_chain(K: SimplicialComplex, seed: int, field=GF) -> dict:
    """Random chain over K's facets for identity sweeps: field elements
    drawn uniformly, or over QQ ints from -99..99."""
    rng = seeded_rng(seed)
    if field.q is not None:
        return {s: rng.randrange(field.q) for s in K.facets}
    return {s: rng.randrange(-99, 100) for s in K.facets}


def random_identity_sweep(num_samples: int = 50, seed: int = 0,
                          field=GF) -> int:
    """Sample (K, p, z) triples and count identity failures (expect 0)."""
    if num_samples < 1:
        raise BadParameters("samples must be at least 1")
    rng = seeded_rng(seed)
    failures = 0
    for t in range(num_samples):
        d = rng.choice([3, 4])
        n = rng.randint(d + 1, 7)
        pool = list(combinations(range(1, n + 1), d))
        K = build_complex(n, rng.sample(pool, rng.randint(1, len(pool))))
        p = rigidity.random_placement(n, d, seed + 7919 * t + 1, field=field)
        z = sample_chain(K, seed + 104729 * t + 2, field=field)
        if not rigidity_boundary_identity(K, p, z):
            failures += 1
    return failures
