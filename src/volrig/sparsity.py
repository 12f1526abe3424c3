"""Hypergraph sparsity counts, tightness, and greedy basis completion.

A d-uniform facet set on n vertices is (a,b)-sparse when every vertex
subset A with |A| >= d spans at most a|A| - b facets, and tight when in
addition the whole vertex set attains the bound.  The regime matching
volume rigidity is a = d-1, b = d*d-d-1: tight complexes then have
exactly the facet count of a minimally rigid complex.

In the matroidal range 0 <= b < d a, which contains the volume regime,
sparsity is decided by the (a, b) pebble game (Lee & Streinu, "Pebble
game algorithms and sparse graphs", 2008; Streinu & Theran, "Sparse
hypergraphs and pebble game algorithms", 2009).  Every vertex of a facet
starts with a free pebbles; a facet is accepted once b+1 free pebbles
can be gathered on its vertices, and one of them then pins it.  The
facets are sparse exactly when all of them are accepted.  A witness is
then an inclusion-minimal violator: starting from the vertices that
occur in a facet, each vertex in decreasing label order is dropped
while the facets on the rest are still not sparse.  It violates the
bound and no proper subset of it does; it need not be a smallest
violator, which no polynomial algorithm is known to find.

Outside that range, b >= d a, a set of d vertices may span at most
a d - b <= 0 facets, so no complex (none is empty) is sparse, and the
smallest, lex-first witness has a closed form: when a d < b every d-set
violates and the witness is (1, ..., d); when a d = b a d-set violates
exactly when it is a facet, and the witness is the first facet.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import linalg
from .complexes import SimplicialComplex, build_complex, cone
from .errors import BadParameters, InstanceTooLarge, NotSparse


class SparsityParams(namedtuple("SparsityParams", "a b d")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, d: int):
        if a < 1 or b < 0 or d < 1:
            raise BadParameters("need a >= 1, b >= 0, d >= 1")
        return super().__new__(cls, a, b, d)

    @classmethod
    def volume_regime(cls, d: int) -> "SparsityParams":
        if d < 2:
            raise BadParameters("the volume regime needs d >= 2, got d=%d" % d)
        return cls(a=d - 1, b=d * d - d - 1, d=d)

    def bound(self, m: int) -> int:
        return self.a * m - self.b


def spanned_count(K: SimplicialComplex, vertex_set) -> int:
    """Number of facets contained in the given vertex set."""
    a = set(vertex_set)
    return sum(1 for s in K.facets if a.issuperset(s))


class _PebbleGame:
    """State of the (a, b) pebble game, keyed by the vertices offered so
    far: each one's free pebbles and the accepted facets it pins."""

    __slots__ = ("a", "b", "free", "pinned")

    def __init__(self, a: int, b: int, free=None, pinned=None):
        self.a, self.b = a, b
        self.free = {} if free is None else free
        self.pinned = {} if pinned is None else pinned

    def copy(self) -> "_PebbleGame":
        return _PebbleGame(self.a, self.b, dict(self.free),
                           {v: set(fs) for v, fs in self.pinned.items()})

    def offer(self, facet) -> bool:
        """Accept the facet if the held facets stay sparse with it."""
        for v in facet:
            if v not in self.free:
                self.free[v] = self.a
                self.pinned[v] = set()
        while sum(self.free[v] for v in facet) <= self.b:
            if not self._fetch(facet):
                return False
        owner = next(v for v in facet if self.free[v])
        self.free[owner] -= 1
        self.pinned[owner].add(facet)
        return True

    def remove(self, facet) -> None:
        """Drop an accepted facet; its pebble goes back to its owner."""
        owner = next(v for v in facet if facet in self.pinned[v])
        self.pinned[owner].remove(facet)
        self.free[owner] += 1

    def _fetch(self, facet) -> bool:
        """Bring one free pebble onto the facet from a vertex outside it,
        re-pinning every facet on the path to the next vertex along it."""
        via = dict.fromkeys(facet)
        stack = list(facet)
        while stack:
            u = stack.pop()
            for f in self.pinned[u]:
                for w in f:
                    if w in via:
                        continue
                    via[w] = (u, f)
                    if self.free[w]:
                        self.free[w] -= 1
                        while via[w] is not None:
                            u, f = via[w]
                            self.pinned[u].remove(f)
                            self.pinned[w].add(f)
                            w = u
                        self.free[w] += 1
                        return True
                    stack.append(w)
        return False


def _in_range(params: SparsityParams) -> bool:
    """Whether (a, b) lies in the matroidal range 0 <= b < d a."""
    return params.b < params.d * params.a


def _minimal_violator(game: _PebbleGame, pending) -> tuple:
    """Inclusion-minimal violating vertex set, given a game holding a
    sparse part of the facets and the non-empty list of the rest.

    Each vertex, in decreasing label order, is dropped when the facets
    on the other kept vertices are still not sparse.  Deleting
    facets from a game leaves a valid game, so each test copies the game,
    deletes the facets through the vertex and offers only the pending
    facets that avoid it.
    """
    kept = set(game.free).union(*pending)
    for v in sorted(kept, reverse=True):
        trial = game.copy()
        for f in [f for fs in trial.pinned.values() for f in fs if v in f]:
            trial.remove(f)
        rest = [f for f in pending if v not in f]
        for i, f in enumerate(rest):
            if not trial.offer(f):
                kept.discard(v)
                game, pending = trial, rest[i:]
                break
    return tuple(sorted(kept))


def is_sparse(K: SimplicialComplex, params: SparsityParams):
    """(verdict, witness): witness is a violating vertex set or None;
    inclusion-minimal in the matroidal range, the smallest and lex-first
    d-set outside it."""
    if params.d != K.d:
        raise BadParameters("params.d=%d but complex has d=%d"
                            % (params.d, K.d))
    if not _in_range(params):
        if params.b == params.d * params.a:
            return (False, K.facets[0])
        return (False, tuple(range(1, params.d + 1)))
    game = _PebbleGame(params.a, params.b)
    for i, f in enumerate(K.facets):
        if not game.offer(f):
            return (False, _minimal_violator(game, K.facets[i:]))
    return (True, None)


def is_tight(K: SimplicialComplex, params: SparsityParams) -> bool:
    ok, _ = is_sparse(K, params)
    return ok and K.num_facets == params.bound(K.n)


def _greedy_complete(n: int, params: SparsityParams, start_facets):
    """Add lex-ordered candidates while the pebble game accepts them, up
    to the tight count a n - b, which is refused above the entry limit.
    The limit is read from linalg when checked, so only a completion
    executes linalg.
    Outside the matroidal range no candidate is added: a lone d-set
    already violates the bound."""
    have = set(start_facets)
    target = params.bound(n)
    limit = linalg.MAX_DENSE_ENTRIES
    if target > limit:
        raise InstanceTooLarge("completion would hold %d facets, above the "
                               "%d-entry limit" % (target, limit))
    if not _in_range(params):
        return sorted(have)
    game = _PebbleGame(params.a, params.b)
    for f in have:
        game.offer(f)
    for cand in combinations(range(1, n + 1), params.d):
        if len(have) >= target:
            break
        if cand not in have and game.offer(cand):
            have.add(cand)
    return sorted(have)


def complete_to_sparse_basis(K: SimplicialComplex,
                             params: SparsityParams) -> SimplicialComplex:
    """Greedily add lex-ordered candidate facets while sparsity survives.

    Stops at the tight count a n - b or when candidates run out; the
    input must itself be sparse.
    """
    ok, witness = is_sparse(K, params)
    if not ok:
        raise NotSparse("input violates the bound on %r" % (witness,))
    return build_complex(K.n, _greedy_complete(K.n, params, K.facets))


def greedy_sparse_basis(n: int, params: SparsityParams) -> SimplicialComplex:
    """Basis grown from the empty facet set (complexes cannot be empty,
    so the from-scratch variant gets its own entry point)."""
    facets = _greedy_complete(n, params, [])
    if not facets:
        raise NotSparse("no facet at all satisfies the bound on n=%d" % n)
    return build_complex(n, facets)


def bipartite_complete_graph() -> SimplicialComplex:
    """The 3+3 complete bipartite graph as a 1-complex on labels 1..6."""
    edges = [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    return build_complex(6, edges)


def build_counterexample(d: int) -> SimplicialComplex:
    """Tight but flexible complex: iterated cone over the 3+3 bipartite
    graph, completed to a sparsity basis in the volume regime.  It has
    n = d + 4 vertices and the tight count f = 4d - 3 facets, where the
    completion stops."""
    if d < 3:
        raise BadParameters("construction needs d >= 3, got %d" % d)
    K = bipartite_complete_graph()
    for _ in range(d - 2):
        K = cone(K)
    return complete_to_sparse_basis(K, SparsityParams.volume_regime(d))
