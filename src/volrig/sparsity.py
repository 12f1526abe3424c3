"""Hypergraph sparsity counts, tightness, and greedy basis completion.

A d-uniform facet set on n vertices is (a,b)-sparse when every vertex
subset A with |A| >= d spans at most a|A| - b facets, and tight when in
addition the whole vertex set attains the bound.  The regime matching
volume rigidity is a = d-1, b = d*d-d-1: tight complexes then have
exactly the facet count of a minimally rigid complex.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb

from .complexes import SimplicialComplex, build_complex, cone
from .errors import BadParameters, InstanceTooLarge, NotSparse

BRUTE_FORCE_CAP = 22


class SparsityParams(namedtuple("SparsityParams", "a b d")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, d: int):
        if a < 1 or b < 0 or d < 1:
            raise BadParameters("need a >= 1, b >= 0, d >= 1")
        return super().__new__(cls, a, b, d)

    @classmethod
    def volume_regime(cls, d: int) -> "SparsityParams":
        return cls(a=d - 1, b=d * d - d - 1, d=d)

    def bound(self, m: int) -> int:
        return self.a * m - self.b


def spanned_count(K: SimplicialComplex, vertex_set) -> int:
    """Number of facets contained in the given vertex set."""
    a = set(vertex_set)
    return sum(1 for s in K.facets if a.issuperset(s))


def _mask(vertices) -> int:
    """Bitmask of a vertex set: vertex v sets bit v-1."""
    return sum(1 << (v - 1) for v in vertices)


def _violation(n: int, masks, params: SparsityParams, within: int = 0):
    """First vertex set containing the mask `within` that spans more than
    a|A| - b of the facet masks, smallest cardinality then lex, or None.

    Sizes where no set can exceed the bound (it is at least the facet
    count, or at least every d-subset) are skipped.
    """
    if n > BRUTE_FORCE_CAP:
        raise InstanceTooLarge("n=%d exceeds brute-force cap %d"
                               % (n, BRUTE_FORCE_CAP))
    fixed = tuple(v for v in range(1, n + 1) if within >> (v - 1) & 1)
    rest = [v for v in range(1, n + 1) if not within >> (v - 1) & 1]
    total = len(masks)
    for m in range(max(params.d, len(fixed)), n + 1):
        bound = params.bound(m)
        if bound >= total or comb(m, params.d) <= bound:
            continue
        for extra in combinations(rest, m - len(fixed)):
            outside = ~(within | _mask(extra))
            if sum(1 for fm in masks if not fm & outside) > bound:
                return tuple(sorted(fixed + extra))
    return None


def is_sparse(K: SimplicialComplex, params: SparsityParams):
    """(verdict, witness): witness is a minimum-size violator or None."""
    if params.d != K.d:
        raise BadParameters("params.d=%d but complex has d=%d"
                            % (params.d, K.d))
    w = _violation(K.n, [_mask(s) for s in K.facets], params)
    return (w is None, w)


def is_tight(K: SimplicialComplex, params: SparsityParams) -> bool:
    ok, _ = is_sparse(K, params)
    return ok and K.num_facets == params.bound(K.n)


def _greedy_complete(n: int, params: SparsityParams, start_facets):
    """Add lex-ordered candidates while sparsity survives; only supersets
    of a new facet can newly violate the bound."""
    have = set(start_facets)
    masks = [_mask(s) for s in have]
    target = params.bound(n)
    for cand in combinations(range(1, n + 1), params.d):
        if len(have) >= target:
            break
        if cand in have:
            continue
        masks.append(_mask(cand))
        if _violation(n, masks, params, within=masks[-1]) is None:
            have.add(cand)
        else:
            masks.pop()
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
    graph, completed to a sparsity basis in the volume regime."""
    if d < 3:
        raise BadParameters("construction needs d >= 3, got %d" % d)
    K = bipartite_complete_graph()
    for _ in range(d - 2):
        K = cone(K)
    return complete_to_sparse_basis(K, SparsityParams.volume_regime(d))
