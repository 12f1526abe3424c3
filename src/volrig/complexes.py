"""Pure simplicial complexes given by their facet lists.

A complex on vertex set {1, ..., n} is stored as the lexicographically
sorted tuple of its facets, all of one cardinality d.  Faces are strictly
increasing tuples of positive vertex labels.  Lower-dimensional faces are
implied (every subset of a facet is a face) and enumerated on demand.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import (ApexCollision, ContractionAnnihilates, EmptyFacetList,
                     FacetNotPresent, FaceTooLarge, InvalidFace, KOutOfRange,
                     MixedDimension, NotAnEdge, VertexOutOfRange)

Face = tuple


def _is_int(x) -> bool:
    """Whether x is an int and not a bool.  Plain ints skip the
    isinstance tests; other int subclasses than bool pass them."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def as_face(vertices) -> Face:
    """Normalize an iterable of labels to a strictly increasing tuple."""
    vs = tuple(vertices)
    for v in vs:
        if not _is_int(v) or v < 1:
            raise InvalidFace("vertex labels must be positive ints, got %r" % (v,))
    face = sorted(set(vs))
    if len(face) != len(vs):
        raise InvalidFace("repeated vertex in face %r" % (vs,))
    return tuple(face)


class SimplicialComplex(namedtuple("SimplicialComplex", "n d facets")):
    """Immutable pure complex; build through build_complex."""

    __slots__ = ()

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def vertices(self) -> tuple:
        """Labels that actually occur in a facet (isolated ones excluded)."""
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    def __repr__(self):
        return "SimplicialComplex(n=%d, d=%d, %d facets)" % (
            self.n, self.d, len(self.facets))


def build_complex(n: int, facets) -> SimplicialComplex:
    """Validate, deduplicate, and sort a facet list into a complex."""
    if not _is_int(n):
        raise VertexOutOfRange("vertex count must be an int, got n=%r" % (n,))
    if n < 1:
        raise VertexOutOfRange("need at least one vertex, got n=%d" % n)
    normalized = [as_face(f) for f in facets]
    if not normalized:
        raise EmptyFacetList("a complex needs at least one facet")
    d = len(normalized[0])
    for f in normalized:
        if len(f) != d:
            raise MixedDimension("facets %r and %r differ in cardinality"
                                 % (normalized[0], f))
        if f[-1] > n:
            raise VertexOutOfRange("facet %r uses a label above n=%d" % (f, n))
    return _sorted_complex(n, normalized)


def _sorted_complex(n: int, faces: list) -> SimplicialComplex:
    """The complex on 1..n of a nonempty list of strictly increasing
    tuples of one size with labels in 1..n, sorted and without repeats:
    build_complex's last step, after it validates, and contract_edge's,
    whose images are valid by construction.  Duplicates are dropped in
    list order, so a list that is sorted but for a few tuples sorts in
    about one pass."""
    return SimplicialComplex(n=n, d=len(faces[0]),
                             facets=tuple(sorted(dict.fromkeys(faces))))


def k_faces(K: SimplicialComplex, k: int) -> list:
    """All k-dimensional faces (cardinality k+1), sorted lexicographically.

    At the top dimension these are the facets themselves, already sorted
    and free of duplicates because build_complex (the only constructor)
    keeps them so.
    """
    if k < 0 or k > K.d - 1:
        raise KOutOfRange("k=%d outside 0..%d" % (k, K.d - 1))
    if k == K.d - 1:
        return list(K.facets)
    out = set()
    for f in K.facets:
        out.update(combinations(f, k + 1))
    return sorted(out)


def cone(K: SimplicialComplex, apex: int | None = None) -> SimplicialComplex:
    """Join with a fresh apex vertex (default n+1); facets gain the apex."""
    if apex is None:
        apex = K.n + 1
    if apex <= K.n:
        raise ApexCollision("apex %d collides with existing labels 1..%d"
                            % (apex, K.n))
    facets = [f + (apex,) for f in K.facets]
    return build_complex(apex, facets)


def union_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Both facet sets on max(K.n, L.n) vertices, isolated ones kept."""
    if K.d != L.d:
        raise MixedDimension("cannot unite complexes of cardinality %d and %d"
                             % (K.d, L.d))
    return build_complex(max(K.n, L.n), set(K.facets) | set(L.facets))


def facets_containing(K: SimplicialComplex, face) -> list:
    """K's facets that hold every label of face, in K's order: a facet
    is tested for the first label, then for the rest, by membership in
    the facet tuple itself."""
    f = as_face(face)
    if len(f) > K.d:
        raise FaceTooLarge("face %r larger than facet cardinality %d" % (f, K.d))
    if not f:
        return list(K.facets)
    first, rest = f[0], f[1:]
    return [s for s in K.facets
            if first in s and all(map(s.__contains__, rest))]


def is_face(K: SimplicialComplex, face) -> bool:
    f = set(as_face(face))
    return any(f.issubset(s) for s in K.facets)


def contract_edge(K: SimplicialComplex, u: int, w: int) -> SimplicialComplex:
    """Identify the endpoints of edge {u, w}.

    The merged vertex keeps the smaller label, facets through the edge
    vanish, and every other facet is mapped once: w to u, and labels
    above w down by one, so the result lives on {1, ..., n-1}.
    facets_containing checks the labels.  The map keeps the order of
    the labels other than w, so only an image that held w is sorted
    again; a facet with no label from w up is kept as it is.  The images
    go to _sorted_complex without another check.
    """
    u, w = min(u, w), max(u, w)
    if u == w or not facets_containing(K, (u, w)):
        raise NotAnEdge("{%d, %d} is not an edge of the complex" % (u, w))
    images = []
    for f in K.facets:
        if f[-1] < w:
            images.append(f)
        elif w not in f:
            images.append(tuple([v - 1 if v > w else v for v in f]))
        elif u not in f:
            images.append(tuple(sorted([u if v == w else v - 1 if v > w
                                        else v for v in f])))
    if not images:
        raise ContractionAnnihilates("every facet meets the edge {%d, %d}"
                                     % (u, w))
    return _sorted_complex(K.n - 1, images)


def remove_facet(K: SimplicialComplex, face) -> SimplicialComplex | None:
    """Complex with one facet deleted; None when nothing would remain."""
    f = as_face(face)
    if f not in K.facets:
        raise FacetNotPresent("facet %r not in the complex" % (f,))
    rest = [s for s in K.facets if s != f]
    if not rest:
        return None
    return build_complex(K.n, rest)


def relabel(K: SimplicialComplex, perm: dict) -> SimplicialComplex:
    """Apply a bijection of {1, ..., n} to every vertex label."""
    if sorted(perm) != list(range(1, K.n + 1)) or \
            sorted(perm.values()) != list(range(1, K.n + 1)):
        raise VertexOutOfRange("perm must be a bijection on 1..%d" % K.n)
    facets = [tuple(sorted(perm[v] for v in f)) for f in K.facets]
    return build_complex(K.n, facets)


def complete_complex(n: int, d: int) -> SimplicialComplex:
    if d < 1 or d > n:
        raise MixedDimension("complete complex needs 1 <= d <= n")
    return build_complex(n, list(combinations(range(1, n + 1), d)))
