"""Shared fixtures: small named complexes, random generators, and the
matrix operations only tests use."""

import random
from itertools import combinations, permutations

from volrig import build_complex, cone, facets_containing, k_faces, relabel
from volrig.errors import ContractionAnnihilates, NotAnEdge
from volrig.fileio import write_dataset
from volrig.linalg import ExactMatrix
from volrig.shifting import _predecessors, componentwise_leq
from volrig.sparsity import bipartite_complete_graph


def tetra():
    """Boundary of the 3-simplex: the smallest 2-sphere."""
    return build_complex(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def octahedron():
    return build_complex(6, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5),
                             (2, 3, 6), (3, 4, 6), (4, 5, 6), (2, 5, 6)])


def single_triangle(n=3):
    return build_complex(n, [(1, 2, 3)])


def bipartite33():
    return bipartite_complete_graph()


def csaszar_torus():
    """7-vertex torus: orbits {i,i+1,i+3} and {i,i+2,i+3} mod 7."""
    facets = []
    for i in range(7):
        facets.append(tuple(sorted(((i % 7) + 1, ((i + 1) % 7) + 1,
                                    ((i + 3) % 7) + 1))))
        facets.append(tuple(sorted(((i % 7) + 1, ((i + 2) % 7) + 1,
                                    ((i + 3) % 7) + 1))))
    return build_complex(7, facets)


def projective_plane_six():
    """The 6-vertex projective plane (10 triangles, every edge doubled)."""
    return build_complex(6, [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6),
                             (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 6),
                             (3, 5, 6), (4, 5, 6)])


def random_complex(rng, n, d, f=None):
    pool = list(combinations(range(1, n + 1), d))
    if f is None:
        f = rng.randint(1, len(pool))
    return build_complex(n, rng.sample(pool, f))


def stack(rng, K, k):
    """K with k random facets subdivided, each by a fresh vertex, then
    randomly relabelled: the same surface (or sphere) with k more
    vertices."""
    facets = list(K.facets)
    n = K.n + k
    for v in range(K.n + 1, n + 1):
        f = facets.pop(rng.randrange(len(facets)))
        facets.extend(tuple(u for u in f if u != w) + (v,) for w in f)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return build_complex(n, [sorted(perm[v - 1] for v in f) for f in facets])


def stacked_sphere(rng, d, n):
    """Stacked (d-1)-sphere on n >= d+1 vertices, randomly relabelled:
    the boundary of a simplex with n-d-1 random facets subdivided."""
    simplex = build_complex(d + 1, list(combinations(range(1, d + 2), d)))
    return stack(rng, simplex, n - d - 1)


def random_shifted_complex(rng, n, d, seeds=2):
    """Down-closure of a few random d-sets in the componentwise order."""
    pool = list(combinations(range(1, n + 1), d))
    tops = rng.sample(pool, seeds)
    family = {t for t in pool
              if any(componentwise_leq(t, top) for top in tops)}
    return build_complex(n, sorted(family))


def isomorphism_classes(n, d):
    """Every nonempty pure complex of d-sets on 1..n up to relabelling,
    by brute force: one canonical facet tuple per class, the least
    sorted tuple of facets over all n! relabellings, in sorted order.
    Each facet set not yet seen marks its whole orbit seen."""
    pool = list(combinations(range(1, n + 1), d))
    perms = [dict(zip(range(1, n + 1), p))
             for p in permutations(range(1, n + 1))]
    seen, classes = set(), []
    for size in range(1, len(pool) + 1):
        for faces in combinations(pool, size):
            if faces in seen:
                continue
            orbit = {tuple(sorted(tuple(sorted(p[v] for v in f))
                                  for f in faces)) for p in perms}
            seen |= orbit
            classes.append(min(orbit))
    return sorted(classes)


def cone_with_smallest_apex(L):
    """Cone whose apex gets label 1, pushing old labels up by one."""
    m = L.n
    perm = {m + 1: 1}
    perm.update({v: v + 1 for v in range(1, m + 1)})
    return relabel(cone(L), perm)


def make_dataset(dirpath, complexes):
    """Dataset directory of handmade complexes, in fileio's layout."""
    write_dataset(dirpath, complexes, "# source: handmade")


def fresh_rng(seed):
    return random.Random(seed)


def identity(n, field):
    m = ExactMatrix.zeros(n, n, field)
    for i in range(n):
        m.data[i][i] = field.one
    return m


def column(entries, field):
    return ExactMatrix([[x] for x in entries], field)


def transpose(m):
    return ExactMatrix([list(c) for c in zip(*m.data)], m.field,
                       _trusted=True)


def hstack(a, b):
    return ExactMatrix([x + y for x, y in zip(a.data, b.data)], a.field,
                       _trusted=True)


def submatrix(m, rows, cols):
    return ExactMatrix([[m.data[i][j] for j in cols] for i in rows],
                       m.field, _trusted=True)


def col(m, j):
    return [row[j] for row in m.data]


def matmul(a, b):
    cols = transpose(b).data
    return ExactMatrix([[a._dot(row, c) for c in cols] for row in a.data],
                       a.field, _trusted=True)


def left_kernel_basis(m):
    """Basis of {y : y M = 0}, one basis vector per row."""
    return transpose(transpose(m).right_kernel())


def cofactor(m, i, j):
    """Signed minor (-1)^(i+j) det(M without row i, column j); 0-based."""
    minor = m.det([r for r in range(m.nrows) if r != i],
                  [c for c in range(m.ncols) if c != j])
    return m.field.neg(minor) if (i + j) % 2 else minor


def contract_edge_three_pass(K, u, w):
    """complexes.contract_edge as three passes: collect the surviving
    facets with w merged into u and each image sorted, relabel those
    above w down by one, then rebuild through build_complex."""
    u, w = min(u, w), max(u, w)
    if u == w or not facets_containing(K, (u, w)):
        raise NotAnEdge("{%d, %d} is not an edge of the complex" % (u, w))
    survivors = set()
    for f in K.facets:
        if u in f and w in f:
            continue
        survivors.add(tuple(sorted(u if v == w else v for v in f)))
    if not survivors:
        raise ContractionAnnihilates("every facet meets the edge {%d, %d}"
                                     % (u, w))
    relabeled = [tuple(v - 1 if v > w else v for v in f) for f in survivors]
    return build_complex(K.n - 1, relabeled)


def compound_vector_by_minors(K, sigma, basis):
    """shifting.compound_vector with one basis.minor per size-k face."""
    cols = tuple(s - 1 for s in sigma)
    return [basis.minor(tuple(t - 1 for t in tau), cols)
            for tau in k_faces(K, len(sigma) - 1)]


def predecessor_span_by_minors(K, sigma, basis, order):
    """The entries of shifting._predecessor_span, one basis.minor each:
    a row per size-k face of K and a column per predecessor of sigma."""
    face_rows = [tuple(t - 1 for t in tau)
                 for tau in k_faces(K, len(sigma) - 1)]
    cols = [tuple(s - 1 for s in t)
            for t in _predecessors(sigma, basis.n, order)]
    return [[basis.minor(rows, c) for c in cols] for rows in face_rows]
