"""Facet-list complexes and their local moves."""

from itertools import combinations
from math import comb

import pytest

from helpers import (contract_edge_three_pass, csaszar_torus, fresh_rng,
                     octahedron, projective_plane_six, random_complex, stack,
                     stacked_sphere, tetra)
from volrig import (build_complex, complete_complex, cone, contract_edge,
                    facets_containing, is_face, k_faces, relabel,
                    remove_facet, union_complex)
from volrig.complexes import SimplicialComplex, as_face
from volrig.errors import (ApexCollision, ContractionAnnihilates,
                           EmptyFacetList, FacetNotPresent, FaceTooLarge,
                           InvalidFace, KOutOfRange, MixedDimension,
                           NotAnEdge, VertexOutOfRange, VolrigError)


class Label(int):
    """An int subclass, which as_face accepts like an int."""


def test_as_face_normalizes():
    assert as_face([3, 1, 2]) == (1, 2, 3)
    assert as_face((5,)) == (5,)
    assert as_face(iter([5, 2, 7])) == (2, 5, 7)
    assert as_face([]) == ()
    face = as_face([Label(3), Label(1)])
    assert face == (1, 3) and all(type(v) is Label for v in face)
    # Each refusal names the first bad label, before any repeat.
    msg = "vertex labels must be positive ints, got %s"
    for labels, message in (
            ([1, True], msg % "True"),
            ([False], msg % "False"),
            ([2, 0, -1], msg % "0"),
            ([3, -2], msg % "-2"),
            ([1, 2.0], msg % "2.0"),
            ([1, "2", None], msg % "'2'"),
            ([None, 1], msg % "None"),
            ([Label(0)], msg % "0"),
            ([1, 1, 0], msg % "0"),
            ([2, 1, 2], "repeated vertex in face (2, 1, 2)"),
            ((v for v in (4, 4)), "repeated vertex in face (4, 4)")):
        with pytest.raises(InvalidFace) as e:
            as_face(labels)
        assert str(e.value) == message


def test_build_complex_canonicalizes():
    K = build_complex(4, [(2, 1, 3), (1, 2, 3), (4, 3, 2)])
    assert K.facets == ((1, 2, 3), (2, 3, 4))
    assert K.num_facets == 2
    assert K.d == 3


def test_build_complex_errors():
    with pytest.raises(EmptyFacetList):
        build_complex(3, [])
    with pytest.raises(MixedDimension):
        build_complex(4, [(1, 2), (1, 2, 3)])
    with pytest.raises(VertexOutOfRange):
        build_complex(3, [(1, 2, 4)])
    with pytest.raises(VertexOutOfRange):
        build_complex(0, [(1,)])


def test_build_complex_invariant_under_label_permutation():
    # The canonical facet tuple must not depend on input ordering.
    rng = fresh_rng(2)
    for _ in range(20):
        K = random_complex(rng, 6, 3)
        shuffled = [tuple(reversed(f)) for f in reversed(K.facets)]
        assert build_complex(6, shuffled).facets == K.facets


def test_k_faces_tetra():
    K = tetra()
    assert k_faces(K, 2) == list(K.facets)
    assert k_faces(K, 1) == sorted(combinations(range(1, 5), 2))
    assert k_faces(K, 0) == [(1,), (2,), (3,), (4,)]
    with pytest.raises(KOutOfRange):
        k_faces(K, 3)
    with pytest.raises(KOutOfRange):
        k_faces(K, -1)


def test_complete_complex_counts():
    K = complete_complex(6, 3)
    assert K.num_facets == comb(6, 3)
    for k in range(3):
        assert len(k_faces(K, k)) == comb(6, k + 1)


def test_cone_default_apex():
    K = cone(tetra())
    assert K.n == 5
    assert K.d == 4
    assert all(f[-1] == 5 for f in K.facets)
    assert K.num_facets == 4


def test_cone_apex_collision():
    with pytest.raises(ApexCollision):
        cone(tetra(), apex=3)


def test_cone_face_counts_shift():
    # Faces of the cone through the apex biject with faces below.
    rng = fresh_rng(7)
    for _ in range(10):
        L = random_complex(rng, 5, 2)
        C = cone(L)
        with_apex = [f for f in k_faces(C, 1) if C.n in f]
        assert len(with_apex) == len(k_faces(L, 0))


def test_union_complex():
    A = build_complex(4, [(1, 2, 3)])
    B = build_complex(5, [(2, 3, 5)])
    U = union_complex(A, B)
    assert U.n == 5
    assert U.facets == ((1, 2, 3), (2, 3, 5))
    # Vertices without a facet still count: 6 and 7 stay.
    W = union_complex(build_complex(7, [(1, 2, 3)]), B)
    assert W.n == 7
    assert W.facets == U.facets
    with pytest.raises(MixedDimension):
        union_complex(A, build_complex(3, [(1, 2)]))


def test_facets_containing():
    K = tetra()
    assert facets_containing(K, (1, 2)) == [(1, 2, 3), (1, 2, 4)]
    assert facets_containing(K, (1,)) == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
    assert facets_containing(K, (1, 2, 3)) == [(1, 2, 3)]
    with pytest.raises(FaceTooLarge):
        facets_containing(K, (1, 2, 3, 4))
    # Against the set-subset definition: faces of every size from 0 to
    # d + 1, labels up to n + 1, too large a face refused either way.
    def by_subsets(K, face):
        f = as_face(face)
        if len(f) > K.d:
            raise FaceTooLarge("face %r larger than facet cardinality %d"
                               % (f, K.d))
        return [s for s in K.facets if set(f).issubset(s)]

    rng = fresh_rng(71)
    for d in (1, 2, 3, 4, 5):
        for _ in range(6):
            K = random_complex(rng, rng.randint(d + 1, 8), d)
            for size in range(d + 2):
                for face in combinations(range(1, K.n + 2), size):
                    face = rng.sample(face, size)
                    assert _outcome(facets_containing, K, face) == \
                        _outcome(by_subsets, K, face)


def test_is_face():
    K = build_complex(5, [(1, 2, 3), (2, 3, 4)])
    assert is_face(K, (1, 3))
    assert is_face(K, (4,))
    assert not is_face(K, (1, 4))
    assert not is_face(K, (5,))
    assert not is_face(K, (1, 2, 3, 4))


def test_contract_edge_tetra_to_triangle():
    K = contract_edge(tetra(), 1, 2)
    assert K.n == 3
    assert K.facets == ((1, 2, 3),)


def test_contract_edge_octahedron():
    # Opposite triangle pairs fold onto each other: 8 facets become 6.
    K = contract_edge(octahedron(), 1, 2)
    assert K.n == 5
    assert K.facets == ((1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5),
                        (2, 3, 5), (3, 4, 5))


def _outcome(call, *args):
    """What call returns, or the type and message of its error."""
    try:
        return call(*args)
    except VolrigError as e:
        return type(e), str(e)


def test_contract_edge_keeps_smaller_label_argument_order():
    assert contract_edge(octahedron(), 2, 1).facets == \
        contract_edge(octahedron(), 1, 2).facets
    # Against the three-pass oracle, on every edge, in both argument
    # orders: stacked 2- and 3-spheres, relabelled stacked tori and RP²,
    # and random complexes with facets of size 2 to 5 (where a
    # contraction may annihilate, or merge two facets into one image).
    # In the last case (1, 3, 4) and (2, 3, 4) both become (1, 2, 3)
    # under (1, 2).
    rng = fresh_rng(37)
    cases = [stacked_sphere(rng, d, n) for d in (3, 4) for n in (d + 1, 9)]
    cases += [stack(rng, L, k) for L in (csaszar_torus(),
                                         projective_plane_six())
              for k in (0, 3)]
    cases += [random_complex(rng, rng.randint(d + 1, 8), d)
              for d in (2, 3, 4, 5) for _ in range(8)]
    cases.append(build_complex(5, [(1, 2, 5), (1, 3, 4), (2, 3, 4),
                                   (3, 4, 5)]))
    merged = 0
    for K in cases:
        for e in k_faces(K, 1):
            for u, w in (e, e[::-1]):
                got = _outcome(contract_edge, K, u, w)
                assert got == _outcome(contract_edge_three_pass, K, u, w)
                if isinstance(got, SimplicialComplex):
                    through = len(facets_containing(K, e))
                    merged += got.num_facets < K.num_facets - through
    assert contract_edge(cases[-1], 2, 1).facets == ((1, 2, 3), (2, 3, 4))
    assert merged > 10


def test_contract_edge_errors():
    with pytest.raises(NotAnEdge):
        contract_edge(build_complex(4, [(1, 2, 3)]), 1, 4)
    with pytest.raises(NotAnEdge):
        contract_edge(tetra(), 2, 2)
    with pytest.raises(InvalidFace):
        contract_edge(tetra(), 0, 2)
    with pytest.raises(ContractionAnnihilates):
        contract_edge(build_complex(3, [(1, 2, 3)]), 1, 2)
    # The same error type and message as the three-pass oracle.
    for K, u, w in ((build_complex(4, [(1, 2, 3)]), 1, 4), (tetra(), 2, 2),
                    (tetra(), 0, 2), (tetra(), 2, 0), (tetra(), -1, 2),
                    (tetra(), True, 2), (tetra(), 1, 5),
                    (build_complex(3, [(1, 2, 3)]), 2, 1)):
        assert _outcome(contract_edge, K, u, w) == \
            _outcome(contract_edge_three_pass, K, u, w)


def test_remove_facet():
    K = remove_facet(tetra(), (2, 3, 4))
    assert K.num_facets == 3
    assert K.n == 4
    assert remove_facet(build_complex(3, [(1, 2, 3)]), (1, 2, 3)) is None
    with pytest.raises(FacetNotPresent):
        remove_facet(build_complex(5, [(1, 2, 3)]), (1, 2, 4))


def test_relabel_roundtrip():
    K = octahedron()
    perm = {1: 3, 2: 1, 3: 2, 4: 6, 5: 4, 6: 5}
    inverse = {v: k for k, v in perm.items()}
    assert relabel(relabel(K, perm), inverse).facets == K.facets
    with pytest.raises(VertexOutOfRange):
        relabel(K, {v: v + 1 for v in range(1, 7)})


def test_vertices_skips_isolated():
    K = build_complex(9, [(1, 2, 3)])
    assert K.vertices() == (1, 2, 3)
