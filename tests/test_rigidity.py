"""Rigidity matrix structure, trivial motions, and generic ranks."""

import time
from math import comb

import pytest

import volrig.rigidity
from helpers import (cofactor, fresh_rng, matmul, octahedron,
                     random_complex, single_triangle, stacked_sphere, tetra)
from volrig import (Placement, build_complex, columns_independent,
                    complete_complex, cone, generic_rank, is_volume_rigid,
                    random_placement, rigidity_matrix, simplex_matrix,
                    trivial_motion_basis)
from volrig.errors import (DimensionMismatch, InstanceTooLarge,
                           MissingVertexCoordinates)
from volrig.linalg import GF, QQ, PrimeField
from volrig.rigidity import (_cramer_cofactors, _min_degree_order,
                             _ordered_rank, rational_rank, target_rank)
from volrig.sparsity import bipartite_complete_graph, build_counterexample


def unit_placement():
    coords = {1: (QQ.of(0), QQ.of(0)), 2: (QQ.of(1), QQ.of(0)),
              3: (QQ.of(0), QQ.of(1))}
    return Placement(d=3, coords=coords, field=QQ)


def test_simplex_matrix_unit_triangle():
    m = simplex_matrix(unit_placement(), (1, 2, 3))
    assert m.det() == 1


def test_simplex_matrix_collinear():
    coords = {v: (QQ.of(v), QQ.of(2 * v)) for v in (1, 2, 3)}
    p = Placement(d=3, coords=coords, field=QQ)
    assert simplex_matrix(p, (1, 2, 3)).det() == 0


def test_simplex_matrix_translation_invariant():
    p = unit_placement()
    shifted = Placement(d=3, coords={
        v: (c[0] + 7, c[1] - 3) for v, c in p.coords.items()}, field=QQ)
    assert simplex_matrix(p, (1, 2, 3)).det() == \
        simplex_matrix(shifted, (1, 2, 3)).det()


def test_simplex_matrix_errors():
    p = unit_placement()
    with pytest.raises(DimensionMismatch):
        simplex_matrix(p, (1, 2))
    with pytest.raises(MissingVertexCoordinates):
        simplex_matrix(p, (1, 2, 4))


def test_rigidity_matrix_shape_and_support():
    rng = fresh_rng(3)
    for _ in range(10):
        d = rng.choice([3, 4])
        K = random_complex(rng, 7, d)
        p = random_placement(7, d, seed=rng.randrange(10 ** 6))
        m = rigidity_matrix(K, p)
        assert m.nrows == (d - 1) * 7
        assert m.ncols == K.num_facets
        for c, sigma in enumerate(K.facets):
            support = {i // (d - 1) + 1 for i in range(m.nrows)
                       if m.data[i][c] != 0}
            assert support <= set(sigma)
            assert sum(1 for i in range(m.nrows) if m.data[i][c] != 0) \
                <= d * (d - 1)


def test_rigidity_matrix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rigidity_matrix(tetra(), random_placement(4, 4, seed=0))


def test_single_triangle_rank_one():
    rep = generic_rank(single_triangle())
    assert rep.generic_rank == 1
    assert rep.target_rank == 1
    assert rep.is_rigid


def test_tetra_rank_three():
    rep = generic_rank(tetra())
    assert rep.generic_rank == 3
    assert rep.target_rank == 3
    assert rep.is_rigid
    assert rep.corank == 0
    assert rep.trial_ranks == (3, 3, 3)


def test_trivial_motions_annihilate_exactly():
    rng = fresh_rng(9)
    for _ in range(20):
        d = rng.choice([3, 4])
        n = rng.randint(d, 7)
        K = random_complex(rng, n, d)
        p = random_placement(n, d, seed=rng.randrange(10 ** 6))
        motions = trivial_motion_basis(p, n)
        assert motions.nrows == d * d - d - 1
        assert motions.rank() == d * d - d - 1
        product = matmul(motions, rigidity_matrix(K, p))
        assert all(x == 0 for row in product.data for x in row)


def test_trivial_motions_pure_translation():
    # The translation row lies in the left kernel for the one-facet case.
    p = unit_placement()
    motions = trivial_motion_basis(p, 3)
    m = rigidity_matrix(single_triangle(), p)
    for i in range(motions.nrows):
        row = motions.data[i]
        acc = [sum(row[r] * m.data[r][c] for r in range(m.nrows))
               for c in range(m.ncols)]
        assert all(x == 0 for x in acc)


def test_rank_bounded_by_trivial_kernel():
    rng = fresh_rng(13)
    for _ in range(15):
        d = rng.choice([3, 4])
        n = rng.randint(d + 1, 7)
        K = random_complex(rng, n, d)
        rep = generic_rank(K, trials=2, seed=rng.randrange(10 ** 6))
        assert rep.generic_rank <= min(K.num_facets, rep.target_rank)
        assert rep.corank >= 0


def test_rank_monotone_in_facets():
    rng = fresh_rng(21)
    for _ in range(12):
        K = random_complex(rng, 6, 3)
        if K.num_facets < 2:
            continue
        smaller = build_complex(6, K.facets[:-1])
        assert generic_rank(smaller, trials=2).generic_rank <= \
            generic_rank(K, trials=2).generic_rank


def test_target_rank_degenerate_cases():
    assert target_rank(4, 3, 4) == 3
    assert target_rank(3, 3, 1) == 1
    assert target_rank(2, 2, 1) == 1
    assert target_rank(4, 4, 1) == 1


def test_octahedron_rigid():
    rep = generic_rank(octahedron())
    assert rep.generic_rank == 7
    assert rep.is_rigid


def test_cone_of_bipartite_not_rigid():
    K = cone(bipartite_complete_graph())
    rep = generic_rank(K)
    assert not rep.is_rigid
    assert rep.generic_rank == 8
    assert rep.target_rank == 9


def test_spanning_tree_rank_for_graphs():
    # d=2 reduces to a classical count: rank = n-1 for connected graphs.
    path = build_complex(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    rep = generic_rank(path)
    assert rep.generic_rank == 4
    assert rep.target_rank == 4


def test_columns_independent():
    K = tetra()
    assert columns_independent(K, [(1, 2, 3)])
    assert columns_independent(K, list(K.facets[:3]))
    assert not columns_independent(K, list(K.facets))
    assert columns_independent(4, [])


def test_columns_independent_duplicate_is_dependent():
    assert not columns_independent(4, [(1, 2, 3), (1, 2, 3)])


def test_entry_points_refuse_oversized_rigidity_matrix():
    # One facet on 300,000 vertices: a 600,000 x 1 rigidity matrix, past
    # the entry limit, as generic_rank already refuses.  Both used to
    # draw a placement and assemble the whole matrix before ranking it.
    K = build_complex(300000, [(1, 2, 3)])
    # A repeated face is refused too, before its columns are compared.
    for check in (lambda: columns_independent(300000, [(1, 2, 3)], trials=1),
                  lambda: columns_independent(300000, [(1, 2, 3), (1, 2, 3)],
                                              trials=1),
                  lambda: rational_rank(K)):
        start = time.monotonic()
        with pytest.raises(InstanceTooLarge, match="rigidity matrix"):
            check()
        assert time.monotonic() - start < 1


def test_rigid_decision_stable_across_seeds():
    for seed in (0, 17, 4711):
        assert is_volume_rigid(tetra(), seed=seed)
        assert not is_volume_rigid(cone(bipartite_complete_graph()),
                                   seed=seed)


def _placement(rng, n, d, field):
    if field is QQ:
        coords = {v: tuple(QQ.of(rng.randrange(-999, 1000))
                           for _ in range(d - 1)) for v in range(1, n + 1)}
        return Placement(d=d, coords=coords, field=QQ)
    return random_placement(n, d, rng.randrange(10 ** 6), field=field)


def test_rational_placement_is_the_integer_stream():
    # `rank --exact` prints rational_rank, so its placement is pinned:
    # the integers -999..999 drawn from Random(seed), row by row, and
    # ranked by the same loop as every generic rank over QQ.  They are
    # ints, equal to the Fractions QQ.of makes of the same stream.
    for n, d, seed in ((4, 2, 0), (7, 3, 5), (6, 4, 11), (9, 5, 123)):
        rng = fresh_rng(seed)
        coords = {v: tuple(QQ.of(rng.randrange(-999, 1000))
                           for _ in range(d - 1)) for v in range(1, n + 1)}
        p = random_placement(n, d, seed, QQ)
        assert p.coords == coords
        assert all(type(x) is int for c in p.coords.values() for x in c)
    for K in (tetra(), octahedron(), cone(bipartite_complete_graph()),
              stacked_sphere(fresh_rng(4), 4, 9)):
        for seed in (0, 3):
            assert rational_rank(K, seed) == generic_rank(
                K, trials=1, seed=seed, field=QQ).generic_rank


def _assert_ordered_rank_is_rank(rng, K, field):
    p = _placement(rng, K.n, K.d, field)
    rank = _ordered_rank(K, p, _min_degree_order(K.n, K.facets))
    assert rank == rigidity_matrix(K, p).rank()
    return rank


@pytest.mark.parametrize("field", [GF, PrimeField(7), QQ],
                         ids=["default", "GF7", "QQ"])
def test_ordered_rank_equals_natural_rank(field):
    rng = fresh_rng(8)
    for d in (2, 3, 4, 5):
        for n in range(d, d + 6):
            # Few facets leave isolated vertices; n = d has one facet.
            for f in (1, min(2, comb(n, d)), None):
                K = random_complex(rng, n, d, f=f)
                _assert_ordered_rank_is_rank(rng, K, field)
        _assert_ordered_rank_is_rank(
            rng, build_complex(3 * d, [tuple(range(1, d + 1))]), field)
    # The ordered rank eliminates coordinate rows, so tall matrices (the
    # counterexamples at d = 6 and 8, 50 x 21 and 84 x 29) and a wide one
    # (all 120 triangles on 10 vertices, 20 x 120) are ranked as well.
    for K in (build_counterexample(6), build_counterexample(8),
              complete_complex(10, 3)):
        _assert_ordered_rank_is_rank(rng, K, field)
    for d, n in ((3, 90), (4, 50)):
        K = stacked_sphere(rng, d, n)
        rank = _assert_ordered_rank_is_rank(rng, K, field)
        if field != PrimeField(7):
            assert rank == target_rank(n, d, K.num_facets)


def _singular_placement(d, field):
    """A placement of n = d + 2 vertices in (d-1)-space on the moment
    curve, except that p(5) = p(1) + p(2) - p(3), and at d >= 6 also
    p(6) = 2 p(1) - p(2): facets holding 1, 2, 3 and 5 have affinely
    dependent points, and (1, ..., 6) has a block of rank 4."""
    coords = {v: [v ** i for i in range(1, d)] for v in range(1, d + 3)}
    coords[5] = [x + y - z for x, y, z in zip(coords[1], coords[2], coords[3])]
    if d >= 6:
        coords[6] = [2 * x - y for x, y in zip(coords[1], coords[2])]
    return Placement(d=d, coords={v: tuple(field.of(x) if field.q else x
                                           for x in c)
                                  for v, c in coords.items()}, field=field)


def _assert_cofactors(K, p):
    m = rigidity_matrix(K, p)
    d = K.d
    for col, sigma in enumerate(K.facets):
        lifted = simplex_matrix(p, sigma)
        for j, v in enumerate(sigma):
            for i in range(d - 1):
                assert m.data[(v - 1) * (d - 1) + i][col] == \
                    cofactor(lifted, i, j)


@pytest.mark.parametrize("field", [GF, PrimeField(5), PrimeField(7), QQ],
                         ids=["default", "GF5", "GF7", "QQ"])
def test_rigidity_entries_are_cofactors(field):
    # Up to d = 4 entries are closed forms; from d = 5 on they are read
    # off one reduction of [M | I] per facet, M the facet's lifted block.
    # The per-entry cofactor is the oracle.  Over GF(5) and GF(7)
    # placements are often degenerate, so some blocks are singular and
    # read each entry as its own det instead, as do the facets of the
    # hand-made placements at d = 5 and 6, whose points are affinely
    # dependent.
    rng = fresh_rng(21)
    for d in range(3, 13):
        n = d + 2
        _assert_cofactors(random_complex(rng, n, d, f=6),
                          _placement(rng, n, d, field))
    for d in (5, 6):
        p = _singular_placement(d, field)
        singular = [(1, 2, 3, 4, 5, 6, 7)[:d],
                    (1, 2, 3, 5, 6, 7, 8)[:d - 1] + (d + 2,)]
        K = build_complex(d + 2, singular + [tuple(range(3, d + 3))])
        A = volrig.rigidity._vertex_matrix(p, K.n)
        assert all(_cramer_cofactors(A, s) is None for s in singular)
        _assert_cofactors(K, p)


def test_rational_entries_are_ints():
    # Over QQ at an integer placement every entry is an integer cofactor,
    # and the numbers the package makes over QQ are ints: the Cramer
    # entries from d = 5 on, and the dets that singular blocks take
    # instead, are never Fractions with denominator 1.
    for d in range(3, 13):
        m = rigidity_matrix(build_counterexample(d),
                            random_placement(d + 4, d, 1, QQ))
        assert all(type(x) is int for row in m.data for x in row)
    for d in (5, 6):
        p = _singular_placement(d, QQ)
        K = build_complex(d + 2, [(1, 2, 3, 4, 5, 6, 7)[:d],
                                  (1, 2, 3, 5, 6, 7, 8)[:d - 1] + (d + 2,),
                                  tuple(range(3, d + 3))])
        m = rigidity_matrix(K, p)
        assert all(type(x) is int for row in m.data for x in row)
        assert type(simplex_matrix(p, K.facets[-1]).det()) is int


def test_min_degree_order():
    rng = fresh_rng(9)
    for _ in range(10):
        d = rng.choice([2, 3, 4])
        K = random_complex(rng, rng.randint(d, 9), d)
        order = _min_degree_order(K.n, K.facets)
        assert sorted(order) == list(range(1, K.n + 1))
        assert order == _min_degree_order(K.n, K.facets)
    # All four vertices have degree 3; ties go to the smallest label.
    assert _min_degree_order(4, tetra().facets) == [1, 2, 3, 4]
    # Isolated vertices have degree 0 and come first.
    assert _min_degree_order(5, [(2, 3, 4)]) == [1, 5, 2, 3, 4]


def test_ranks_assemble_the_rigidity_matrix(monkeypatch):
    # The benchmark's traced run requires rigidity_matrix to be called
    # once per placement; a rank that bypasses it would lose that span.
    calls = []
    assemble = volrig.rigidity.rigidity_matrix

    def counted(K, p):
        calls.append(p)
        return assemble(K, p)

    monkeypatch.setattr(volrig.rigidity, "rigidity_matrix", counted)
    K = octahedron()
    assert generic_rank(K, trials=3).generic_rank == 7
    assert len(calls) == 3
    assert rational_rank(K) == 7
    assert len(calls) == 4
