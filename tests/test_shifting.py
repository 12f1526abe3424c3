"""Generic bases, compound coordinates, shifted families, wedge map."""

import time
import tracemalloc
from itertools import combinations

import pytest

import volrig.shifting
from helpers import (cofactor, compound_vector_by_minors,
                     cone_with_smallest_apex, csaszar_torus, fresh_rng,
                     octahedron, predecessor_span_by_minors,
                     projective_plane_six, random_complex,
                     random_shifted_complex, stacked_sphere, submatrix,
                     tetra)
from volrig import (build_complex, complete_complex, cone, k_faces)
from volrig.cycles import boundary_operator, verify_dataset
from volrig.errors import (BadParameters, DimensionMismatch,
                           GenericityFailure, InstanceTooLarge,
                           SingularBasis, SizeExceedsDimension)
from volrig.fileio import SurfaceDataset
from volrig.linalg import (GF, QQ, ExactMatrix, PrimeField,
                           sample_generic_matrix)
from volrig.rigidity import (generic_rank, is_volume_rigid, rigidity_matrix,
                             simplex_matrix)
from volrig.shifting import (GenericBasis, _predecessor_count,
                             _predecessor_span, _predecessors,
                             characteristic_face,
                             characteristic_membership,
                             characteristic_prefix, componentwise_leq,
                             compound_vector, generic_basis,
                             in_shifted_family, placement_from_basis,
                             shifted_level, shifted_level_stable,
                             wedge_map_matrix)
from volrig.sparsity import bipartite_complete_graph, build_counterexample


def test_componentwise_leq():
    assert componentwise_leq((1, 3, 5), (2, 3, 6))
    assert not componentwise_leq((1, 4), (2, 3))
    assert not componentwise_leq((1, 2), (1, 2, 3))
    assert componentwise_leq((2, 5), (2, 5))


def test_characteristic_face_values():
    assert characteristic_face(3, 6) == (1, 3, 6)
    assert characteristic_face(4, 9) == (1, 3, 4, 9)
    assert characteristic_face(3, 4) == (1, 3, 4)
    with pytest.raises(BadParameters):
        characteristic_face(2, 5)
    with pytest.raises(BadParameters):
        characteristic_face(3, 3)


def test_characteristic_prefix_small():
    assert characteristic_prefix(3, 4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
    assert len(characteristic_prefix(3, 6)) == 7
    assert len(characteristic_prefix(4, 9)) == 1 + 5 * 3


def test_characteristic_prefix_is_down_set_of_face():
    for d, n in ((3, 5), (3, 7), (4, 6), (4, 8)):
        face = characteristic_face(d, n)
        prefix = characteristic_prefix(d, n)
        brute = sorted(t for t in combinations(range(1, n + 1), d)
                       if componentwise_leq(t, face))
        assert prefix == brute
        assert _predecessors(face, n, "p") == brute[:-1]
        sigma = tuple(range(n - d + 1, n + 1))
        assert _predecessors(sigma, n, "p") == [
            t for t in combinations(range(1, n + 1), d)
            if t != sigma and componentwise_leq(t, sigma)]
    # Random sets' down-sets and lex predecessors, against the same scan,
    # and both orders' predecessor counts against the listings.
    rng = fresh_rng(8)
    for _ in range(60):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(5, n))
        sigma = tuple(sorted(rng.sample(range(1, n + 1), k)))
        assert _predecessors(sigma, n, "p") == [
            t for t in combinations(range(1, n + 1), k)
            if t != sigma and componentwise_leq(t, sigma)]
        assert _predecessors(sigma, n, "lex") == [
            t for t in combinations(range(1, n + 1), k) if t < sigma]
        for order in ("p", "lex"):
            assert _predecessor_count(sigma, n, order) == \
                len(_predecessors(sigma, n, order))
    with pytest.raises(BadParameters):
        _predecessor_count((1, 2), 3, "revlex")


def test_basis_minor_matches_det():
    # Minors above 3 x 3 are read off one memoised reduction of their
    # rows: the lead alone when the columns are the pivots, one entry of
    # the reduced rows when they miss one pivot, and a smaller
    # determinant when they miss more.  Random column sets nearly always
    # miss two or more, so sets within one swap of the pivots (the first
    # k columns, for rows in general position) are drawn as well; over
    # GF(3), GF(5) and GF(7) the pivots often lie elsewhere.
    rng = fresh_rng(3)
    n = 10
    for field in (GF, PrimeField(7), PrimeField(5), PrimeField(3)):
        b = generic_basis(n, seed=9, field=field)
        for k in range(4, 10):
            for _ in range(12):
                rows = tuple(sorted(rng.sample(range(n), k)))
                near = list(range(k))
                near[rng.randrange(k)] = rng.randrange(k, n)
                for cols in (tuple(range(k)), tuple(sorted(near)),
                             tuple(sorted(rng.sample(range(n), k)))):
                    assert b.minor(rows, cols) == \
                        submatrix(b.matrix, rows, cols).det()


def test_minor_of_dependent_rows_matches_det():
    # Rows of a nonsingular basis are independent, so dependent row sets
    # come from a matrix with combinations of its rows appended: row 8 is
    # row 0 plus twice row 1, so every minor of rows 0, 1 and 8 together
    # is zero.  GenericBasis takes the matrix as given (it is singular);
    # one basis keeps its memo through the loop, a fresh one starts empty.
    rng = fresh_rng(13)
    for field in (PrimeField(3), PrimeField(5)):
        m = sample_generic_matrix(8, 11, seed=4, field=field)
        data = m.data + [[field.add(x, field.mul(2, y))
                          for x, y in zip(m.data[i], m.data[j])]
                         for i, j in ((0, 1), (2, 5), (3, 7))]
        m = ExactMatrix(data, field, _trusted=True)
        b = GenericBasis(11, m)
        for k in range(4, 10):
            dependent = tuple(sorted((0, 1, 8) + tuple(range(2, k - 1))))
            for rows in (dependent, tuple(sorted(rng.sample(range(11), k)))):
                for _ in range(8):
                    near = list(range(k))
                    near[rng.randrange(k)] = rng.randrange(k, 11)
                    for cols in (tuple(range(k)), tuple(sorted(near)),
                                 tuple(sorted(rng.sample(range(11), k)))):
                        want = submatrix(m, rows, cols).det()
                        assert b.minor(rows, cols) == want
                        assert GenericBasis(11, m).minor(rows, cols) == want


def test_basis_minor_memo_is_per_basis():
    # Memo keys name only row and column indices, so two bases sharing one
    # memo would read each other's subminors.
    rng = fresh_rng(5)
    bases = [generic_basis(7, seed=s) for s in (1, 2)]
    for _ in range(10):
        rows = tuple(sorted(rng.sample(range(7), 4)))
        cols = tuple(sorted(rng.sample(range(7), 4)))
        for b in bases + bases:
            assert b.minor(rows, cols) == b.matrix.det(rows, cols)


def test_generic_basis_shape():
    b = generic_basis(6, seed=4)
    assert b.matrix.rank() == 6
    assert all(b.matrix.data[i][0] == 1 for i in range(6))
    again = generic_basis(6, seed=4)
    assert again.matrix == b.matrix


def test_generic_basis_redraws_singular_samples(monkeypatch):
    # Singular draws retry with seed + (attempt << 32); the basis is the
    # first nonsingular draw.  Sixteen singular draws give up.
    seeds, singular = [], 3

    def sample(n, ncols, seed, first_column_ones, field):
        seeds.append(seed)
        if len(seeds) <= singular:
            return ExactMatrix.zeros(n, n, field)
        return sample_generic_matrix(n, ncols, seed, field=field,
                                     first_column_ones=first_column_ones)

    monkeypatch.setattr(volrig.shifting, "sample_generic_matrix", sample)
    b = generic_basis(5, seed=7)
    assert seeds == [7 + (a << 32) for a in range(4)]
    assert b.matrix.rank() == 5
    assert b.matrix == sample_generic_matrix(5, 5, 7 + (3 << 32),
                                             first_column_ones=True, field=GF)
    seeds.clear()
    singular = 16
    with pytest.raises(SingularBasis, match="16 attempts"):
        generic_basis(5, seed=7)
    assert seeds == [7 + (a << 32) for a in range(16)]


def test_compound_vector_of_ones_column():
    K = tetra()
    b = generic_basis(4, seed=0)
    assert compound_vector(b, K, (1,)) == [1, 1, 1, 1]


def test_compound_vector_full_size_is_determinant():
    K = complete_complex(4, 4)
    b = generic_basis(4, seed=1)
    vec = compound_vector(b, K, (1, 2, 3, 4))
    assert vec == [b.matrix.det()]
    assert vec[0] != 0


def test_compound_vector_errors():
    b = generic_basis(4, seed=0)
    with pytest.raises(SizeExceedsDimension):
        compound_vector(b, tetra(), (1, 2, 3, 4))
    with pytest.raises(DimensionMismatch):
        compound_vector(generic_basis(5, seed=0), tetra(), (1, 2))


def test_compound_vector_indexes_only_existing_faces():
    K = build_complex(4, [(1, 2, 3)])
    b = generic_basis(4, seed=2)
    assert len(compound_vector(b, K, (1, 2))) == 3
    assert len(compound_vector(b, K, (2, 3))) == 3


def test_singleton_always_member():
    rng = fresh_rng(5)
    for _ in range(5):
        K = random_complex(rng, 5, 3)
        b = generic_basis(5, seed=rng.randrange(10 ** 6))
        assert in_shifted_family(K, (1,), b)


def test_bipartite_lex_pair_member():
    K = bipartite_complete_graph()
    for seed in range(3):
        b = generic_basis(6, seed=seed)
        assert in_shifted_family(K, (3, 4), b, order="lex")


def test_shifted_complex_is_fixed_point():
    rng = fresh_rng(11)
    for _ in range(6):
        K = random_shifted_complex(rng, 6, 3)
        b = generic_basis(6, seed=rng.randrange(10 ** 6))
        assert shifted_level(K, 3, b) == list(K.facets)
        level2 = shifted_level(K, 2, b)
        from volrig import k_faces
        assert level2 == k_faces(K, 1)


def test_level_membership_matches_definitional_test():
    # The streaming computation must agree with the one-face predicate,
    # in both orders, since both run through the same member loop.
    for order in ("p", "lex"):
        rng = fresh_rng(17)
        for _ in range(5):
            K = random_complex(rng, 5, 3)
            b = generic_basis(5, seed=rng.randrange(10 ** 6))
            level = set(shifted_level(K, 3, b, order))
            for sigma in combinations(range(1, 6), 3):
                assert (sigma in level) == in_shifted_family(K, sigma, b,
                                                             order)
    # The partial order's cover recursion on d = 4, over GF(13) too,
    # where degenerate bases make covers' spans differ.
    for field in (GF, PrimeField(13)):
        rng = fresh_rng(53)
        for _ in range(4):
            K = random_complex(rng, 6, 4)
            b = generic_basis(6, seed=rng.randrange(10 ** 6), field=field)
            for k in (3, 4):
                level = set(shifted_level(K, k, b))
                for sigma in combinations(range(1, 7), k):
                    assert (sigma in level) == in_shifted_family(K, sigma, b)
    # Stacked 2-spheres, whose spans fill up long before the last set, so
    # both walks take their full-span exit.
    for field in (GF, PrimeField(13)):
        rng = fresh_rng(61)
        for n in (7, 8):
            K = stacked_sphere(rng, 3, n)
            b = generic_basis(n, seed=rng.randrange(10 ** 6), field=field)
            for k in (2, 3):
                for order in ("p", "lex"):
                    level = set(shifted_level(K, k, b, order))
                    for sigma in combinations(range(1, n + 1), k):
                        assert (sigma in level) == in_shifted_family(
                            K, sigma, b, order)
                if field == GF:
                    # Lex members span all size-k faces before the last
                    # set, which the partial order puts above every
                    # other set.
                    lex = shifted_level(K, k, b, "lex")
                    assert len(lex) == len(k_faces(K, k - 1))
                    assert lex[-1] < tuple(range(n - k + 1, n + 1))


def _lex_shift(K, b):
    """Kalai's exterior shift Delta(K) at basis b: level k of
    shifted_level under lex, as a set, for k = 1..d."""
    return {k: set(shifted_level(K, k, b, "lex")) for k in range(1, K.d + 1)}


def test_lex_level_preserves_facet_count():
    # Kalai ("Algebraic shifting"): the lex levels form a shifted complex
    # Delta(K) with K's f-vector.  So each level has as many sets as K has
    # faces of that size, holds the down-set of each of its sets, and
    # holds every subset of a member one size down.  A characteristic
    # face in Delta(K) then puts its whole down-set D there, which gives
    # M_D full rank, so K is rigid; that branch must be met.
    rng = fresh_rng(19)
    inside = 0
    for _ in range(45):
        d = rng.randint(3, 5)
        K = random_complex(rng, rng.randint(d + 1, d + 4), d)
        b = generic_basis(K.n, seed=rng.randrange(10 ** 6))
        shift = _lex_shift(K, b)
        for k, level in shift.items():
            assert len(level) == len(k_faces(K, k - 1)), (k, K.facets)
            for sigma in level:
                assert set(_predecessors(sigma, K.n, "p")) <= level
                if k > 1:
                    assert set(combinations(sigma, k - 1)) <= shift[k - 1]
        if characteristic_face(d, K.n) in shift[d]:
            assert is_volume_rigid(K), K.facets
            inside += 1
    assert inside


def _reduced_betti(K):
    """Reduced Betti numbers b_0, ..., b_{d-1} of K over QQ: b_{k-1} =
    f_{k-1} - rank d_k - rank d_{k+1}, with d_k the boundary from
    size-k faces (cycles.boundary_operator), d_1 the augmentation, of
    rank 1, and d_{d+1} = 0."""
    ranks = [1] + [boundary_operator(K, k, QQ).rank()
                   for k in range(2, K.d + 1)] + [0]
    return [len(k_faces(K, k - 1)) - ranks[k - 1] - ranks[k]
            for k in range(1, K.d + 1)]


def _shifted_betti(shift):
    """Bjorner and Kalai's count b_{k-1} = #{S in Delta_k : 1 not in S,
    {1} + S not in Delta_{k+1}}, for k = 1..d."""
    return [sum(S[0] != 1 and (1,) + S not in shift.get(k + 1, ())
                for S in level) for k, level in sorted(shift.items())]


def test_lex_shift_gives_reduced_betti_numbers():
    # Bjorner and Kalai ("An extended Euler-Poincare theorem"): Delta(K)
    # gives K's reduced Betti numbers, here checked against boundary
    # ranks over QQ at every level, on the octahedron, the Csaszar torus
    # and the 6-vertex RP^2 (whose rational homology vanishes), and on
    # random complexes.
    for K, betti in ((octahedron(), [0, 0, 1]), (csaszar_torus(), [0, 2, 1]),
                     (projective_plane_six(), [0, 0, 0])):
        assert _reduced_betti(K) == betti
        assert _shifted_betti(_lex_shift(K, generic_basis(K.n, 1))) == betti
    rng = fresh_rng(47)
    for _ in range(40):
        d = rng.randint(2, 5)
        K = random_complex(rng, rng.randint(d + 1, d + 4), d)
        b = generic_basis(K.n, seed=rng.randrange(10 ** 6))
        assert _shifted_betti(_lex_shift(K, b)) == _reduced_betti(K), \
            K.facets


def test_rigidity_needs_the_partial_order_from_d4():
    # This d = 4 complex on 6 vertices is rigid (rank 7, the target) and
    # its characteristic face (1, 3, 4, 6) is a member, so it lies in the
    # partial-order level, which holds 9 sets against 7 facets; yet it
    # lies outside the lex level.  That verdict is Monte Carlo:
    # shifted_level_stable demands that its three bases agree.  The
    # octahedron's level 3 holds 10 sets under p and its 8 facets
    # under lex.
    K = build_complex(6, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 6),
                          (1, 3, 4, 5), (1, 3, 5, 6), (2, 3, 5, 6),
                          (3, 4, 5, 6)])
    rep = generic_rank(K)
    assert rep.generic_rank == rep.target_rank == 7 and rep.is_rigid
    assert characteristic_membership(K).member
    face = characteristic_face(4, 6)
    assert face == (1, 3, 4, 6)
    assert face not in shifted_level_stable(K, 4, "lex")
    p_level = shifted_level_stable(K, 4, "p")
    assert face in p_level and len(p_level) == 9
    assert len(shifted_level_stable(octahedron(), 3, "p")) == 10
    assert len(shifted_level_stable(octahedron(), 3, "lex")) == 8


def test_partial_order_level_contains_lex_level():
    rng = fresh_rng(23)
    for _ in range(8):
        K = random_complex(rng, 6, 3)
        b = generic_basis(6, seed=rng.randrange(10 ** 6))
        lex = set(shifted_level(K, 3, b, order="lex"))
        assert lex <= set(shifted_level(K, 3, b))


def test_level_is_downward_closed():
    rng = fresh_rng(29)
    for _ in range(8):
        K = random_complex(rng, 6, 3)
        b = generic_basis(6, seed=rng.randrange(10 ** 6))
        level = set(shifted_level(K, 3, b))
        for sigma in level:
            for tau in combinations(range(1, 7), 3):
                if componentwise_leq(tau, sigma):
                    assert tau in level


def test_level_independent_of_basis_seed():
    rng = fresh_rng(31)
    for _ in range(5):
        K = random_complex(rng, 6, 3)
        levels = [shifted_level(K, 3, generic_basis(6, seed=s))
                  for s in (1, 2, 3)]
        assert levels[0] == levels[1] == levels[2]
    assert shifted_level_stable(K, 3) == levels[0]


def test_level_monotone_under_subcomplex():
    rng = fresh_rng(37)
    for _ in range(6):
        K = random_complex(rng, 6, 3)
        if K.num_facets < 2:
            continue
        sub = build_complex(6, K.facets[:-1])
        b = generic_basis(6, seed=rng.randrange(10 ** 6))
        assert set(shifted_level(sub, 3, b)) <= set(shifted_level(K, 3, b))


def test_shifted_level_stable_retries_one_round(monkeypatch):
    # Bases seed + t disagree; the second round, seeds seed + 2^48 + t,
    # agrees and is returned.  A second disagreement gives up.  Each
    # stand-in basis is its seed.
    seeds = []

    def level(K, k, seed, order):
        seeds.append(seed)
        return [(1, 2, 3)] if seed >= 1 << 48 else [(seed,)]

    monkeypatch.setattr(volrig.shifting, "generic_basis",
                        lambda n, seed, field: seed)
    monkeypatch.setattr(volrig.shifting, "shifted_level", level)
    assert shifted_level_stable(tetra(), 3, seed=5) == [(1, 2, 3)]
    assert seeds == [5, 6, 7] + [(1 << 48) + 5 + t for t in range(3)]
    monkeypatch.setattr(volrig.shifting, "shifted_level",
                        lambda K, k, seed, order: [(seed,)])
    with pytest.raises(GenericityFailure):
        shifted_level_stable(tetra(), 3, seed=5)


def _span_sets(rng, d, n, k):
    """Sets of size k whose predecessor spans are compared: the
    characteristic face at k = d, the last size-k set and a random one."""
    sets = [tuple(range(n - k + 1, n + 1)),
            tuple(sorted(rng.sample(range(1, n + 1), k)))]
    if k == d:
        sets.append(characteristic_face(d, n))
    return sets


def test_predecessor_span_matches_minors():
    # Entry for entry against one basis.minor per entry, for every k the
    # expansion along the last label covers (3 and 4) and the sizes that
    # keep basis.minor (2 and 5), in both orders, on stacked spheres and
    # random complexes.  Over GF(5), GF(7) and GF(13) a drawn basis is
    # singular now and then; generic_basis then raises SingularBasis and
    # the next seed is tried, so every complex is still compared.  The
    # compound vector of every tested set, and of every single label,
    # comes from the same builder and is checked the same way.
    rng = fresh_rng(71)
    for field in (GF, PrimeField(13), PrimeField(7), PrimeField(5)):
        for d in (3, 4, 5):
            n = d + 2
            for K in (stacked_sphere(rng, d, n), random_complex(rng, n, d)):
                seed = rng.randrange(10 ** 6)
                while True:
                    try:
                        b = generic_basis(n, seed=seed, field=field)
                        break
                    except SingularBasis:
                        seed += 1
                for v in range(1, n + 1):
                    assert compound_vector(b, K, (v,)) == \
                        compound_vector_by_minors(K, (v,), b)
                for k in range(2, d + 1):
                    for sigma in _span_sets(rng, d, n, k):
                        assert compound_vector(b, K, sigma) == \
                            compound_vector_by_minors(K, sigma, b)
                        for order in ("p", "lex"):
                            want = predecessor_span_by_minors(K, sigma, b,
                                                              order)
                            got = _predecessor_span(K, sigma, b, order)
                            assert got.data == want


def test_predecessor_span_matches_minors_over_qq():
    # generic_basis samples only prime fields, so the QQ basis is built
    # by hand: ones in the first column and small integers elsewhere.
    # This runs the expansion's unreduced branch, for spans and compound
    # vectors alike.  Fraction arithmetic is slow, so n stays at 6 or
    # below.
    rng = fresh_rng(73)
    for d in (3, 4, 5):
        n = min(d + 2, 6)
        data = [[1] + [rng.randint(-9, 9) for _ in range(n - 1)]
                for _ in range(n)]
        b = GenericBasis(n, ExactMatrix(data, QQ))
        for K in (stacked_sphere(rng, d, n), random_complex(rng, n, d)):
            for v in range(1, n + 1):
                assert compound_vector(b, K, (v,)) == \
                    compound_vector_by_minors(K, (v,), b)
            for k in range(2, d + 1):
                for sigma in _span_sets(rng, d, n, k):
                    assert compound_vector(b, K, sigma) == \
                        compound_vector_by_minors(K, sigma, b)
                    for order in ("p", "lex"):
                        got = _predecessor_span(K, sigma, b, order)
                        assert got.field == QQ
                        assert got.data == predecessor_span_by_minors(
                            K, sigma, b, order)


def test_in_shifted_family_refuses_oversized_span_matrix():
    # In lex order every size-3 set before (43, 44, 45) is a predecessor:
    # 86 faces x 14,189 sets is about 1.22M entries, past the limit, so
    # the test is refused before any predecessor vector is computed.
    K = stacked_sphere(fresh_rng(1), 3, 45)
    b = generic_basis(45, seed=1)
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge, match="predecessor span matrix"):
        in_shifted_family(K, (43, 44, 45), b, order="lex")
    assert time.monotonic() - start < 1


def test_in_shifted_family_refuses_before_listing_predecessors():
    # At (98, 99, 100) on 100 vertices both orders have 161,699
    # predecessors, 196 faces x 161,699 sets past the limit.  Listing
    # them took 11-13 MB; the count refuses without them.
    K = stacked_sphere(fresh_rng(1), 3, 100)
    b = generic_basis(100, seed=1)
    for order in ("p", "lex"):
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLarge, match="196 x 161699"):
                in_shifted_family(K, (98, 99, 100), b, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_reduction_guard_bounds_only_memoised_minors(monkeypatch):
    # The f k n guard bounds GenericBasis.minor's memo, one reduced k x n
    # block per face.  A level takes those minors from k = 4, membership
    # vectors and spans only from k = 5 (at k = 4 they expand along the
    # last label).  Between the two limits, the boundary of the
    # 4-simplex (20 x 5 reduced entries, a 5 x 3 membership span)
    # answers sigma0 but is refused its level 4, and the boundary of
    # the 5-simplex (30 x 6) is refused sigma0.
    monkeypatch.setattr(volrig.linalg, "MAX_DENSE_ENTRIES", 50)
    K = complete_complex(5, 4)
    assert characteristic_membership(K, trials=1).member
    b = generic_basis(5, seed=1)
    for level in (lambda: shifted_level(K, 4, b),
                  lambda: shifted_level(K, 4, b, order="lex")):
        with pytest.raises(InstanceTooLarge,
                           match="size-4 compound reductions would be 20 x 5"):
            level()
    with pytest.raises(InstanceTooLarge,
                       match="size-5 compound reductions would be 30 x 6"):
        characteristic_membership(complete_complex(6, 5), trials=1)


def test_cone_commutation():
    rng = fresh_rng(43)
    for _ in range(6):
        d = rng.choice([2, 3])
        L = random_complex(rng, rng.randint(d + 1, d + 3), d)
        K = cone_with_smallest_apex(L)
        bL = generic_basis(L.n, seed=rng.randrange(10 ** 6))
        bK = generic_basis(K.n, seed=rng.randrange(10 ** 6))
        lifted = sorted((1,) + tuple(v + 1 for v in t)
                        for t in shifted_level(L, d, bL))
        assert shifted_level(K, d + 1, bK) == lifted


def test_characteristic_membership_verdicts():
    assert characteristic_membership(tetra()).member
    rep = characteristic_membership(cone(bipartite_complete_graph()))
    assert not rep.member
    assert rep.face == (1, 3, 7)
    assert rep.per_trial == (False, False, False)
    with pytest.raises(BadParameters):
        characteristic_membership(build_complex(3, [(1, 2, 3)]))


def test_characteristic_membership_small_field_no_false_positive():
    # Over GF(13) the tenth basis votes "member" for this flexible
    # complex only because it drops its predecessor rank from 8 to 7;
    # with the face it reaches 8, no more than the other bases.  ORing
    # the votes used to report a member.
    small = PrimeField(13)
    rep = characteristic_membership(build_counterexample(3), trials=10,
                                    seed=0, field=small)
    assert any(rep.per_trial)
    assert not rep.member
    assert not is_volume_rigid(build_counterexample(3), trials=10,
                               field=small)
    assert characteristic_membership(tetra(), trials=10, seed=0,
                                     field=small).member


def _down_set_rank(K, basis):
    """rank of M_D at basis: a row per facet F of K, a column per set t
    of characteristic_prefix, the entry det B[F, t] by the basis
    matrix's own det."""
    prefix = characteristic_prefix(K.d, K.n)
    rows = [[basis.matrix.det(tuple(v - 1 for v in F),
                              tuple(v - 1 for v in t)) for t in prefix]
            for F in K.facets]
    return ExactMatrix(rows, basis.field).rank()


def test_small_prime_yes_votes_are_no_certificate():
    # Both GF(5) bases vote yes, but 3 facets cannot give the 3 x 4
    # matrix M_D full column rank 4, so no basis certifies a member, in
    # characteristic_membership or in verify_dataset.
    K = build_complex(5, [(1, 2, 3, 4), (1, 2, 4, 5), (2, 3, 4, 5)])
    small = PrimeField(5)
    rep = characteristic_membership(K, trials=2, seed=624, field=small)
    assert rep.per_trial == (True, True)
    assert not rep.member
    ds = verify_dataset(SurfaceDataset("x", 4, (K,), ""), 2, 624, small)
    assert ds.entries[0]["member"] is False


def test_member_iff_some_basis_gives_the_down_set_full_rank():
    # MEMBER is exactly "some basis B_t = generic_basis(n, seed + t)
    # gives M_D full column rank", with M_D built here from determinants.
    # Small primes make degenerate bases common, so late certificates
    # occur, and so do unanimous yes votes without a certificate, which
    # a rule reading only the votes would call a member.
    rng = fresh_rng(94)
    members = late = unanimous = 0
    for q in (5, 7, 13):
        field = PrimeField(q)
        for _ in range(150):
            d = rng.choice([3, 4])
            K = random_complex(rng, rng.randint(d + 1, 7), d)
            trials, seed = rng.randint(1, 3), rng.randrange(1000)
            rep = characteristic_membership(K, trials, seed, field)
            full = len(characteristic_prefix(d, K.n))
            certs = [_down_set_rank(K, generic_basis(K.n, seed + t, field))
                     == full for t in range(trials)]
            assert rep.member == any(certs)
            assert len(rep.per_trial) == trials
            assert all(v for v, c in zip(rep.per_trial, certs) if c)
            members += rep.member
            late += rep.member and not certs[0]
            unanimous += all(rep.per_trial) and not rep.member
    assert members and late and unanimous


def test_membership_peak_memory_does_not_grow_with_trials():
    # Each basis, with its memo of 14 reduced 13 x 14 blocks (about
    # 60 KB), goes after its vote, so the peak is that of one basis.
    K = complete_complex(14, 13)
    characteristic_membership(K, trials=1)
    peaks = []
    for trials in (2, 10):
        tracemalloc.start()
        try:
            characteristic_membership(K, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_characteristic_membership_runs_every_trial():
    # The first basis certifies the tetrahedron, and the others still vote.
    assert characteristic_membership(tetra()).per_trial == (True,) * 3


def test_down_set_rank_equals_rigidity_rank_per_basis():
    # The main theorem basis by basis: M_D and the rigidity matrix at
    # placement_from_basis(B, d) have the same rank at every basis B,
    # degenerate ones included (common over GF(5) and GF(7)).  |D| is
    # the target rank, so "M_D has full column rank" is "K is rigid at
    # B's placement".
    rng = fresh_rng(101)
    checks = 0
    for field in (PrimeField(5), PrimeField(7), GF):
        for d in (3, 4, 5, 6):
            complexes = [random_complex(rng, rng.randint(d + 1, d + 3), d)
                         for _ in range(8)]
            complexes += [build_counterexample(d),
                          stacked_sphere(rng, d, d + 4)]
            for K in complexes:
                for _ in range(2):
                    b = generic_basis(K.n, rng.randrange(10 ** 6), field)
                    p = placement_from_basis(b, d)
                    assert _down_set_rank(K, b) == \
                        rigidity_matrix(K, p).rank(), (field.q, K.facets)
                    checks += 1
    assert checks == 240


def test_wedge_matrix_rank_and_kernel():
    for d, n in ((3, 5), (3, 7), (4, 6)):
        b = generic_basis(n, seed=10 * d + n)
        w = wedge_map_matrix(b, d)
        assert w.rank() == 1 + (n - d) * (d - 1)
        assert w.ncols - w.rank() == d * d - d - 1


def test_wedge_matrix_basis_columns_vanish():
    # Column (i, v) with v <= d, v != i encodes wedging f_{[d] minus i}
    # with e_v; it need not vanish.  Substituting the basis vector f_j
    # itself (a combination of columns) must, for every j != i.
    for d, n in ((3, 5), (4, 6)):
        b = generic_basis(n, seed=d + n)
        w = wedge_map_matrix(b, d)
        for i in range(2, d + 1):
            for j in range(1, d + 1):
                if j == i:
                    continue
                vec = [GF.zero] * ((d - 1) * n)
                for v in range(1, n + 1):
                    vec[(i - 2) * n + (v - 1)] = b.matrix.data[v - 1][j - 1]
                assert all(x == 0 for x in w.mul_vec(vec))


def test_wedge_matrix_explicit_kernel():
    for d, n in ((3, 5), (4, 7)):
        b = generic_basis(n, seed=3 * d + n)
        w = wedge_map_matrix(b, d)
        a = b.matrix
        vectors = []
        for i in range(2, d + 1):
            for j in range(1, d + 1):
                if j == i:
                    continue
                vec = [GF.zero] * ((d - 1) * n)
                for v in range(1, n + 1):
                    vec[(i - 2) * n + (v - 1)] = a.data[v - 1][j - 1]
                vectors.append(vec)
        for k in range(2, d):
            vec = [GF.zero] * ((d - 1) * n)
            for v in range(1, n + 1):
                vec[(k - 2) * n + (v - 1)] = a.data[v - 1][k - 1]
                vec[(k - 1) * n + (v - 1)] = a.data[v - 1][k]
            vectors.append(vec)
        assert len(vectors) == d * d - d - 1
        for vec in vectors:
            assert all(x == 0 for x in w.mul_vec(vec))
        span = ExactMatrix([[vec[i] for vec in vectors]
                            for i in range((d - 1) * n)], GF, _trusted=True)
        assert span.rank() == d * d - d - 1


def test_wedge_entries_are_signed_cofactors():
    # Entry at (row sigma, column (i,v)) for v the j-th vertex of sigma
    # equals (-1)^(i-1) times the cofactor of the lifted simplex matrix
    # deleting coordinate row i-1 and vertex column j.  Both parities of
    # d, the closed form at d = 4, the reduction of [M | I] per row face
    # from d = 5 on (M the first d basis columns at the face's rows, not
    # the whole rows), and a shuffled list of row faces are covered.
    rng = fresh_rng(53)
    for d in range(3, 9):
        for n in (d + 1, d + 2):
            b = generic_basis(n, seed=n + 10 * d)
            p = placement_from_basis(b, d)
            rows = list(combinations(range(1, n + 1), d))
            rng.shuffle(rows)
            for faces in (None, rows):
                w = wedge_map_matrix(b, d, faces=faces)
                for r, sigma in enumerate(
                        faces or combinations(range(1, n + 1), d)):
                    lifted = simplex_matrix(p, sigma)
                    for i in range(2, d + 1):
                        for v in range(1, n + 1):
                            got = w.data[r][(i - 2) * n + (v - 1)]
                            if v not in sigma:
                                assert got == 0
                                continue
                            j = sigma.index(v) + 1
                            want = cofactor(lifted, i - 2, j - 1)
                            if (i - 1) % 2:
                                want = GF.neg(want)
                            assert got == want


def test_wedge_restriction_matches_rigidity_rank():
    rng = fresh_rng(47)
    for _ in range(10):
        d = rng.choice([3, 4])
        n = rng.randint(d + 1, d + 3)
        K = random_complex(rng, n, d)
        b = generic_basis(n, seed=rng.randrange(10 ** 6))
        p = placement_from_basis(b, d)
        assert wedge_map_matrix(b, d, faces=K.facets).rank() == \
            rigidity_matrix(K, p).rank()


def test_wedge_matrix_refuses_oversized_face_list():
    # 6000 faces x 2 * 60 columns is 720,000 entries, past the limit,
    # as the faces=None branch already refuses.
    b = generic_basis(60, seed=1)
    faces = list(combinations(range(1, 61), 3))[:6000]
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge, match="wedge map matrix"):
        wedge_map_matrix(b, 3, faces=faces)
    assert time.monotonic() - start < 1


def test_placement_from_basis_reads_columns():
    b = generic_basis(5, seed=8)
    p = placement_from_basis(b, 3)
    for v in range(1, 6):
        assert p.coords[v] == tuple(b.matrix.data[v - 1][1:3])
