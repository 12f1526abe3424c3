"""Facet-count sparsity, tightness, greedy completion, counterexamples."""

from itertools import combinations
from math import comb

import pytest

from helpers import (bipartite33, fresh_rng, random_complex, stacked_sphere,
                     tetra)
from volrig import build_complex, cone, is_volume_rigid
from volrig.errors import BadParameters, InstanceTooLarge, NotSparse
from volrig.linalg import MAX_DENSE_ENTRIES
from volrig.sparsity import (SparsityParams, bipartite_complete_graph,
                             build_counterexample, complete_to_sparse_basis,
                             greedy_sparse_basis, is_sparse, is_tight,
                             spanned_count)

VOL3 = SparsityParams.volume_regime(3)
VOL4 = SparsityParams.volume_regime(4)


def test_volume_regime_parameters():
    assert (VOL3.a, VOL3.b) == (2, 5)
    assert (VOL4.a, VOL4.b) == (3, 11)


def test_params_validated_positionally_and_by_keyword():
    for bad in ((0, 1, 2), (1, -1, 2), (1, 1, 0)):
        with pytest.raises(BadParameters):
            SparsityParams(*bad)
        with pytest.raises(BadParameters):
            SparsityParams(**dict(zip("abd", bad)))
    assert SparsityParams(2, 3, 2) == SparsityParams(a=2, b=3, d=2)


def test_spanned_count():
    K = tetra()
    assert spanned_count(K, (1, 2, 3, 4)) == 4
    assert spanned_count(K, (1, 2, 3)) == 1
    assert spanned_count(K, (1, 2)) == 0


def test_bipartite_graph_is_tight():
    K = bipartite_complete_graph()
    params = SparsityParams(a=2, b=3, d=2)
    ok, witness = is_sparse(K, params)
    assert ok and witness is None
    assert is_tight(K, params)
    assert K == bipartite33()


def test_cone_of_bipartite_is_tight_in_volume_regime():
    K = cone(bipartite_complete_graph())
    ok, witness = is_sparse(K, VOL3)
    assert ok and witness is None
    assert is_tight(K, VOL3)


def test_complete_graph_on_four_fails():
    K4 = build_complex(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    ok, witness = is_sparse(K4, SparsityParams(a=2, b=3, d=2))
    assert not ok
    assert witness == (1, 2, 3, 4)


def test_tetra_violates_volume_regime():
    # Four facets on four vertices but the bound allows only 2*4 - 5 = 3.
    ok, witness = is_sparse(tetra(), VOL3)
    assert not ok
    assert witness == (1, 2, 3, 4)
    assert not is_tight(tetra(), VOL3)


def test_sparsity_monotone_under_facet_deletion():
    rng = fresh_rng(3)
    checked = 0
    while checked < 6:
        K = random_complex(rng, 6, 3)
        ok, _ = is_sparse(K, VOL3)
        if not ok or K.num_facets < 2:
            continue
        sub = build_complex(6, K.facets[:-1])
        assert is_sparse(sub, VOL3)[0]
        checked += 1


def test_completion_fixes_tight_complexes():
    K = cone(bipartite_complete_graph())
    done = complete_to_sparse_basis(K, VOL3)
    assert done == K


def test_completion_rejects_nonsparse_input():
    K4 = build_complex(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    with pytest.raises(NotSparse):
        complete_to_sparse_basis(K4, SparsityParams(a=2, b=3, d=2))


def test_completion_of_single_triangle():
    K = build_complex(5, [(1, 2, 3)])
    done = complete_to_sparse_basis(K, VOL3)
    assert done.num_facets == VOL3.bound(5)
    assert done.facets == ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4),
                           (1, 3, 5))
    assert is_tight(done, VOL3)


def test_greedy_basis_from_scratch():
    K = greedy_sparse_basis(3, SparsityParams(a=2, b=3, d=2))
    assert K.facets == ((1, 2), (1, 3), (2, 3))
    assert is_tight(K, SparsityParams(a=2, b=3, d=2))


def test_greedy_basis_matches_completion_of_first_face():
    params = VOL3
    K = greedy_sparse_basis(5, params)
    seeded = complete_to_sparse_basis(build_complex(5, [(1, 2, 3)]), params)
    assert K == seeded


def test_cone_preserves_sparsity_with_shifted_offset():
    # If every vertex set of L spans at most a|A| - b facets then in the
    # cone the apexed facets through a set A are facets of L on A, so
    # cone(L) satisfies the (a, a+b) bound one dimension up.
    rng = fresh_rng(9)
    checked = 0
    while checked < 5:
        L = random_complex(rng, 5, 2)
        a, b = 2, rng.randint(1, 3)
        pl = SparsityParams(a=a, b=b, d=2)
        if not is_sparse(L, pl)[0]:
            continue
        pk = SparsityParams(a=a, b=a + b, d=3)
        assert is_sparse(cone(L), pk)[0]
        checked += 1
    assert is_sparse(cone(bipartite_complete_graph()),
                     SparsityParams(a=2, b=5, d=3))[0]


def test_regime_chaining_on_regime_sparse_instance():
    # A complex sparse in the volume regime for d stays sparse one cone
    # up in the volume regime for d+1, since (d+1) + a + b with a = d-1,
    # b = d^2 - d - 1 lands exactly on d^2 + d - 1.
    base = build_complex(3, [(1, 2, 3)])
    assert is_sparse(base, VOL3)[0]
    assert (4 + VOL3.a + VOL3.b) == VOL4.b
    assert is_sparse(cone(base), VOL4)[0]
    rng = fresh_rng(13)
    checked = 0
    while checked < 4:
        L = random_complex(rng, 6, 3)
        if not is_sparse(L, VOL3)[0]:
            continue
        assert is_sparse(cone(L), VOL4)[0]
        checked += 1


def test_counterexample_dimension_three():
    K = build_counterexample(3)
    assert K.n == 7
    assert K.num_facets == 9
    assert K == cone(bipartite_complete_graph())
    assert is_tight(K, VOL3)
    assert not is_volume_rigid(K)


def test_counterexample_dimension_four():
    K = build_counterexample(4)
    assert K.n == 8
    assert K.num_facets == 13
    base = cone(cone(bipartite_complete_graph()))
    extra = sorted(set(K.facets) - set(base.facets))
    assert extra == [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7)]
    assert is_tight(K, VOL4)
    assert not is_volume_rigid(K)


def test_sparse_facet_sets_with_independent_columns():
    # Independence of volume gradients forces the counting bound, so
    # rigidity-independent subsets must pass the sparsity check.
    rng = fresh_rng(21)
    from volrig.rigidity import columns_independent
    checked = 0
    while checked < 6:
        K = random_complex(rng, 6, 3)
        if not columns_independent(K, K.facets, seed=rng.randrange(10 ** 6)):
            continue
        assert is_sparse(K, VOL3)[0]
        checked += 1


def test_out_of_range_parameters_answer_in_closed_form():
    # When b >= d a, a set of d vertices may span at most a d - b <= 0
    # facets, so no complex is sparse and the witness needs no search,
    # even past the 22 vertices a subset scan could cover: every d-set
    # violates when a d < b, every facet when a d = b.
    K = build_complex(23, [(1, 2, 3), (21, 22, 23)])
    for params, witness in ((SparsityParams(a=2, b=9, d=3), (1, 2, 3)),
                            (SparsityParams(a=1, b=3, d=3), K.facets[0])):
        assert is_sparse(K, params) == (False, witness)
        assert not is_tight(K, params)
        with pytest.raises(NotSparse):
            complete_to_sparse_basis(K, params)
        with pytest.raises(NotSparse):
            greedy_sparse_basis(23, params)
    wide = SparsityParams(a=1, b=3, d=3)
    with pytest.raises(InstanceTooLarge):
        greedy_sparse_basis(MAX_DENSE_ENTRIES + 4, wide)


def test_in_range_parameters_answer_past_the_cap():
    K = build_complex(23, [(1, 2, 3), (21, 22, 23)])
    assert is_sparse(K, VOL3) == (True, None)
    assert not is_tight(K, VOL3)
    done = complete_to_sparse_basis(K, VOL3)
    assert done.num_facets == VOL3.bound(23)
    assert is_tight(done, VOL3)
    assert greedy_sparse_basis(23, VOL3).num_facets == VOL3.bound(23)


def reference_violation(K, params):
    """Definitional scan: every vertex set by size, then lex."""
    for m in range(params.d, K.n + 1):
        for A in combinations(range(1, K.n + 1), m):
            if spanned_count(K, A) > params.bound(m):
                return A
    return None


def reference_completion(K, params):
    """Lex-ordered greedy completion, testing each augmented complex."""
    facets = list(K.facets)
    for cand in combinations(range(1, K.n + 1), params.d):
        if len(facets) >= params.bound(K.n):
            break
        if cand not in facets and reference_violation(
                build_complex(K.n, facets + [cand]), params) is None:
            facets.append(cand)
    return build_complex(K.n, facets)


def violates(K, params, A):
    return len(A) >= params.d and spanned_count(K, A) > params.bound(len(A))


def minimal_violators(K, params):
    """Every violating vertex set with no violating proper subset."""
    bad = [set(A) for m in range(params.d, K.n + 1)
           for A in combinations(range(1, K.n + 1), m)
           if violates(K, params, A)]
    return [A for A in bad if not any(B < A for B in bad)]


def test_scan_matches_definitional_reference():
    # In range means 0 <= b < d a, the matroidal range of sparsity, where
    # the pebble game decides and the witness is an inclusion-minimal
    # violator; the last two parameter pairs lie outside it (a d = b and
    # a d < b) and keep the smallest-then-lex witness.  The last inputs
    # have d = 1, which has no volume regime (it would need a = 0).
    rng = fresh_rng(31)
    for d in [2, 3, 4] * 5 + [1] * 3:
        n = rng.randint(d + 1, 8)
        K = random_complex(rng, n, d, rng.randint(1, min(10, comb(n, d))))
        regime = (SparsityParams.volume_regime(d),) if d > 1 else ()
        for params in regime + (SparsityParams(a=1, b=0, d=d),
                                SparsityParams(a=1, b=d, d=d),
                                SparsityParams(a=2, b=3 * d, d=d)):
            want = reference_violation(K, params)
            ok, witness = is_sparse(K, params)
            assert ok == (want is None)
            if params.b >= params.d * params.a or want is None:
                assert witness == want
            else:
                assert violates(K, params, witness)
                assert not any(violates(K, params, A)
                               for m in range(len(witness))
                               for A in combinations(witness, m))
                if len(minimal_violators(K, params)) == 1:
                    assert witness == want
            assert is_tight(K, params) == (
                want is None and K.num_facets == params.bound(K.n))
            if want is None:
                assert (complete_to_sparse_basis(K, params)
                        == reference_completion(K, params))
            else:
                with pytest.raises(NotSparse):
                    complete_to_sparse_basis(K, params)


def test_negative_bound_is_definitional():
    # a m - b can be negative for small m; any spanned facet then fails.
    K = tetra()
    harsh = SparsityParams(a=1, b=10, d=3)
    assert is_sparse(K, harsh) == (False, (1, 2, 3))


def test_witness_is_inclusion_minimal_not_smallest():
    # K4 on {5,6,7,8} is the smallest (2,3)-violator, but dropping labels
    # from the top first keeps K5 minus two disjoint edges on {1,...,5},
    # which also violates (8 > 2*5 - 3) and has no violating subset.
    k5 = [e for e in combinations(range(1, 6), 2) if e not in ((1, 2), (3, 4))]
    K = build_complex(8, k5 + list(combinations(range(5, 9), 2)))
    params = SparsityParams(a=2, b=3, d=2)
    assert reference_violation(K, params) == (5, 6, 7, 8)
    assert is_sparse(K, params) == (False, (1, 2, 3, 4, 5))


def replayed_witness(K, params):
    """The witness by definition: drop each vertex, in decreasing label
    order, while the facets on the rest are still not sparse."""
    kept = set(K.vertices())
    for v in sorted(kept, reverse=True):
        rest = [f for f in K.facets if v not in f and kept.issuperset(f)]
        if rest and not is_sparse(build_complex(K.n, rest), params)[0]:
            kept.discard(v)
    return tuple(sorted(kept))


def test_witness_matches_vertex_by_vertex_replay():
    rng = fresh_rng(41)
    for d, n, f in ((2, 14, 30), (3, 14, 40), (3, 20, 45), (4, 12, 40)):
        K = random_complex(rng, n, d, f)
        params = SparsityParams.volume_regime(d)
        ok, witness = is_sparse(K, params)
        assert not ok
        assert witness == replayed_witness(K, params)


@pytest.mark.parametrize("d", [3, 4])
def test_stacked_spheres_on_200_vertices(d):
    # A stacked (d-1)-sphere has one facet more than the tight count and
    # is tight without any one facet.  Every proper vertex subset misses
    # some facet, so the whole vertex set is its only violator.
    params = SparsityParams.volume_regime(d)
    K = stacked_sphere(fresh_rng(d), d, 200)
    assert is_sparse(K, params) == (False, tuple(range(1, 201)))
    assert is_tight(build_complex(200, K.facets[1:]), params)
    less = build_complex(200, K.facets[2:])
    assert (complete_to_sparse_basis(less, params).num_facets
            == less.num_facets + 1)
