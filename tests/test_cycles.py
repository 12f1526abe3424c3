"""Boundary operators, minimal cycles, facet removal, contraction."""

import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from helpers import (csaszar_torus, fresh_rng, matmul, octahedron,
                     projective_plane_six, random_complex, single_triangle,
                     stack, stacked_sphere, tetra, transpose)
from volrig import (build_complex, contract_edge, cycles, facets_containing,
                    is_volume_rigid, k_faces, rigidity, shifting,
                    union_complex)
from volrig.cycles import (GF2, boundary_matrix, boundary_operator,
                           chain_boundary, chain_vector, contraction_reduce,
                           cycle_space, default_admissible, is_minimal_cycle,
                           random_identity_sweep, remove_facet_rigidity,
                           rigidity_boundary_identity, sample_chain,
                           surface_link_condition, verify_dataset)
from volrig.errors import BadParameters, ChainOutsideComplex, InvalidFace
from volrig.fileio import SurfaceDataset
from volrig.linalg import GF, QQ, ExactMatrix, PrimeField
from volrig.rigidity import (Placement, _rank_until_rigid,
                             columns_independent, generic_rank,
                             random_placement)
from volrig.shifting import _membership, characteristic_membership
from volrig.sparsity import build_counterexample


def test_boundary_of_boundary_vanishes():
    K = tetra()
    composed = matmul(boundary_operator(K, 2), boundary_operator(K, 3))
    assert all(x == 0 for row in composed.data for x in row)


def test_single_triangle_boundary_signs():
    m = boundary_matrix(single_triangle())
    assert (m.nrows, m.ncols) == (3, 1)
    # Edge rows in lex order (1,2), (1,3), (2,3); dropping the j-th
    # vertex contributes (-1)^j.
    assert [m.data[i][0] for i in range(3)] == [QQ.of(-1), QQ.of(1),
                                                QQ.of(-1)]


def test_tetra_boundary_rank_and_cycle():
    K = tetra()
    assert boundary_matrix(K).rank() == 3
    space = cycle_space(K)
    assert space.ncols == 1
    assert all(space.data[i][0] != 0 for i in range(4))
    assert is_minimal_cycle(K)


def test_triangle_has_no_cycles():
    assert cycle_space(single_triangle()).ncols == 0
    assert not is_minimal_cycle(single_triangle())


def test_disjoint_spheres_are_not_minimal():
    far = build_complex(8, [tuple(v + 4 for v in s) for s in tetra().facets])
    K = union_complex(build_complex(8, tetra().facets), far)
    assert cycle_space(K).ncols == 2
    assert not is_minimal_cycle(K)


def test_surface_examples_minimal_cycles():
    assert is_minimal_cycle(octahedron())
    assert is_minimal_cycle(csaszar_torus())
    # The six-vertex projective plane only cycles mod 2.
    assert not is_minimal_cycle(projective_plane_six())
    assert is_minimal_cycle(projective_plane_six(), field=GF2)


def fraction_oracle(m):
    """m rebuilt through QQ.of, so every entry is a Fraction."""
    oracle = ExactMatrix(m.data, QQ)
    assert all(type(x) is Fraction for row in oracle.data for x in row)
    return oracle


@pytest.mark.parametrize("K", [octahedron(),
                               stacked_sphere(fresh_rng(3), 3, 12)],
                         ids=["octahedron", "stacked"])
def test_sphere_cycle_space_stays_in_ints(K):
    # Up to column signs, a 2-sphere's boundary matrix is the incidence
    # matrix of its dual graph, so every pivot is +-1 and the kernel is
    # computed and returned in ints, equal to the Fraction kernel.
    boundary = boundary_matrix(K)
    kernel = boundary.right_kernel()
    assert kernel.ncols == 1
    assert all(type(x) is int for row in kernel.data for x in row)
    assert kernel.data == fraction_oracle(boundary).right_kernel().data


def test_projective_plane_takes_fractions_past_a_pivot_of_two():
    # RP²'s QQ elimination meets a pivot of 2: from there the entries are
    # Fractions, and the ranks and kernels equal the Fraction oracle's.
    K = projective_plane_six()
    boundary = boundary_matrix(K)
    coboundary = transpose(boundary)
    for m in (boundary, coboundary):
        oracle = fraction_oracle(m)
        assert m.rank() == oracle.rank() == 10
        assert m.right_kernel() == oracle.right_kernel()
    assert any(type(x) is Fraction for row in coboundary.right_kernel().data
               for x in row)
    assert cycle_space(K).ncols == 0


def test_chain_vector_and_boundary():
    K = tetra()
    space = cycle_space(K)
    cyc = {s: space.data[i][0] for i, s in enumerate(K.facets)}
    assert chain_boundary(K, cyc, QQ) == {}
    single = chain_boundary(K, {(1, 2, 3): 1}, QQ)
    assert set(single) == {(1, 2), (1, 3), (2, 3)}
    with pytest.raises(ChainOutsideComplex):
        chain_vector(K, {(1, 2, 5): 1}, QQ)
    with pytest.raises(BadParameters):
        chain_boundary(build_complex(2, [(1,), (2,)]), {(1,): 1}, QQ)


def test_identity_on_zero_chain():
    K = tetra()
    p = random_placement(4, 3, seed=5)
    assert rigidity_boundary_identity(K, p, {})


def test_identity_on_fundamental_cycle_over_rationals():
    K = tetra()
    space = cycle_space(K)
    cyc = {s: space.data[i][0] for i, s in enumerate(K.facets)}
    rng = fresh_rng(9)
    coords = {v: (QQ.of(rng.randrange(-99, 100)), QQ.of(rng.randrange(-99,
                                                                      100)))
              for v in range(1, 5)}
    p = Placement(d=3, coords=coords, field=QQ)
    assert rigidity_boundary_identity(K, p, cyc)


def test_identity_random_sweep():
    assert random_identity_sweep(num_samples=20, seed=3) == 0
    for bad in (0, -3):
        with pytest.raises(BadParameters):
            random_identity_sweep(num_samples=bad)


def test_identity_fails_on_a_perturbed_rigidity_matrix(monkeypatch):
    # Every sampled chain is nonzero on every facet, so shifting one entry
    # of the rigidity matrix changes one entry of its product with the
    # chain, and the checker must say so.
    honest = rigidity.rigidity_matrix

    def perturbed(K, p):
        m = honest(K, p)
        m.data[0][0] = p.field.add(m.data[0][0], p.field.one)
        return m

    monkeypatch.setattr(rigidity, "rigidity_matrix", perturbed)
    K = octahedron()
    p = random_placement(6, 3, seed=1)
    assert not rigidity_boundary_identity(K, p, sample_chain(K, seed=2))
    assert random_identity_sweep(num_samples=5) == 5


def test_identity_rejects_outside_chain():
    K = tetra()
    p = random_placement(4, 3, seed=1)
    with pytest.raises(ChainOutsideComplex):
        rigidity_boundary_identity(K, p, {(1, 2, 5): 1})


def test_sample_chain_covers_facets():
    K = octahedron()
    z = sample_chain(K, seed=2)
    assert set(z) == set(K.facets)
    assert all(0 <= c < GF.q for c in z.values())
    z = sample_chain(K, seed=2, field=QQ)
    assert set(z) == set(K.facets)
    assert all(type(c) is int and -99 <= c <= 99 for c in z.values())


def test_tetra_stays_rigid_without_any_single_facet():
    K = tetra()
    for face in K.facets:
        rep = remove_facet_rigidity(K, face)
        assert rep.num_facets == 3
        assert rep.generic_rank == 3
        assert rep.is_rigid


def test_octahedron_stays_rigid_without_any_single_facet():
    K = octahedron()
    assert generic_rank(K).is_rigid
    for face in K.facets:
        rep = remove_facet_rigidity(K, face)
        assert rep.num_facets == 7
        assert rep.generic_rank == 7
        assert rep.is_rigid


def test_csaszar_stays_rigid_without_any_single_facet():
    K = csaszar_torus()
    assert is_minimal_cycle(K)
    assert generic_rank(K).is_rigid
    for face in K.facets:
        assert remove_facet_rigidity(K, face).is_rigid


def test_remove_last_facet_gives_empty_report():
    rep = remove_facet_rigidity(single_triangle(), (1, 2, 3))
    assert rep.num_facets == 0
    assert rep.generic_rank == 0
    assert rep.target_rank == 0
    assert rep.is_rigid
    assert rep.arithmetic == GF.describe()
    rep = remove_facet_rigidity(single_triangle(), (1, 2, 3), field=QQ)
    assert rep.arithmetic == "QQ"


def test_link_condition_on_octahedron():
    K = octahedron()
    for e in k_faces(K, 1):
        assert surface_link_condition(K, e[0], e[1])
    # Antipodal pairs share their whole link.
    assert not surface_link_condition(K, 1, 6)
    with pytest.raises(BadParameters):
        surface_link_condition(build_complex(3, [(1, 2)]), 1, 2)


def reference_link_condition(K, u, w):
    """The d=3 link condition with every link taken from the facets."""
    def link(v):
        return {tuple(x for x in s if x != v)
                for s in facets_containing(K, (v,))}

    def link_vertices(v):
        return {x for e in link(v) for x in e}

    apexes = {x for s in facets_containing(K, (u, w))
              for x in s if x not in (u, w)}
    return (link_vertices(u) & link_vertices(w) == apexes
            and not (link(u) & link(w)))


def test_link_condition_matches_definition():
    rng = fresh_rng(12)
    complexes = [octahedron(), csaszar_torus(), projective_plane_six()]
    complexes += [random_complex(rng, rng.randint(4, 8), 3)
                  for _ in range(20)]
    for K in complexes:
        for u, w in permutations(range(1, K.n + 1), 2):
            want = reference_link_condition(K, u, w)
            assert surface_link_condition(K, u, w) == want
            through = len(facets_containing(K, (u, w)))
            assert default_admissible(K, u, w) == (
                2 <= through < K.num_facets and want)
    for f in (surface_link_condition, default_admissible):
        with pytest.raises(InvalidFace):
            f(octahedron(), 2, 2)
        with pytest.raises(InvalidFace):
            f(octahedron(), 0, 1)


def test_tetra_edges_not_admissible():
    K = tetra()
    for e in k_faces(K, 1):
        assert not default_admissible(K, e[0], e[1])


def test_default_admissible_on_octahedron():
    K = octahedron()
    assert default_admissible(K, 1, 2)
    assert not default_admissible(K, 1, 6)


def test_contraction_reduce_octahedron_to_tetra():
    fixed, log = contraction_reduce(octahedron())
    assert fixed == tetra()
    assert log == [(1, 2), (1, 2)]


def reference_admissible_edge(K):
    """The lex-first admissible edge, by testing every edge in turn."""
    if K.d < 2:
        return None
    return next((e for e in k_faces(K, 1) if default_admissible(K, *e)),
                None)


def reference_reduce(K):
    """contraction_reduce's rule, one lex scan per round."""
    log = []
    while (e := reference_admissible_edge(K)) is not None:
        K = contract_edge(K, *e)
        log.append(e)
    return K, log


def stacked_surfaces(rng):
    """Stacked, relabelled tori and projective planes, 1 to 6 vertices
    above the 7-vertex torus and the 6-vertex RP^2."""
    return [stack(rng, K, k) for K in (csaszar_torus(), projective_plane_six())
            for k in range(1, 7)]


def test_contraction_reduce_fixed_points():
    # The last input declares 200000 labels of which four occur: only
    # those get a star, so the reduction stays far below a megabyte.
    for K in (tetra(), csaszar_torus(), projective_plane_six(),
              build_complex(200000, tetra().facets)):
        tracemalloc.start()
        try:
            fixed, log = contraction_reduce(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fixed == K
        assert log == []
        assert peak < 1 << 20
    for K in stacked_surfaces(fresh_rng(31)):
        fixed, log = contraction_reduce(K)
        assert (fixed, log) == reference_reduce(K)
        assert len(log) == K.n - fixed.n
        assert reference_admissible_edge(fixed) is None


def lex_scan_complexes(rng):
    """Random pure complexes, most of them not manifolds, in d = 2, 3, 4."""
    return [random_complex(rng, rng.randint(d + 1, 8), d)
            for d in (2, 3, 4) for _ in range(60)]


def test_star_test_matches_default_admissible_on_every_edge():
    complexes = (lex_scan_complexes(fresh_rng(37))
                 + stacked_surfaces(fresh_rng(31)) + [octahedron(), tetra()])
    accepted = rejected = 0
    for K in complexes:
        star = cycles._stars(K)
        for u, w in k_faces(K, 1):
            verdict = default_admissible(K, u, w)
            assert cycles._star_admissible(
                K, star, u, w, cycles._neighbours(star, u)) == verdict
            accepted += verdict
            rejected += not verdict
    assert accepted > 100 and rejected > 100


def test_contraction_reduce_matches_lex_scan():
    rng = fresh_rng(37)
    complexes = lex_scan_complexes(rng)
    complexes += [stacked_sphere(rng, d, 12) for d in (3, 4)]
    # Contracting (3, 8) makes (1, 2) admissible although neither end is
    # a neighbour of the merged vertex 3 afterwards.
    complexes.append(build_complex(8, [
        (1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 3, 8), (1, 4, 6), (1, 5, 7),
        (2, 3, 8), (3, 5, 7), (3, 7, 8), (6, 7, 8)]))
    for K in complexes:
        assert contraction_reduce(K) == reference_reduce(K)
    assert contraction_reduce(complexes[-1])[1] == [(3, 8), (1, 2), (2, 6)]


def test_contraction_reduce_confirms_each_step(monkeypatch):
    K = stack(fresh_rng(41), octahedron(), 6)
    calls = {"admissible": 0, "contract": 0}
    real_admissible, real_contract = default_admissible, contract_edge

    def admissible(K, u, w):
        calls["admissible"] += 1
        return real_admissible(K, u, w)

    def contract(K, u, w):
        calls["contract"] += 1
        return real_contract(K, u, w)

    monkeypatch.setattr(cycles, "default_admissible", admissible)
    monkeypatch.setattr(cycles, "contract_edge", contract)
    fixed, log = contraction_reduce(K)
    assert fixed == tetra()
    assert log
    assert calls == {"admissible": len(log), "contract": len(log)}
    monkeypatch.setattr(cycles, "default_admissible", lambda K, u, w: False)
    with pytest.raises(RuntimeError):
        contraction_reduce(K)
    assert calls["contract"] == len(log)


def test_contraction_rigidity_implication():
    # Whenever an admissible contraction is rigid, so is the original.
    rng = fresh_rng(7)
    checked = 0
    while checked < 15:
        K = random_complex(rng, 6, 3)
        edges = [e for e in k_faces(K, 1) if default_admissible(K, *e)]
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        small = contract_edge(K, e[0], e[1])
        if generic_rank(small).is_rigid:
            assert generic_rank(K).is_rigid
        checked += 1


def test_gluing_along_shared_vertices():
    # Unions of rigid pieces sharing at least d vertices stay rigid.
    t1 = tetra()
    t2 = build_complex(5, [tuple(v + 1 for v in s) for s in tetra().facets])
    glued = union_complex(build_complex(5, t1.facets), t2)
    assert generic_rank(glued).is_rigid
    rng = fresh_rng(15)
    checked = 0
    while checked < 8:
        K1 = random_complex(rng, 5, 3)
        K2 = random_complex(rng, 5, 3)
        if not (is_volume_rigid(K1) and is_volume_rigid(K2)):
            continue
        shifted = build_complex(7, [tuple(v + 2 for v in s)
                                    for s in K2.facets])
        glued = union_complex(build_complex(7, K1.facets), shifted)
        assert generic_rank(glued).is_rigid
        checked += 1


def test_new_vertex_on_spanning_subset_keeps_rigidity():
    # Joining a fresh vertex to every (d-1)-subset of d old vertices
    # adds d columns and d-1 rows worth of rank.
    rng = fresh_rng(25)
    checked = 0
    while checked < 8:
        K = random_complex(rng, 5, 3)
        if not is_volume_rigid(K):
            continue
        S = sorted(rng.sample(range(1, 6), 3))
        extra = [tuple(sorted(s + (6,))) for s in combinations(S, 2)]
        grown = build_complex(6, list(K.facets) + extra)
        assert generic_rank(grown).is_rigid
        checked += 1


def test_verify_dataset_counts():
    complexes = (tetra(), octahedron(), csaszar_torus(),
                 projective_plane_six(), *stacked_surfaces(fresh_rng(43)))
    ds = SurfaceDataset(name="toy", d=3, complexes=complexes,
                        provenance="handmade")
    rep = verify_dataset(ds)
    assert rep.size == len(complexes)
    assert rep.rigid_count == len(complexes)
    assert rep.all_rigid
    assert rep.member_count == len(complexes)
    # The octahedron still contracts; the tetrahedron, the 7-vertex
    # torus and the 6-vertex RP^2 do not.
    flags = [e["irreducible"] for e in rep.entries]
    assert flags[:4] == [True, False, True, True]
    assert flags == [reference_admissible_edge(K) is None
                     for K in complexes]
    assert rep.irreducible_count == sum(flags)
    assert rep.entries[1]["rank"] == 7


def test_verify_dataset_checks_each_complex_on_its_own(monkeypatch):
    # Every entry draws its own bases, seed, seed + 1, ..., whatever the
    # complexes before it, so a reversed dataset changes no entry but its
    # index, and each verdict is the one characteristic_membership gives
    # alone.  Only the flexible counterexample (n = 7) needs a second
    # basis.
    rng = fresh_rng(29)
    complexes = (octahedron(), projective_plane_six(), tetra(),
                 stacked_sphere(rng, 3, 6), csaszar_torus(),
                 build_counterexample(3), stacked_sphere(rng, 3, 7))
    draws = [[(6, 4)], [(6, 4)], [(4, 4)], [(6, 4)], [(7, 4)],
             [(7, 4), (7, 5)], [(7, 4)]]
    drawn = []
    real = shifting.generic_basis

    def recording(n, seed=0, field=GF):
        drawn.append((n, seed))
        return real(n, seed, field)

    monkeypatch.setattr(shifting, "generic_basis", recording)
    reps = []
    for order, want in ((complexes, draws), (complexes[::-1], draws[::-1])):
        drawn.clear()
        reps.append(verify_dataset(SurfaceDataset("r", 3, order, ""),
                                   trials=2, seed=4))
        assert drawn == sum(want, [])
    monkeypatch.undo()
    fwd, rev = reps
    assert [dict(e, index=0) for e in fwd.entries] == \
        [dict(e, index=0) for e in rev.entries[::-1]]
    assert fwd._replace(entries=()) == rev._replace(entries=())
    members = [e["member"] for e in fwd.entries]
    assert members == [characteristic_membership(K, 2, 4).member
                       for K in complexes]
    assert fwd.member_count == sum(members)
    assert False in members


def test_verify_dataset_keeps_one_complex_of_minors(monkeypatch):
    # Facets of size 5 fill a basis's minor memo, one reduction per face.
    # Six stacked 4-spheres on 14 vertices each draw their own bases,
    # which start from an empty memo and leave at most their complex's
    # faces in it, so the f k n guard of _check_reductions bounds the
    # whole dataset.
    rng = fresh_rng(59)
    complexes = [stacked_sphere(rng, 5, 14) for _ in range(6)]
    ds = SurfaceDataset(name="s4", d=5, complexes=complexes,
                        provenance="handmade")
    drawn = []
    held = []
    real_basis = shifting.generic_basis
    real_membership = shifting._membership

    def recording(n, seed=0, field=GF):
        b = real_basis(n, seed, field)
        drawn.append((len(b._minors), b))
        return b

    def watching(K, trials, seed, field, certify):
        first = len(drawn)
        rep = real_membership(K, trials, seed, field, certify)
        held.append([(before, len(b._minors), K.num_facets)
                     for before, b in drawn[first:]])
        return rep

    monkeypatch.setattr(shifting, "generic_basis", recording)
    monkeypatch.setattr(shifting, "_membership", watching)
    rep = verify_dataset(ds, trials=2)
    assert rep.member_count == 6
    assert len(held) == 6
    for bases in held:
        assert len(bases) == 1
        for before, after, bound in bases:
            assert before == 0
            assert 0 < after <= bound


def test_verify_dataset_equals_the_all_trials_reference():
    # Stopping at a certificate changes no entry: each equals the
    # verdicts of generic_rank and characteristic_membership over all
    # trials, and so do is_volume_rigid, _rank_until_rigid (whose ranks
    # are the first ones of generic_rank's), _membership with certify
    # (whose votes are the first ones of characteristic_membership's)
    # and columns_independent on all facets.  Small fields make single
    # trials miss, so every fallback runs: a rigid complex whose first
    # placement misses the target, independent facets whose first
    # placement misses full rank, a member whose first basis votes no,
    # and a non-member whose first basis votes yes (a bare yes vote is no
    # certificate).  Some member is still settled by its first basis.
    rng = fresh_rng(82)
    late_rigid = late_independent = late_member = refuted_yes = 0
    early_member = 0
    for q in (5, 7, 13):
        field = PrimeField(q)
        for d in (3, 4):
            for trials in (1, 2, 3):
                seed = rng.randrange(1000)
                complexes = tuple(random_complex(rng, rng.randint(d + 1, 7),
                                                 d) for _ in range(6))
                rep = verify_dataset(SurfaceDataset("r", d, complexes, ""),
                                     trials, seed, field)
                for K, e in zip(complexes, rep.entries):
                    full = generic_rank(K, trials, seed, field)
                    mem = characteristic_membership(K, trials, seed, field)
                    assert (e["rank"], e["target"], e["rigid"],
                            e["member"]) == (full.generic_rank,
                                             full.target_rank,
                                             full.is_rigid, mem.member)
                    assert is_volume_rigid(K, trials, seed,
                                           field) == full.is_rigid
                    ranked = _rank_until_rigid(K, trials, seed, field)
                    assert ranked.generic_rank == full.generic_rank
                    assert ranked.trial_ranks == \
                        full.trial_ranks[:len(ranked.trial_ranks)]
                    certified = _membership(K, trials, seed, field, True)
                    assert certified.member == mem.member
                    assert certified.per_trial == \
                        mem.per_trial[:len(certified.per_trial)]
                    early_member += len(certified.per_trial) < trials
                    independent = full.generic_rank == K.num_facets
                    assert columns_independent(K, K.facets, trials, seed,
                                               field) == independent
                    late_rigid += (full.is_rigid and full.trial_ranks[0]
                                   < full.target_rank)
                    late_independent += (independent and full.trial_ranks[0]
                                         < K.num_facets)
                    late_member += mem.member and not mem.per_trial[0]
                    refuted_yes += mem.per_trial[0] and not mem.member
                assert rep.rigid_count == sum(e["rigid"]
                                              for e in rep.entries)
                assert rep.member_count == sum(bool(e["member"])
                                               for e in rep.entries)
    assert late_rigid and late_independent and late_member and refuted_yes
    assert early_member


def test_verify_dataset_stops_at_the_first_certificate(monkeypatch):
    # A rigid stacked torus costs one placement and one basis vote; the
    # flexible counterexample costs every trial of each.
    calls = {"assemble": 0, "vote": 0}
    assemble = rigidity.rigidity_matrix
    vote = shifting.in_shifted_family

    def counted_assemble(K, p):
        calls["assemble"] += 1
        return assemble(K, p)

    def counted_vote(K, sigma, basis, order="p"):
        calls["vote"] += 1
        return vote(K, sigma, basis, order)

    monkeypatch.setattr(rigidity, "rigidity_matrix", counted_assemble)
    monkeypatch.setattr(shifting, "in_shifted_family", counted_vote)
    rng = fresh_rng(47)
    tori = tuple(stack(rng, csaszar_torus(), k) for k in (1, 3, 3, 5))
    for complexes, rigid, cost in ((tori, len(tori), len(tori)),
                                   ((build_counterexample(3),), 0, 4)):
        calls.update(assemble=0, vote=0)
        rep = verify_dataset(SurfaceDataset("s", 3, complexes, ""), trials=4)
        assert rep.rigid_count == rep.member_count == rigid
        assert calls == {"assemble": cost, "vote": cost}
