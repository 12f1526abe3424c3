"""Acceptance checks, one per numbered criterion.

Each test prints a single status line; run with -s to see them all at
once.  The dataset check reports SKIP when no dataset directory is
configured.
"""

import os
import random
from itertools import combinations

import pytest

from helpers import (cone_with_smallest_apex, matmul, octahedron,
                     random_complex, random_shifted_complex, tetra)
from volrig import (build_complex, cone, contract_edge, is_volume_rigid,
                    k_faces)
from volrig.cycles import (default_admissible, is_minimal_cycle,
                           random_identity_sweep, remove_facet_rigidity,
                           verify_dataset)
from volrig.fileio import dataset_root, load_dataset
from volrig.linalg import GF, ExactMatrix
from volrig.rigidity import (generic_rank, random_placement, rigidity_matrix,
                             trivial_motion_basis)
from volrig.shifting import (characteristic_membership, generic_basis,
                             in_shifted_family, placement_from_basis,
                             shifted_level, wedge_map_matrix)
from volrig.sparsity import (SparsityParams, bipartite_complete_graph,
                             build_counterexample, is_tight)


def report(num, slug, status):
    print("ACCEPT-%02d %s: %s" % (num, slug, status))
    return status


def check(num, slug, ok):
    status = report(num, slug, "PASS" if ok else "FAIL")
    assert status == "PASS"


def test_accept_01_base_simplex_rank():
    rep = generic_rank(tetra(), trials=3)
    ok = (rep.generic_rank == 3 and rep.target_rank == 3 and rep.is_rigid
          and rep.trial_ranks == (3, 3, 3))
    check(1, "base-simplex-rank", ok)


def test_accept_02_trivial_motions():
    rng = random.Random(2025)
    ok = True
    for _ in range(20):
        d = rng.choice([3, 4])
        n = rng.randint(d, 7)
        K = random_complex(rng, n, d)
        p = random_placement(n, d, seed=rng.randrange(10 ** 6))
        motions = trivial_motion_basis(p, n)
        if motions.nrows != d * d - d - 1 or motions.rank() != motions.nrows:
            ok = False
            break
        product = matmul(motions, rigidity_matrix(K, p))
        if any(x != 0 for row in product.data for x in row):
            ok = False
            break
    check(2, "trivial-motions-annihilate", ok)


def _explicit_kernel_vectors(basis, d, n):
    a = basis.matrix
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
    return vectors


def test_accept_03_wedge_rank_and_kernel():
    ok = True
    for d in (3, 4):
        for n in range(d + 1, d + 5):
            basis = generic_basis(n, seed=41 * d + n)
            w = wedge_map_matrix(basis, d)
            if w.rank() != 1 + (n - d) * (d - 1):
                ok = False
            vectors = _explicit_kernel_vectors(basis, d, n)
            if len(vectors) != d * d - d - 1:
                ok = False
            for vec in vectors:
                if any(x != 0 for x in w.mul_vec(vec)):
                    ok = False
            span = ExactMatrix([[vec[i] for vec in vectors]
                                for i in range((d - 1) * n)], GF,
                               _trusted=True)
            if span.rank() != d * d - d - 1:
                ok = False
    check(3, "wedge-map-spectrum", ok)


def _equivalence_corpus():
    rng = random.Random(404)
    corpus = []
    for n in (5, 6, 7):
        top = len(list(combinations(range(1, n + 1), 3)))
        for t in range(34):
            # Facet counts straddle the tight count 2n - 5.
            f = rng.randint(max(1, 2 * n - 9), min(top, 2 * n + 2))
            corpus.append(random_complex(rng, n, 3, f))
    for n in (6, 7):
        top = len(list(combinations(range(1, n + 1), 4)))
        for t in range(10):
            f = rng.randint(max(1, 3 * n - 14), min(top, 3 * n - 6))
            corpus.append(random_complex(rng, n, 4, f))
    return corpus


def test_accept_04_rigidity_equals_membership():
    corpus = _equivalence_corpus()
    rigid_seen = flexible_seen = 0
    agreement = True
    for K in corpus:
        rigid = is_volume_rigid(K)
        member = characteristic_membership(K).member
        if rigid != member:
            agreement = False
            break
        if rigid:
            rigid_seen += 1
        else:
            flexible_seen += 1
    ok = agreement and len(corpus) >= 120 and rigid_seen > 10 \
        and flexible_seen > 10
    check(4, "rigidity-membership-equivalence", ok)


def test_accept_05_wedge_restriction_rank():
    corpus = _equivalence_corpus()
    ok = True
    for K in corpus:
        basis = generic_basis(K.n, seed=1 + K.num_facets)
        lhs = wedge_map_matrix(basis, K.d, faces=K.facets).rank()
        rhs = rigidity_matrix(K, placement_from_basis(basis, K.d)).rank()
        if lhs != rhs:
            ok = False
            break
    check(5, "wedge-restriction-rank", ok)


def test_accept_06_tight_flexible_counterexamples():
    ok = True
    for d, n, f in ((3, 7, 9), (4, 8, 13)):
        K = build_counterexample(d)
        if (K.n, K.num_facets) != (n, f):
            ok = False
        if not is_tight(K, SparsityParams.volume_regime(d)):
            ok = False
        if generic_rank(K).is_rigid:
            ok = False
        if characteristic_membership(K).member:
            ok = False
    check(6, "tight-flexible-counterexample", ok)


def test_accept_07_boundary_identity_sweep():
    check(7, "rigidity-boundary-identity", random_identity_sweep(50) == 0)


def test_accept_08_minimal_cycle_facet_removal():
    ok = is_minimal_cycle(tetra()) and is_minimal_cycle(octahedron())
    for K in (tetra(), octahedron()):
        want = 2 * K.n - 5
        for face in K.facets:
            rep = remove_facet_rigidity(K, face)
            if rep.generic_rank != want or not rep.is_rigid:
                ok = False
            if rep.num_facets != K.num_facets - 1:
                ok = False
    rep = remove_facet_rigidity(tetra(), (1, 2, 3))
    ok = ok and rep.num_facets == 3
    check(8, "minimal-cycle-removal", ok)


def test_accept_09_contraction_implication():
    rng = random.Random(909)
    checked = failures = 0
    while checked < 50:
        K = random_complex(rng, rng.randint(5, 7), 3)
        edges = [e for e in k_faces(K, 1) if default_admissible(K, *e)]
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        small = contract_edge(K, e[0], e[1])
        checked += 1
        if generic_rank(small).is_rigid and not generic_rank(K).is_rigid:
            failures += 1
    check(9, "contraction-implication", failures == 0)


def test_accept_10_shifted_fixed_points():
    rng = random.Random(1010)
    ok = True
    for _ in range(10):
        n = rng.randint(5, 7)
        K = random_shifted_complex(rng, n, 3)
        runs = [shifted_level(K, 3, generic_basis(n, seed=s))
                for s in (11, 22, 33)]
        if not (runs[0] == runs[1] == runs[2] == list(K.facets)):
            ok = False
            break
    ok = ok and in_shifted_family(bipartite_complete_graph(), (3, 4),
                                  generic_basis(6, seed=5), order="lex")
    for t in range(10):
        d = rng.choice([2, 3])
        L = random_complex(rng, rng.randint(d + 1, d + 3), d)
        C = cone_with_smallest_apex(L)
        inner = shifted_level(L, d, generic_basis(L.n, seed=100 + t))
        outer = shifted_level(C, d + 1, generic_basis(C.n, seed=200 + t))
        lifted = sorted((1,) + tuple(v + 1 for v in s) for s in inner)
        if outer != lifted:
            ok = False
            break
    check(10, "shifted-family-structure", ok)


def test_accept_11_surface_datasets():
    root = dataset_root()
    expected = {"rp2": 2, "torus": 21, "klein": 29}
    if root is None:
        report(11, "surface-datasets", "SKIP (set VOLRIG_DATA)")
        pytest.skip("no dataset directory configured")
    missing = [name for name in expected
               if not os.path.isdir(os.path.join(root, name))]
    if missing:
        report(11, "surface-datasets", "SKIP (absent: %s)" % ",".join(missing))
        pytest.skip("datasets not downloaded: %s" % ",".join(missing))
    ok = True
    for name, size in expected.items():
        ds = load_dataset(os.path.join(root, name), name=name)
        rep = verify_dataset(ds)
        if rep.size != size or not rep.all_rigid:
            ok = False
    check(11, "surface-datasets", ok)
