"""Input checks of the library: each bad call raises its documented type.

One row per check that no other test reaches: the call, with arguments
just outside the accepted range, and the exception type it must raise
(exactly that type, not a sibling).
"""

import pytest

from helpers import identity, tetra
from volrig import build_complex
from volrig.complexes import complete_complex
from volrig.cycles import (boundary_matrix, boundary_operator,
                           random_identity_sweep, remove_facet_rigidity,
                           sample_chain, verify_dataset)
from volrig.errors import (BadParameters, DimensionMismatch,
                           MissingVertexCoordinates, MixedDimension,
                           VertexOutOfRange)
from volrig.fileio import SurfaceDataset
from volrig.linalg import QQ, ExactMatrix, PrimeField, sample_generic_matrix
from volrig.rigidity import (Placement, columns_independent, generic_rank,
                             is_volume_rigid, random_placement,
                             rational_rank, rigidity_matrix, simplex_matrix,
                             trivial_motion_basis)
from volrig.shifting import (GenericBasis, _predecessors,
                             characteristic_membership,
                             compound_vector, generic_basis,
                             in_shifted_family, placement_from_basis,
                             shifted_level, shifted_level_stable,
                             wedge_map_matrix)
from volrig.sparsity import (SparsityParams, build_counterexample,
                             is_sparse)


def short_coordinates():
    coords = {1: (QQ.of(0), QQ.of(0)), 2: (QQ.of(1),),
              3: (QQ.of(0), QQ.of(1))}
    return Placement(d=3, coords=coords, field=QQ)


CHECKS = [
    # rigidity
    ("random_placement d<2", lambda: random_placement(3, 1, 0),
     BadParameters),
    ("random_placement n<1", lambda: random_placement(0, 3, 0),
     BadParameters),
    ("random_placement negative seed",
     lambda: random_placement(6, 3, -1), BadParameters),
    ("random_placement negative seed over QQ",
     lambda: random_placement(6, 3, -1, field=QQ), BadParameters),
    ("simplex_matrix short coordinates",
     lambda: simplex_matrix(short_coordinates(), (1, 2, 3)),
     MissingVertexCoordinates),
    ("trivial_motion_basis short coordinates",
     lambda: trivial_motion_basis(short_coordinates(), 3),
     MissingVertexCoordinates),
    ("rigidity_matrix short coordinates",
     lambda: rigidity_matrix(build_complex(3, [(1, 2, 3)]),
                             short_coordinates()),
     MissingVertexCoordinates),
    ("rational_rank d<2",
     lambda: rational_rank(build_complex(3, [(1,), (2,)])), BadParameters),
    ("generic_rank trials<1", lambda: generic_rank(tetra(), trials=0),
     BadParameters),
    ("is_volume_rigid trials<1", lambda: is_volume_rigid(tetra(), trials=0),
     BadParameters),
    ("columns_independent trials<1",
     lambda: columns_independent(4, [(1, 2, 3)], trials=0),
     BadParameters),
    ("columns_independent mixed cardinality",
     lambda: columns_independent(4, [(1, 2, 3), (1, 2)]),
     MixedDimension),
    ("columns_independent face beyond n",
     lambda: columns_independent(3, [(1, 2, 4)]), VertexOutOfRange),
    ("columns_independent float n",
     lambda: columns_independent(4.7, [(1, 2, 3)]), VertexOutOfRange),
    # shifting
    ("generic_basis n<1", lambda: generic_basis(0), BadParameters),
    ("generic_basis negative seed", lambda: generic_basis(6, -2),
     BadParameters),
    ("compound_vector sigma beyond the basis",
     lambda: compound_vector(generic_basis(3), tetra(), (1, 2, 4)),
     VertexOutOfRange),
    ("compound_vector empty sigma",
     lambda: compound_vector(generic_basis(4), tetra(), ()), BadParameters),
    ("in_shifted_family empty sigma",
     lambda: in_shifted_family(tetra(), (), generic_basis(4)),
     BadParameters),
    ("_predecessors bad order",
     lambda: _predecessors((1, 2), 3, "revlex"), BadParameters),
    ("shifted_level bad order",
     lambda: shifted_level(tetra(), 3, generic_basis(4), "revlex"),
     BadParameters),
    ("shifted_level_stable trials<1",
     lambda: shifted_level_stable(tetra(), 3, trials=0), BadParameters),
    ("characteristic_membership trials<1",
     lambda: characteristic_membership(tetra(), trials=0),
     BadParameters),
    ("wedge_map_matrix d<2", lambda: wedge_map_matrix(generic_basis(4), 1),
     BadParameters),
    ("wedge_map_matrix d>n", lambda: wedge_map_matrix(generic_basis(4), 5),
     BadParameters),
    ("wedge_map_matrix face of wrong size",
     lambda: wedge_map_matrix(generic_basis(4), 3, faces=[(1, 2)]),
     DimensionMismatch),
    ("wedge_map_matrix face beyond n",
     lambda: wedge_map_matrix(generic_basis(4), 3, faces=[(1, 2, 5)]),
     VertexOutOfRange),
    ("placement_from_basis d<2",
     lambda: placement_from_basis(generic_basis(4), 1), BadParameters),
    ("placement_from_basis d>n",
     lambda: placement_from_basis(generic_basis(4), 5), BadParameters),
    # sparsity
    ("is_sparse params.d != K.d",
     lambda: is_sparse(tetra(), SparsityParams.volume_regime(4)),
     BadParameters),
    ("build_counterexample d<3", lambda: build_counterexample(2),
     BadParameters),
    ("SparsityParams.volume_regime d<2",
     lambda: SparsityParams.volume_regime(1), BadParameters),
    # complexes
    ("complete_complex d<1", lambda: complete_complex(3, 0),
     MixedDimension),
    ("complete_complex d>n", lambda: complete_complex(3, 4),
     MixedDimension),
    ("build_complex float n", lambda: build_complex(4.0, tetra().facets),
     VertexOutOfRange),
    ("build_complex bool n", lambda: build_complex(True, [(1,)]),
     VertexOutOfRange),
    # cycles
    ("boundary_operator card<2", lambda: boundary_operator(tetra(), 1),
     BadParameters),
    ("boundary_operator card>d", lambda: boundary_operator(tetra(), 4),
     BadParameters),
    ("boundary_matrix d<2",
     lambda: boundary_matrix(build_complex(3, [(1,), (2,)])),
     BadParameters),
    ("remove_facet_rigidity trials<1 on the only facet",
     lambda: remove_facet_rigidity(build_complex(3, [(1, 2, 3)]), (1, 2, 3),
                                   trials=0),
     BadParameters),
    ("sample_chain negative seed", lambda: sample_chain(tetra(), -1),
     BadParameters),
    ("random_identity_sweep negative seed",
     lambda: random_identity_sweep(1, seed=-1), BadParameters),
    ("verify_dataset trials<1 on an empty dataset",
     lambda: verify_dataset(SurfaceDataset("x", 3, (), ""), trials=0),
     BadParameters),
    # linalg
    ("PrimeField(1)", lambda: PrimeField(1), BadParameters),
    ("QQ matrix from a float",
     lambda: ExactMatrix([[0.1]], QQ), BadParameters),
    ("in_column_span length",
     lambda: identity(2, QQ).in_column_span([1, 2, 3]),
     DimensionMismatch),
    ("minor with k != len(cols)",
     lambda: GenericBasis(4, identity(4, QQ)).minor((0, 1, 2, 3),
                                                    (0, 1, 2)),
     DimensionMismatch),
    ("sample_generic_matrix negative shape",
     lambda: sample_generic_matrix(-1, 2, 0), BadParameters),
    ("sample_generic_matrix negative seed",
     lambda: sample_generic_matrix(2, 2, -1), BadParameters),
]


@pytest.mark.parametrize("call, expected",
                         [(c, e) for _, c, e in CHECKS],
                         ids=[name for name, _, _ in CHECKS])
def test_input_check_raises_documented_type(call, expected):
    with pytest.raises(expected) as err:
        call()
    assert err.type is expected
