"""Exact computational toolkit for volume rigidity of simplicial complexes.

Pure (d-1)-dimensional complexes are placed generically in (d-1)-space;
the package computes the rank of the facet-volume Jacobian over a large
prime field (or the rationals), tests the equivalent exterior-shifting
membership criterion, checks hypergraph sparsity counts, and runs
boundary-operator and surface-triangulation verifications.
"""

from .complexes import (SimplicialComplex, as_face, build_complex,
                        complete_complex, cone, contract_edge,
                        facets_containing, is_face, k_faces, relabel,
                        remove_facet, union_complex)
from .cycles import (GF2, DatasetReport, boundary_matrix, boundary_operator,
                     contraction_reduce, cycle_space, is_minimal_cycle,
                     remove_facet_rigidity, rigidity_boundary_identity,
                     verify_dataset)
from .errors import VolrigError
from .fileio import (SurfaceDataset, format_complex, load_dataset,
                     parse_complex, read_complex, write_complex, write_dataset)
from .linalg import (DEFAULT_PRIME, GF, PRIME_TABLE, QQ, ExactMatrix,
                     PrimeField, RationalField, sample_generic_matrix)
from .rigidity import (Placement, RigidityReport, columns_independent,
                       generic_rank, is_volume_rigid, random_placement,
                       rigidity_matrix, simplex_matrix, trivial_motion_basis)
from .shifting import (GenericBasis, MembershipReport, characteristic_face,
                       characteristic_membership, characteristic_prefix,
                       componentwise_leq, compound_vector, generic_basis,
                       in_shifted_family, placement_from_basis, shifted_level,
                       wedge_map_matrix)
from .sparsity import (SparsityParams, build_counterexample,
                       complete_to_sparse_basis, greedy_sparse_basis,
                       is_sparse, is_tight, spanned_count)

__version__ = "0.1.0"
