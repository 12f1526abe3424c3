"""Exact computational toolkit for volume rigidity of simplicial complexes.

Pure (d-1)-dimensional complexes are placed generically in (d-1)-space;
the package computes the rank of the facet-volume Jacobian over a large
prime field (or the rationals), tests the equivalent exterior-shifting
membership criterion, checks hypergraph sparsity counts, and runs
boundary-operator and surface-triangulation verifications.

Importing volrig executes none of its modules.  Each is registered in
sys.modules and as a package attribute at once, and runs on its first
attribute access; a public name is looked up in its module when it is
first asked for.  So a command-line job compiles only the modules its
subcommand runs.
"""

__version__ = "0.1.0"

# Public names by the module that defines them.
_EXPORTS = {
    "complexes": ("SimplicialComplex", "as_face", "build_complex",
                  "complete_complex", "cone", "contract_edge",
                  "facets_containing", "is_face", "k_faces", "relabel",
                  "remove_facet", "union_complex"),
    "cycles": ("GF2", "DatasetReport", "boundary_matrix",
               "boundary_operator", "contraction_reduce", "cycle_space",
               "is_minimal_cycle", "remove_facet_rigidity",
               "rigidity_boundary_identity", "verify_dataset"),
    "errors": ("VolrigError",),
    "fileio": ("SurfaceDataset", "format_complex", "load_dataset",
               "parse_complex", "read_complex", "write_complex",
               "write_dataset"),
    "linalg": ("DEFAULT_PRIME", "GF", "PRIME_TABLE", "QQ", "ExactMatrix",
               "PrimeField", "RationalField", "sample_generic_matrix"),
    "rigidity": ("Placement", "RigidityReport", "columns_independent",
                 "generic_rank", "is_volume_rigid", "random_placement",
                 "rigidity_matrix", "simplex_matrix",
                 "trivial_motion_basis"),
    "shifting": ("GenericBasis", "MembershipReport", "characteristic_face",
                 "characteristic_membership", "characteristic_prefix",
                 "componentwise_leq", "compound_vector", "generic_basis",
                 "in_shifted_family", "placement_from_basis",
                 "shifted_level", "wedge_map_matrix"),
    "sparsity": ("SparsityParams", "build_counterexample",
                 "complete_to_sparse_basis", "greedy_sparse_basis",
                 "is_sparse", "is_tight", "spanned_count"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = list(_HOME)


def _register(modules):
    """Register each module to execute on its first attribute access.

    cli is not registered: `python -m volrig.cli` would find it in
    sys.modules before running it, and runpy warns about that.
    """
    import importlib.util
    import sys
    for name in modules:
        spec = importlib.util.find_spec("%s.%s" % (__name__, name))
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register(_EXPORTS)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
