"""Geometry of finite-dimensional quantum states.

Unitary-orbit classification as flag manifolds, coherence/Bloch-vector
embeddings and their positivity limits, the full three-level feasibility
region, majorization and entropy ordering, and symplectic-orbit dimension
bounds.  Dense numerics on numpy arrays; dimensions up to 64.

The package namespace is lazy (PEP 562): ``import orbit_atlas`` loads no
submodule.  Each name below is imported from its home module the first
time it is read, as ``orbit_atlas.DensityMatrix`` or ``from orbit_atlas
import DensityMatrix``, and is then the very object of that module.  So
numpy is loaded only by a name that computes with it, and the orbit table
(``enumerate_orbit_table``), the defaults and ``Convention``, whose home is
the numpy-free ``core``, come without it.  The home modules are
attributes too, imported on first read (``orbit_atlas.linalg``).
"""

import importlib

#: Home module of every name the package re-exports.
_EXPORTS = {
    "exceptions": """AmbiguousClustering DimensionMismatch DimensionOutOfRange
        LengthMismatch NoConvergence NotHermitian NotNormalized
        NotPositiveSemidefinite NotSquare NotUnitTrace OddDimension
        OrbitAtlasError ParameterOutOfRange ParseError ValidationError""",
    "core": """DEFAULT_CLUSTER_TOL DEFAULT_TOL Convention OrbitTableRow
        enumerate_orbit_table""",
    "linalg": """DensityMatrix purity random_density_matrix random_unitary
        unitarily_equivalent""",
    "orbits": """MajorizationResult OrbitSignature StateClass entropy_of_spectrum
        flag_manifold_name majorize_compare orbit_dimension orbit_signature
        von_neumann_entropy""",
    "pauli": """CoherenceVector convert_convention from_coherence_vector
        generate_basis is_physical_vector to_coherence_vector""",
    "qutrit": """FeasibleInterval QutritRegionPoint RegionClass feasible_interval
        fig2_curve fig3_curve qutrit_from_params sphere_physical_fraction""",
    "symplectic": """SpOrbitReport SpRule SpRuleKind Table2Row complex_to_quat
        has_sp_block_form is_symplectic quat_inner quat_mul quat_to_complex
        random_symplectic skew_form sp_orbit_bounds standard_J table2""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a home module
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
