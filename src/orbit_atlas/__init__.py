"""Geometry of finite-dimensional quantum states.

Unitary-orbit classification as flag manifolds, coherence/Bloch-vector
embeddings and their positivity limits, the full three-level feasibility
region, majorization and entropy ordering, and symplectic-orbit dimension
bounds.  Dense numerics on numpy arrays; dimensions up to 64.
"""

from .exceptions import (
    AmbiguousClustering,
    DimensionMismatch,
    DimensionOutOfRange,
    LengthMismatch,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    NotPositiveSemidefinite,
    NotSquare,
    NotUnitTrace,
    OddDimension,
    OrbitAtlasError,
    ParameterOutOfRange,
    ParseError,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    EigenSystem,
    convex_path,
    hermitian_eigensystem,
    purity,
    random_density_matrix,
    random_unitary,
    trace_invariants,
    unitarily_equivalent,
)
from .orbits import (
    DEFAULT_CLUSTER_TOL,
    MajorizationResult,
    OrbitSignature,
    OrbitTableRow,
    StateClass,
    enumerate_orbit_table,
    entropy_of_spectrum,
    flag_manifold_name,
    majorize_compare,
    orbit_dimension,
    orbit_signature,
    von_neumann_entropy,
)
from .pauli import (
    Convention,
    CoherenceVector,
    PauliBasis,
    convert_convention,
    from_coherence_vector,
    generate_basis,
    is_physical_vector,
    to_coherence_vector,
)
from .qutrit import (
    FeasibleInterval,
    QutritRegionPoint,
    RegionClass,
    feasibility,
    feasible_interval,
    fig2_curve,
    fig3_curve,
    qutrit_from_params,
    sphere_physical_fraction,
)
from .symplectic import (
    Quaternion,
    SpOrbitReport,
    SpRule,
    SpRuleKind,
    Table2Row,
    complex_to_quat,
    has_sp_block_form,
    is_symplectic,
    quat_inner,
    quat_mul,
    quat_to_complex,
    random_symplectic,
    skew_form,
    sp_orbit_bounds,
    standard_J,
    table2,
)

__version__ = "0.1.0"
