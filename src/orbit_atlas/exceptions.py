"""Exception types shared across the library."""


class OrbitAtlasError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OrbitAtlasError, ValueError):
    """A domain value failed one of its construction invariants."""


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within the requested tolerance."""


class NotUnitTrace(ValidationError):
    """Matrix trace deviates from one beyond the requested tolerance."""


class NotPositiveSemidefinite(ValidationError):
    """Matrix has an eigenvalue below the allowed negative slack."""


class NoConvergence(OrbitAtlasError, RuntimeError):
    """The eigensolver failed to produce a spectrum within its error budget."""


class DimensionMismatch(ValidationError):
    """Two operands have incompatible dimensions."""


class NotSquare(ValidationError):
    """Input is not a square numeric matrix (wrong shape, ragged or non-numeric)."""


class DimensionOutOfRange(ValidationError):
    """Requested dimension is outside the supported range."""


class ParameterOutOfRange(ValidationError):
    """A scalar parameter lies outside its documented domain."""


class AmbiguousClustering(OrbitAtlasError, RuntimeError):
    """Eigenvalue clusters are too close to separate at the given tolerance."""


class OddDimension(ValidationError):
    """Operation requires an even matrix dimension."""


class NotNormalized(ValidationError):
    """Spectrum entries must lie in [0, 1] and sum to one."""


class LengthMismatch(ValidationError):
    """Vector operands have different lengths."""


class ParseError(OrbitAtlasError, ValueError):
    """An input file does not conform to the documented format."""
