"""Exception types shared across the package."""


class FockampError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FockampError):
    """Operands live on incompatible spaces."""


class NotHermitian(FockampError):
    """An operator required to be Hermitian is not, within tolerance."""


class NotNormal(FockampError):
    """An operator required to be normal ([f, f^dag] = 0) is not.

    Carries the max-norm of the commutator in ``args[1]`` when available.
    """

    def __init__(self, message, commutator_norm=None):
        super().__init__(message)
        self.commutator_norm = commutator_norm


class GainOutOfRange(FockampError):
    """Amplifier gain outside the admissible range for the variant."""


class TruncationError(FockampError):
    """A state or evolution does not fit in the truncated space."""


class CoverageError(FockampError):
    """An outcome grid does not cover the decision regions adequately."""


class ConfigError(FockampError):
    """Invalid run configuration (maps to CLI exit code 2)."""


class ResourceLimit(ConfigError):
    """A valid config asks for more than a documented resource ceiling
    (maps to CLI exit code 3, like other resource errors)."""
