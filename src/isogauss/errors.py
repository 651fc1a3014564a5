"""Exception hierarchy for the isogauss package."""


class IsoGaussError(Exception):
    """Base class for all package errors."""


class ConfigurationError(IsoGaussError):
    """Invalid chart or option configuration."""


class SamplingError(IsoGaussError):
    """A sampled field contains non-finite values."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SingularMetricError(IsoGaussError):
    """Metric not symmetric positive definite at some node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class InvalidGaussMapError(IsoGaussError):
    """Gauss-map samples too far from the unit sphere / Grassmannian."""


class DegenerateGaussMapError(IsoGaussError):
    """The differential of the Gauss map is rank deficient."""


class InvalidGrassmannDataError(IsoGaussError):
    """Normal-plane spanning sets are rank deficient or inconsistent."""


class BranchError(IsoGaussError):
    """A solve branch was called outside its validity region."""


class DomainError(IsoGaussError):
    """Input outside the mathematical domain of an operation."""


class DatasetFormatError(IsoGaussError):
    """Malformed or unrecognized dataset file."""
