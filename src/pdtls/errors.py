"""Exception types shared across the package."""


class PdtlsError(Exception):
    """Base class for all package errors."""


class DimensionError(PdtlsError):
    """Matrix shapes are incompatible with the requested operation."""


class NotPositiveDefiniteError(PdtlsError):
    """A matrix required to be symmetric positive definite is not."""


class SingularTriangularError(PdtlsError):
    """A triangular factor has a zero diagonal entry."""


class RankDeficiencyError(PdtlsError):
    """Data matrix is numerically rank deficient; use the rank-deficient solver."""


class NoSolutionError(PdtlsError):
    """The instance fails the consistency test: no SPD solution exists.

    report is the test's ConsistencyReport, method_tag the solution's tag.
    """

    def __init__(self, message, report=None, method_tag=None):
        super().__init__(message)
        self.report = report
        self.method_tag = method_tag
