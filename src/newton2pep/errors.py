"""Exception types shared across the package."""


class Newton2PepError(Exception):
    """Base class for errors raised by this package."""


class NonSquareError(Newton2PepError):
    """A square matrix was required."""


class NodeMismatchError(Newton2PepError):
    """Two polynomials or pencils were combined but carry different nodes."""


class AdmissibilityError(Newton2PepError):
    """Free parameters violate the nonsingularity condition on the Z block."""


class DegenerateProblemError(Newton2PepError):
    """The input is too degenerate for the requested check to be conclusive."""


class SharedFactorError(DegenerateProblemError):
    """A polynomial pair has a common factor: infinitely many common zeros."""
