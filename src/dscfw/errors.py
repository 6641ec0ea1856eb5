"""Exception hierarchy shared across the package.

Errors that also subclass ValueError describe malformed input: the CLI
reports them as data errors (exit 2) and every other DscfwError as a
solver error (exit 3).
"""


class DscfwError(Exception):
    """Base class for all package errors."""


class AsymmetricMatrix(DscfwError, ValueError):
    pass


class NegativeEntry(DscfwError, ValueError):
    pass


class NonFiniteEntry(DscfwError, ValueError):
    """Matrix holds NaN or an infinity."""


class NonzeroDiagonal(DscfwError, ValueError):
    pass


class DimensionMismatch(DscfwError):
    """Vector and matrix sizes disagree, or a simplex point's support
    bookkeeping is out of sync with its coordinates."""


class NonSquareMatrix(DimensionMismatch, ValueError):
    """A similarity matrix input that is not square."""


class TooSmall(DscfwError):
    pass


class EmptySupport(DscfwError):
    pass


class NotAscent(DscfwError):
    """Step requested although the halved gap is nonpositive."""


class BrokenInvariant(DscfwError):
    """A condition the step logic guarantees does not hold, e.g. a convex
    FW line search or an away step from a vertex: the solver state is
    inconsistent with its matrix."""


class ZeroDenominator(DscfwError):
    """Replicator update undefined: the quadratic form is zero."""


class BadInit(DscfwError):
    """Starting point invalid for the chosen solver (e.g. a vertex for
    replicator dynamics, where the denominator x'Ax is zero)."""


class EmptyCluster(DscfwError):
    pass


class NoClusters(DscfwError):
    pass


class LengthMismatch(DscfwError):
    pass


class EmptyOverlap(DscfwError):
    pass


class ZeroNormRow(DscfwError):
    pass


class HsvRangeError(DscfwError):
    pass


class TooManySeeds(DscfwError):
    pass


class PoolTooSmall(DscfwError):
    pass


class IdentityViolated(DscfwError):
    pass


class EmptyTrace(DscfwError):
    pass


class TooFewPoints(DscfwError):
    pass
