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
    """Matrix, feature or simplex-point input holds NaN or an infinity."""


class NonzeroDiagonal(DscfwError, ValueError):
    pass


class DimensionMismatch(DscfwError):
    """Vector and matrix sizes disagree, a simplex point is not 1-D or
    features not 2-D, or a point's coordinates have drifted from summing
    to 1."""


class NonSquareMatrix(DimensionMismatch, ValueError):
    """A similarity matrix input that is not square."""


class TooSmall(DscfwError, ValueError):
    """An input with too few objects: a file or feature array with no
    rows, or a matrix with fewer than two objects where off-diagonal
    entries are needed."""


class EmptySupport(DscfwError):
    pass


class NotAscent(DscfwError):
    """Step requested where the solver has no ascent direction."""


class BrokenInvariant(DscfwError):
    """A condition the step logic guarantees does not hold, e.g. a convex
    FW line search or an away step from a vertex: the solver state is
    inconsistent with its matrix."""


class ZeroDenominator(DscfwError):
    """Replicator update undefined: the quadratic form is zero."""


class BadInit(DscfwError):
    """Starting point invalid for the chosen solver (e.g. a vertex for
    replicator dynamics, where the denominator x'Ax is zero)."""


class NoClusters(DscfwError):
    pass


class LengthMismatch(DscfwError, ValueError):
    """Predicted and true label vectors differ in length, or are empty."""


class EmptyOverlap(DscfwError, ValueError):
    """No assigned object is left to score."""


class ZeroNormRow(DscfwError, ValueError):
    """A feature row of norm zero, for which cosine similarity is
    undefined."""


class TooManySeeds(DscfwError):
    pass


class PoolTooSmall(DscfwError):
    pass


class EmptyTrace(DscfwError):
    pass


class MalformedTrace(DscfwError, ValueError):
    """A trace CSV whose header is not the trace columns, or with a row
    that does not have one field per column."""


class MalformedLabels(DscfwError, ValueError):
    """A label CSV that is not the header `object_id,label` followed by
    at least one row of two integers, with the ids 0..n-1 in order."""


class TooFewPoints(DscfwError):
    pass


class UncheckableRun(DscfwError, ValueError):
    """A run that cannot be held to a gap bound: replicator dynamics, a
    manifest of no traced `cluster` run, one that lacks what the run
    recorded, records a flag value `cluster` would not give or digests of
    any file but its --input, a traced round with no steps, or an input
    changed since."""
