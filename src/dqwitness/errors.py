"""Exception hierarchy for the dqwitness package."""


class DqwitnessError(Exception):
    """Base class for all package-specific errors."""


# -- operator sectors ------------------------------------------------------

class NotEigenoperator(DqwitnessError):
    """Operator is not an eigenoperator of the total-Iz commutator map."""


class LinearlyDependentBasis(DqwitnessError):
    """Gram matrix of the candidate basis is numerically singular."""


class NotClosed(DqwitnessError):
    """Commutators leave the span of the basis elements."""


class NotHermitianTriple(DqwitnessError):
    """Structure constants are not of the Hermitian-triple form i * (real)."""


# -- closed-system dynamics ------------------------------------------------

class NonHermitianGenerator(DqwitnessError):
    """Generator passed where a Hermitian matrix is required."""


class DimensionMismatch(DqwitnessError):
    """Operators or states with incompatible dimensions."""


class InvalidBargmannIndex(DqwitnessError):
    """Lowest-weight index must be strictly positive."""


class TruncationTooSmall(DqwitnessError):
    """Ladder truncation needs at least three levels."""


class TruncationExceeded(DqwitnessError):
    """The sized ladder exceeds the size limit, or its measured top-level tail breaks the bound."""


class InsufficientSamples(DqwitnessError):
    """Too few trajectory samples for growth classification."""


class AmbiguousGrowth(DqwitnessError):
    """Signal matches neither the bounded-envelope nor the log-linear test."""


# -- open-system dynamics --------------------------------------------------

class DegenerateGrouping(DqwitnessError):
    """Distinct transition frequencies chained into an inconsistent group."""


class PositivityBreakdown(DqwitnessError):
    """Propagated state violates positivity beyond integrator tolerance."""


class SupportViolation(DqwitnessError):
    """Reference state has no support where the argument state has weight."""


class IllConditionedStart(DqwitnessError):
    """Start state the detailed-balance propagator cannot evolve to clip accuracy."""


class CeilingPrecondition(DqwitnessError):
    """Initial pair correlation already exceeds the thermal value."""


# -- witness arithmetic ----------------------------------------------------

class NegativeAmplitude(DqwitnessError):
    """Measured fractional amplitude must be non-negative."""


# -- measurement ingestion and CLI -----------------------------------------

class MalformedHeader(DqwitnessError):
    """CSV header does not match the expected column contract."""


class MalformedRow(DqwitnessError):
    """CSV line that cannot be read: bytes that are not UTF-8, or an oversized field."""


class NonMonotonicTime(DqwitnessError):
    """Time stamps must be strictly increasing."""


class NegativeValue(DqwitnessError):
    """Row value violates a sign or range constraint."""


class NonFiniteValue(DqwitnessError):
    """NaN or infinity where a finite number is required."""


class InsufficientRows(DqwitnessError):
    """Stability gate needs at least three rows."""


class UnsupportedKind(DqwitnessError):
    """Unknown figure kind."""
