"""Exception taxonomy.

Two families matter to callers: ``DataError`` (bad or insufficient input,
CLI exit status 1) and ``NumericalError`` (a computation that cannot
produce a result, CLI exit status 2).  Constructor invariant violations on
the data types raise plain ``ValueError`` instead.
"""


class ErpLabError(Exception):
    """Base class for all library errors."""


class DataError(ErpLabError):
    """Input data is missing, malformed, or insufficient."""


class NumericalError(ErpLabError):
    """A numerical procedure cannot produce a result."""


# -- data errors --------------------------------------------------------------

class EmptyInputError(DataError):
    """An operation received an empty collection."""


class EmptyIntersectionError(DataError):
    """Two series share no common dates."""


class EmptyWindowError(DataError):
    """No aligned observations fall inside the requested year window."""


class TooShortError(DataError):
    """The series has too few observations for the operation."""


class TooFewObservationsError(DataError):
    """A regression has fewer observations than it needs."""


class NonPositivePriceError(DataError):
    """A price that must be positive is zero or negative."""


class NonPositiveEpsError(DataError):
    """An earnings-per-share value that must be positive is not."""


class ReturnBelowMinusOneError(DataError):
    """A simple return at or below -100%, impossible for positive prices."""


class RateBelowMinusOneError(DataError):
    """A discount rate at or below -100%."""


class CalendarPrecedesDataError(DataError):
    """A calendar date precedes every observation of the sparse series."""


class HorizonExceedsSampleError(DataError):
    """A blend horizon longer than the return sample."""


class DecayOutOfRangeError(DataError):
    """An exponential-weighting decay outside (0, 1]."""


class LengthMismatchError(DataError):
    """Paired lists have different lengths."""


class WeightsNotNormalizedError(DataError):
    """Portfolio weights do not sum to one."""


class InvalidParametersError(DataError):
    """Parameters outside an operation's admissible range."""


class InvalidInputsError(DataError):
    """Model inputs outside the admissible range."""


# -- file/parse errors --------------------------------------------------------

class SeriesParseError(DataError):
    """Base for CSV series-file parsing failures."""


class MissingColumnError(SeriesParseError):
    """A named column is absent from the CSV header."""


class BadDateError(SeriesParseError):
    """A date cell failed to parse (message carries the line number)."""


class BadValueError(SeriesParseError):
    """A value cell is blank or non-numeric (message carries the line number)."""


class DuplicateDateError(SeriesParseError):
    """The same date appears on more than one row."""


class MalformedCsvError(SeriesParseError):
    """The csv module rejects the file, e.g. a field over its size limit
    (message carries the line number), or the file is not UTF-8."""


# -- numerical errors ---------------------------------------------------------

class DegenerateRegressorError(NumericalError):
    """The regressor has zero variance; the slope is undefined."""


class RankDeficientError(NumericalError):
    """The factor matrix does not have full column rank."""


class NonConvergentError(NumericalError):
    """An infinite sum diverges for the given parameters (k <= g)."""


class NoRootInBracketError(NumericalError):
    """No admissible rate reproduces the observed price."""
