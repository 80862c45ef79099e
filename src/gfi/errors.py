"""Exception types shared across the package."""


class EmptyTextError(ValueError):
    """Raised when an empty text is handed to the ingestion step."""


class InvalidByteError(ValueError):
    """Raised when the input contains a reserved byte (embedded NUL)."""


class InvalidParameterError(ValueError):
    """Raised for out-of-range build parameters such as a zero chunk size."""


class InvalidPatternError(ValueError):
    """Raised when a query pattern is empty."""


class CorruptIndexError(ValueError):
    """Raised when an index file is truncated, damaged or in an old format."""
