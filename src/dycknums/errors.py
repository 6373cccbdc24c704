"""Exception types shared across the package."""

from __future__ import annotations


class DyckError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DyckError):
    """An operation was applied outside its mathematical domain."""


class BoundError(DyckError):
    """A requested computation exceeds a configured bound."""


class NotMember(DyckError):
    """A value is not a term of the sequence."""


class PatternError(DyckError):
    """Base class for pattern construction failures."""


class NotContiguous(PatternError):
    """A gap between supplied terms contains another sequence member."""


class MixedLevels(PatternError):
    """Supplied terms do not share one binary code length."""


class InvalidCopy(PatternError):
    """A pattern has no valid copy at the requested senior term."""


class NotACopy(PatternError):
    """Two patterns do not satisfy the term-wise copy relation."""


class NotAdjacent(PatternError):
    """Two patterns cannot be joined because they are not adjacent."""


class LevelMismatch(DyckError):
    """A term's binary length does not match the expected level."""


class ParseError(DyckError):
    """A b-file line could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NetworkError(DyckError):
    """A b-file could not be retrieved from the remote host."""


class CacheMiss(DyckError):
    """Offline mode was requested and the cache has no entry."""


class NoOverlap(DyckError):
    """Computed values and b-file records share no indices."""


class CacheCorrupt(DyckError):
    """A local cache file does not hold the terms its header names."""


class UsageError(DyckError):
    """Command-line arguments select no work or exceed a bound."""
