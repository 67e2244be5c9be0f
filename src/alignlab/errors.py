"""Exception types raised by the library."""

from __future__ import annotations


class AlignlabError(Exception):
    """Base class for all library errors."""


class NonPositiveWeight(AlignlabError):
    """A weight was zero, negative, or non-finite."""


class AlphabetTooSmall(AlignlabError):
    """The alphabet must contain at least two symbols."""


class AlphabetMismatch(AlignlabError):
    """Two distributions live on alphabets of different sizes."""


class SizeOverflow(AlignlabError):
    """An enumeration would exceed the configured size cap."""


class NonPositiveOrder(AlignlabError):
    """Renyi order must be strictly positive."""


class InfeasibleBudget(AlignlabError):
    """The requested KL budget is at or beyond the family's supremum."""


class DegenerateFamily(AlignlabError):
    """A uniform alignment target collapses the tilted family to a point."""


class TargetOutOfRange(AlignlabError):
    """The requested value lies outside the achievable open range."""


class LengthMismatch(AlignlabError):
    """Parallel arrays disagree in length."""


class InvalidN(AlignlabError):
    """The sample count N is out of range, or not a positive integer where one is needed."""
