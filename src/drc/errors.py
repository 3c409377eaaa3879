"""Exception taxonomy.

Every error raised by this package derives from :class:`DrcError` and,
where it makes sense, from the matching builtin so callers can catch
either way (``IndexError`` for bad positions, ``ValueError`` for bad
arguments, ``KeyError`` for bad handles).
"""

from __future__ import annotations


class DrcError(Exception):
    """Base class for all package errors."""


class IndexOutOfRange(DrcError, IndexError):
    """A 1-based position falls outside the live sequence."""


class SearchOutOfRange(DrcError, ValueError):
    """Prefix-sum search target outside [1, total]."""


class DeltaTooLarge(DrcError, ValueError):
    """|delta| does not fit in the configured delta bits."""


class NegativeEntry(DrcError, ValueError):
    """An update would drive an entry value below zero."""


class BadSplit(DrcError, ValueError):
    """divide() split point outside [0, entry value]."""


class StructureFull(DrcError, OverflowError):
    """The fixed-capacity packed structure already holds B entries."""


class DeleteTooLarge(DrcError, ValueError):
    """delete() on an entry too large to zero out in one delta-bounded update."""


class ItemCountMismatch(DrcError, ValueError):
    """A partial-sums tree is given more or fewer items than values."""


class BadConfig(DrcError, ValueError):
    """Packing geometry violates a field or word budget."""


class EmptyReference(DrcError, ValueError):
    """The reference string must contain at least one byte."""


class ReferenceTooLarge(DrcError, OverflowError):
    """The reference, its suffix tree or the tree's rank sets would
    overflow the index's int32 arrays."""


class InvalidBlock(DrcError, ValueError):
    """Block endpoints do not denote a substring of the reference."""


class CharNotInReference(DrcError, ValueError):
    """A byte required by the source string never occurs in the reference.

    Carries ``position`` (1-based offset into the source) and ``byte``.
    """

    def __init__(self, position: int, byte: int):
        shown = f"0x{byte:02x}" if 0 <= byte <= 255 else str(byte)
        super().__init__(f"byte {shown} at source position {position} "
                         f"does not occur in the reference")
        self.position = position
        self.byte = byte


class UnknownHandle(DrcError, KeyError):
    """Forest handle is not live (never issued, or already consumed)."""


class SameHandle(DrcError, ValueError):
    """Operation needs two distinct handles."""


class ChecksumMismatch(DrcError, ValueError):
    """Cover file was written against a different reference."""


class MalformedCoverFile(DrcError, ValueError):
    """Cover file bytes do not parse as the documented format."""
