"""Dynamic relative compression toolkit.

Store a string as a maximal cover of substrings of a fixed reference and
edit it in compressed form: random access, single-character replace,
insert, and delete, plus split and concatenation across a whole set of
strings.  Position arithmetic rides on word-packed dynamic partial sums;
cover maintenance rides on a substring-concatenation index built over the
reference's suffix structure.
"""

from .cover_engine import CompressedString, compress
from .errors import (
    BadConfig,
    BadSplit,
    CharNotInReference,
    ChecksumMismatch,
    DeleteTooLarge,
    DeltaTooLarge,
    DrcError,
    EmptyReference,
    IndexOutOfRange,
    InvalidBlock,
    ItemCountMismatch,
    MalformedCoverFile,
    NegativeEntry,
    SameHandle,
    SearchOutOfRange,
    StructureFull,
    UnknownHandle,
)
from .multi_cover import CoverForest
from .partial_sums import SumTree
from .partial_sums_small import PackedSums, PsConfig
from .ref_index import RefIndex, build_index

__version__ = "0.1.0"

__all__ = [
    "CompressedString",
    "CoverForest",
    "PackedSums",
    "PsConfig",
    "RefIndex",
    "SumTree",
    "build_index",
    "compress",
    "DrcError",
    "BadConfig",
    "BadSplit",
    "CharNotInReference",
    "ChecksumMismatch",
    "DeleteTooLarge",
    "DeltaTooLarge",
    "EmptyReference",
    "IndexOutOfRange",
    "InvalidBlock",
    "ItemCountMismatch",
    "MalformedCoverFile",
    "NegativeEntry",
    "SameHandle",
    "SearchOutOfRange",
    "StructureFull",
    "UnknownHandle",
    "__version__",
]
