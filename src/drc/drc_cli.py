"""Command-line front end: compress, decompress, edit, verify.

A compressed file ("cover file") stores the block list of one source
string relative to an out-of-band reference file (header: ``_HEADER``):

    magic "DRC1" | version `0x01` | r as u64 LE | FNV-1a 64 of R, LE |
    block count as u64 LE | per block: start-1 then length, LEB128

The reference itself is never embedded; the checksum guards against
decompressing with the wrong one.

Edit scripts are text, one op per line: `A <i>`, `X <i> <len>`,
`R <i> <c>`, `I <i> <c>`, `D <i>` with 1-based positions; `<c>` is one
literal byte or `\\xHH`.  Results of `A`/`X` are printed one per line
with non-printable bytes escaped the same way.

Exit codes: 0 ok, 1 I/O error, 2 source byte missing from the reference,
3 reference checksum mismatch, 4 malformed or invalid cover file,
5 script parse error, 6 script op failure, 7 empty reference file,
8 usage error (argparse's usage line and message go to stderr).
"""

from __future__ import annotations

import argparse
import string
import struct
import sys
from functools import lru_cache
from typing import List, Optional, Tuple

from .cover_engine import CompressedString, compress
from .errors import (
    CharNotInReference,
    ChecksumMismatch,
    DrcError,
    EmptyReference,
    InvalidBlock,
    MalformedCoverFile,
)
from .ref_index import build_index

__all__ = ["main", "fnv1a64", "encode_cover", "decode_cover", "parse_script"]

MAGIC = b"DRC1"
VERSION = 1
_HEADER = struct.Struct("<4sBQQQ")  # magic, version, r, checksum, block count

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


# ----------------------------------------------------------------------
# cover file codec

def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        low = value & 0x7F
        value >>= 7
        out.append(low | (0x80 if value else 0))
        if not value:
            return bytes(out)


def _read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    value = shift = 0
    while True:
        if pos >= len(buf):
            raise MalformedCoverFile("truncated varint")
        if shift == 70:  # a u64 takes at most 10 bytes
            raise MalformedCoverFile(f"varint at offset {pos - 10} longer than 10 bytes")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def encode_cover(r: int, checksum: int, blocks: List[Tuple[int, int]]) -> bytes:
    out = bytearray(_HEADER.pack(MAGIC, VERSION, r, checksum, len(blocks)))
    for s, e in blocks:
        out += _varint(s - 1)
        out += _varint(e - s + 1)
    return bytes(out)


def decode_cover(buf: bytes) -> Tuple[int, int, List[Tuple[int, int]]]:
    """(r, checksum, blocks); every structural defect is MalformedCoverFile."""
    if len(buf) < _HEADER.size or buf[:4] != MAGIC:
        raise MalformedCoverFile("bad magic or short header")
    _, version, r, checksum, count = _HEADER.unpack_from(buf)
    if version != VERSION:
        raise MalformedCoverFile(f"unsupported version {version}")
    pos = _HEADER.size
    blocks: List[Tuple[int, int]] = []
    for _ in range(count):
        start0, pos = _read_varint(buf, pos)
        length, pos = _read_varint(buf, pos)
        s, e = start0 + 1, start0 + length
        if length < 1 or e > r:
            raise MalformedCoverFile(f"block ({s}, {e}) outside reference of length {r}")
        blocks.append((s, e))
    if pos != len(buf):
        raise MalformedCoverFile(f"{len(buf) - pos} trailing bytes")
    return r, checksum, blocks


# ----------------------------------------------------------------------
# edit scripts

class ScriptError(DrcError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OpError(DrcError):
    def __init__(self, line: int, cause: Exception):
        super().__init__(f"line {line}: {cause}")
        self.line = line


def _parse_char(token: str) -> int:
    if len(token) == 1:
        return ord(token)
    # int(..., 16) alone would also take a sign, a space or an underscore
    if len(token) == 4 and token.startswith("\\x") and all(
            c in string.hexdigits for c in token[2:]):
        return int(token[2:], 16)
    raise ValueError(f"bad character token {token!r}")


def _parse_count(token: str, what: str, lineno: int) -> int:
    # int() alone would also take a sign, an underscore or non-ASCII digits
    if not (token.isascii() and token.isdigit()):
        raise ScriptError(lineno, f"bad {what} {token!r}")
    return int(token)


def _escape(byte: int) -> str:
    if 0x21 <= byte <= 0x7E and byte != 0x5C:
        return chr(byte)
    return f"\\x{byte:02x}"


_ARITY = {"A": 2, "X": 3, "R": 3, "I": 3, "D": 2}


def _decode_script(raw: bytes) -> str:
    try:
        return raw.decode("ascii", errors="strict")
    except UnicodeDecodeError as exc:
        # number the bad byte's line the way parse_script numbers lines
        head = raw[: exc.start].decode("ascii") + "x"
        raise ScriptError(len(head.splitlines()),
                          f"non-ASCII byte 0x{raw[exc.start]:02x}") from None


def parse_script(text: str) -> List[tuple]:
    """Ops as tuples: ("A", i), ("X", i, len), ("R", i, byte), ..."""
    ops: List[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        verb = fields[0]
        if verb not in _ARITY:
            raise ScriptError(lineno, f"unknown verb {verb!r}")
        if len(fields) != _ARITY[verb]:
            raise ScriptError(lineno, f"{verb} takes {_ARITY[verb] - 1} argument(s)")
        i = _parse_count(fields[1], "position", lineno)
        if verb == "A" or verb == "D":
            ops.append((verb, i, lineno))
        elif verb == "X":
            ops.append((verb, i, _parse_count(fields[2], "length", lineno), lineno))
        else:
            try:
                byte = _parse_char(fields[2])
            except ValueError as exc:
                raise ScriptError(lineno, str(exc)) from None
            ops.append((verb, i, byte, lineno))
    return ops


# ----------------------------------------------------------------------
# subcommands

def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _check_reference(ref: bytes, r: int, checksum: int) -> None:
    if len(ref) != r or fnv1a64(ref) != checksum:
        raise ChecksumMismatch(
            "supplied reference does not match the one this file was built against")


def _cmd_compress(args: argparse.Namespace) -> int:
    ref = _read(args.ref)
    src = _read(args.src)
    idx = build_index(ref)
    blocks = idx.factorize(src)
    payload = encode_cover(len(ref), fnv1a64(ref), blocks)
    _write(args.out, payload)
    n, total = len(blocks), len(src)
    ratio = (len(payload) - _HEADER.size) / total if total else 0.0
    print(f"n={n} N={total} ratio={ratio:.4f}")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    ref = _read(args.ref)
    r, checksum, blocks = decode_cover(_read(args.infile))
    _check_reference(ref, r, checksum)
    _write(args.out, b"".join(ref[s - 1 : e] for s, e in blocks))
    return 0


def _check_maximal(blocks: List[Tuple[int, int]], concat) -> None:
    """``concat(x, y)``: truthy when R[x]·R[y] occurs in R."""
    for x, y in zip(blocks, blocks[1:]):
        if concat(x, y):
            raise MalformedCoverFile(
                f"cover not maximal: blocks ({x[0]},{x[1]}) and ({y[0]},{y[1]}) concatenate in R")


def _cmd_verify(args: argparse.Namespace) -> int:
    ref = _read(args.ref)
    r, checksum, blocks = decode_cover(_read(args.infile))
    _check_reference(ref, r, checksum)
    if len(blocks) > 1:  # fewer blocks need no index, and R may be empty
        idx = build_index(ref)

        def concat(x, y):  # R[x]·R[y] occurs when its longest match is all of it
            cat = ref[x[0] - 1 : x[1]] + ref[y[0] - 1 : y[1]]
            return idx.longest_match(cat, 1)[0] == len(cat)

        _check_maximal(blocks, concat)
    print(f"ok n={len(blocks)} N={sum(e - s + 1 for s, e in blocks)}")
    return 0


def _cmd_edit(args: argparse.Namespace) -> int:
    ref = _read(args.ref)
    ops = parse_script(_decode_script(_read(args.script)))
    r, checksum, blocks = decode_cover(_read(args.infile))
    _check_reference(ref, r, checksum)
    idx = build_index(ref)
    _check_maximal(blocks, idx.substring_concat)  # edits keep a cover maximal, not make it so
    cs = CompressedString(idx, blocks)
    for op in ops:
        verb, i, lineno = op[0], op[1], op[-1]
        try:
            if verb == "A":
                print(_escape(cs.access(i)))
            elif verb == "X":
                print("".join(_escape(b) for b in cs.extract(i, op[2])))
            elif verb == "R":
                cs.replace(i, op[2])
            elif verb == "I":
                cs.insert(i, op[2])
            else:
                cs.delete(i)
        except DrcError as exc:
            raise OpError(lineno, exc) from exc
    _write(args.out, encode_cover(len(ref), checksum, cs.blocks()))
    return 0


# built once: argparse's objects refer to one another, so each parser built
# would be garbage only the cyclic collector frees
@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drc",
        description="Compress and edit files as block covers of a reference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="build a cover file from a source file")
    p.add_argument("--ref", required=True, help="reference file")
    p.add_argument("--src", required=True, help="source file to compress")
    p.add_argument("--out", required=True, help="cover file to write")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct the source from a cover file")
    p.add_argument("--ref", required=True, help="reference file")
    p.add_argument("--in", dest="infile", required=True, help="cover file to read")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("edit", help="replay an edit script on a cover file")
    p.add_argument("--ref", required=True, help="reference file")
    p.add_argument("--in", dest="infile", required=True, help="cover file to read")
    p.add_argument("--script", required=True, help="edit script")
    p.add_argument("--out", required=True, help="cover file to write")
    p.set_defaults(func=_cmd_edit)

    p = sub.add_parser("verify", help="check structure, checksum, and maximality")
    p.add_argument("--ref", required=True, help="reference file")
    p.add_argument("--in", dest="infile", required=True, help="cover file to check")
    p.set_defaults(func=_cmd_verify)

    return parser


# exit code of each failure class, tried in order: the first row whose
# types match the exception gives the code
_EXIT_CODES = (
    (OSError, 1),
    (CharNotInReference, 2),
    (ChecksumMismatch, 3),
    ((MalformedCoverFile, InvalidBlock), 4),
    (ScriptError, 5),
    (OpError, 6),
    (EmptyReference, 7),
)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints a usage error and exits 2, which here means a
        # missing source byte; --help exits 0
        if exc.code == 2:
            return 8
        raise
    try:
        return args.func(args)
    except (OSError, DrcError) as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"drc: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
