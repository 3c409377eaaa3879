"""Cover file codec and command-line flows."""

from __future__ import annotations

import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drc import drc_cli
from drc.drc_cli import (
    MAGIC,
    VERSION,
    decode_cover,
    encode_cover,
    fnv1a64,
    main,
    parse_script,
)
from drc.errors import MalformedCoverFile
from drc.oracles import naive_edit_replay, naive_maximality_check
from drc.ref_index import build_index


class TestFnv:
    def test_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_distinguishes_neighbors(self):
        assert fnv1a64(b"banana") != fnv1a64(b"banan")
        assert fnv1a64(b"ab") != fnv1a64(b"ba")


class TestCodec:
    def test_round_trip(self):
        blocks = [(1, 6), (1, 3), (128, 300), (2, 2)]
        buf = encode_cover(300, 123456789, blocks)
        assert decode_cover(buf) == (300, 123456789, blocks)

    def test_empty_cover(self):
        buf = encode_cover(10, 42, [])
        assert decode_cover(buf) == (10, 42, [])
        assert len(buf) == 29  # header only

    def test_header_extremes_round_trip(self):
        # every u64 header field at its largest, and a block whose start
        # takes exactly the 10 varint bytes the decoder accepts
        top = 2**64 - 1
        for blocks, size in (([], 29), ([(top, top)], 29 + 10 + 1)):
            buf = encode_cover(top, top, blocks)
            assert len(buf) == size
            assert decode_cover(buf) == (top, top, blocks)

    def test_multibyte_varints(self):
        blocks = [(10**6, 10**6 + 12345)]
        buf = encode_cover(2 * 10**6, 7, blocks)
        assert decode_cover(buf)[2] == blocks

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:3],  # short header
            lambda b: b"XXXX" + b[4:],  # bad magic
            lambda b: b[:4] + b"\x02" + b[5:],  # unknown version
            lambda b: b[:-1],  # truncated varint
            lambda b: b + b"\x00",  # trailing bytes
        ],
    )
    def test_malformed(self, mutate):
        buf = encode_cover(300, 9, [(1, 6), (128, 300)])
        with pytest.raises(MalformedCoverFile):
            decode_cover(mutate(bytes(buf)))

    def test_out_of_bounds_block(self):
        buf = encode_cover(5, 9, [(2, 6)])
        with pytest.raises(MalformedCoverFile):
            decode_cover(buf)


class TestScripts:
    def test_parse_all_verbs(self):
        ops = parse_script("A 3\nX 1 4\nR 2 x\nI 5 \\x20\nD 9\n")
        assert [op[:-1] for op in ops] == [
            ("A", 3), ("X", 1, 4), ("R", 2, ord("x")),
            ("I", 5, 0x20), ("D", 9),
        ]

    def test_blank_lines_skipped(self):
        assert parse_script("\n\nA 1\n\n") == [("A", 1, 3)]

    @pytest.mark.parametrize(
        "bad", ["Q 1", "A", "A x", "R 1", "R 1 ab", "R 1 \\xgg", "X 1 q",
                "R 1 \\x-1", "R 1 \\x+f", "A 1_0", "R +2 a", "X 1 +4", "D -4"])
    def test_parse_errors(self, bad):
        from drc.drc_cli import ScriptError
        with pytest.raises(ScriptError):
            parse_script(bad)


# R and I lines whose position often holds a sign or an underscore, and
# whose \x escape a sign, a space or an underscore, where int() takes one
_ESCAPE = st.tuples(st.sampled_from("0f+-_ "), st.sampled_from("0fF+-g")).map(
    lambda cs: "\\x" + "".join(cs))
_LINE = st.tuples(
    st.sampled_from("RI"),
    st.tuples(st.sampled_from(["{}", "+{}", "-{}", "{}_0"]), st.integers(0, 40)).map(
        lambda p: p[0].format(p[1])),
    st.characters(min_codepoint=33, max_codepoint=126) | _ESCAPE,
).map(" ".join)


@settings(max_examples=300)
@given(st.text(alphabet=st.characters(max_codepoint=127))
       | st.lists(_LINE, max_size=4).map("\n".join))
def test_parse_script_fuzz(text):
    # either a clean parse with every byte in range, or a ScriptError
    from drc.drc_cli import ScriptError
    try:
        ops = parse_script(text)
    except ScriptError:
        return
    lines = text.splitlines()
    for op in ops:
        if op[0] in "RI":
            assert 0 <= op[2] <= 255
        # positions and X lengths are plain decimal digits
        fields = lines[op[-1] - 1].split()
        assert all(f.isdigit() for f in fields[1 : 3 if op[0] == "X" else 2])


_HEADER = MAGIC + bytes([VERSION])
_U64 = (1 << 64) - 1


@settings(max_examples=300)
@given(st.binary(max_size=64) | st.tuples(
    st.integers(0, 40), st.integers(0, _U64), st.integers(0, 8) | st.integers(0, _U64),
    st.binary(max_size=48),
).map(lambda f: _HEADER + f[0].to_bytes(8, "little") + f[1].to_bytes(8, "little")
      + f[2].to_bytes(8, "little") + f[3]))
def test_decode_cover_fuzz(buf):
    # a cover file either decodes to in-range blocks or is MalformedCoverFile
    try:
        r, _, blocks = decode_cover(buf)
    except MalformedCoverFile:
        return
    assert all(1 <= s <= e <= r for s, e in blocks)


@pytest.fixture
def ws(tmp_path):
    """Workspace with a reference file on disk."""
    (tmp_path / "ref").write_bytes(b"banana")
    return tmp_path


def run(ws, *argv) -> int:
    return main([str(a) for a in argv])


@pytest.mark.parametrize("argv", [["compress", "--ref", "x"], []],
                         ids=["missing-arguments", "no-command"])
def test_usage_error_exits_8(argv, capsys):
    assert main(argv) == 8
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


class TestCompress:
    def test_reports_block_count_and_length(self, ws, capsys):
        (ws / "src").write_bytes(b"bananaban")
        code = run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
                   "--out", ws / "cov")
        assert code == 0
        out = capsys.readouterr().out
        assert "n=2 N=9" in out

    def test_empty_source(self, ws, capsys):
        (ws / "src").write_bytes(b"")
        assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
                   "--out", ws / "cov") == 0
        assert "n=0 N=0" in capsys.readouterr().out
        assert decode_cover((ws / "cov").read_bytes())[2] == []

    def test_source_equal_to_reference(self, ws, capsys):
        assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "ref",
                   "--out", ws / "cov") == 0
        assert "n=1 N=6" in capsys.readouterr().out

    def test_missing_byte_exits_2(self, ws, capsys):
        (ws / "src").write_bytes(b"banz")
        assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
                   "--out", ws / "cov") == 2
        assert "position 4" in capsys.readouterr().err

    def test_empty_reference_exits_7(self, ws, capsys):
        (ws / "empty").write_bytes(b"")
        (ws / "src").write_bytes(b"a")
        assert run(ws, "compress", "--ref", ws / "empty", "--src", ws / "src",
                   "--out", ws / "cov") == 7
        # edit builds the index too, even for a cover of nothing
        (ws / "cov").write_bytes(encode_cover(0, fnv1a64(b""), []))
        (ws / "scr").write_bytes(b"")
        assert run(ws, "edit", "--ref", ws / "empty", "--in", ws / "cov",
                   "--script", ws / "scr", "--out", ws / "cov2") == 7
        assert "reference" in capsys.readouterr().err

    def test_missing_file_exits_1(self, ws):
        assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "nope",
                   "--out", ws / "cov") == 1

    def test_deterministic_output(self, ws):
        (ws / "src").write_bytes(b"nabanaban")
        run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
            "--out", ws / "c1")
        run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
            "--out", ws / "c2")
        assert (ws / "c1").read_bytes() == (ws / "c2").read_bytes()


class TestDecompressAndVerify:
    def round_trip(self, ws, payload: bytes) -> bytes:
        (ws / "src").write_bytes(payload)
        assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
                   "--out", ws / "cov") == 0
        assert run(ws, "verify", "--ref", ws / "ref", "--in", ws / "cov") == 0
        assert run(ws, "decompress", "--ref", ws / "ref", "--in", ws / "cov",
                   "--out", ws / "back") == 0
        return (ws / "back").read_bytes()

    def test_round_trip(self, ws):
        for payload in (b"bananaban", b"", b"banana", b"aaaaaa"):
            assert self.round_trip(ws, payload) == payload

    def test_wrong_reference_exits_3(self, ws):
        (ws / "src").write_bytes(b"banana")
        run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
            "--out", ws / "cov")
        (ws / "ref2").write_bytes(b"bananax")
        assert run(ws, "decompress", "--ref", ws / "ref2", "--in", ws / "cov",
                   "--out", ws / "back") == 3
        assert run(ws, "verify", "--ref", ws / "ref2", "--in", ws / "cov") == 3

    def test_truncated_file_exits_4(self, ws):
        (ws / "src").write_bytes(b"banana")
        run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
            "--out", ws / "cov")
        (ws / "cov").write_bytes((ws / "cov").read_bytes()[:-1])
        assert run(ws, "decompress", "--ref", ws / "ref", "--in", ws / "cov",
                   "--out", ws / "back") == 4

    @pytest.mark.parametrize("command", ["verify", "decompress"])
    def test_overlong_varint_exits_4(self, ws, command, capsys):
        # a 3000-byte varint would decode to an int too long to print
        header = encode_cover(6, fnv1a64(b"banana"), [(1, 1)])[:29]
        (ws / "cov").write_bytes(header + b"\xff" * 2999 + b"\x01\x01")
        argv = [command, "--ref", ws / "ref", "--in", ws / "cov"]
        if command == "decompress":
            argv += ["--out", ws / "back"]
        assert run(ws, *argv) == 4
        err = capsys.readouterr().err
        assert "longer than 10 bytes" in err and "Traceback" not in err

    def test_verify_rejects_non_maximal_cover(self, ws):
        # (1,3)+(4,6) spells "banana" which plainly occurs in R
        ref = b"banana"
        bad = encode_cover(6, fnv1a64(ref), [(1, 3), (4, 6)])
        (ws / "cov").write_bytes(bad)
        assert run(ws, "verify", "--ref", ws / "ref", "--in", ws / "cov") == 4

    def test_verify_builds_no_index_for_fewer_than_two_blocks(self, ws, monkeypatch):
        # no pair to check: an empty cover of an empty reference passes, as
        # does one block, and neither builds an index
        monkeypatch.setattr(drc_cli, "build_index", None)
        (ws / "empty").write_bytes(b"")
        (ws / "cov").write_bytes(encode_cover(0, fnv1a64(b""), []))
        assert run(ws, "verify", "--ref", ws / "empty", "--in", ws / "cov") == 0
        (ws / "cov").write_bytes(encode_cover(6, fnv1a64(b"banana"), [(2, 5)]))
        assert run(ws, "verify", "--ref", ws / "ref", "--in", ws / "cov") == 0

    def test_verify_agrees_with_the_maximality_oracle(self, ws):
        # random covers, maximal or not: exit 4 exactly when the oracle
        # finds a pair of blocks that concatenates in R
        rng = random.Random(35)
        seen = set()
        for _ in range(300):
            ref = bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 30)))
            blocks = []
            for _ in range(rng.randint(2, 6)):
                s = rng.randint(1, len(ref))
                blocks.append((s, rng.randint(s, min(len(ref), s + 3))))
            (ws / "r").write_bytes(ref)
            (ws / "cov").write_bytes(encode_cover(len(ref), fnv1a64(ref), blocks))
            code = run(ws, "verify", "--ref", ws / "r", "--in", ws / "cov")
            assert code == (0 if naive_maximality_check(ref, blocks) else 4), (ref, blocks)
            seen.add(code)
        assert seen == {0, 4}

    def test_verify_of_a_mebibyte_reference_keeps_its_budget(self, ws):
        # each pair is one longest-match query on an index built once, not
        # a scan of R: about 1 s for 11k blocks over 1 MiB of ACGT, where
        # a scan per pair takes over 20 s
        rng = random.Random(35)
        ref = rng.randbytes(2**20).translate(bytes(b"acgt"[b & 3] for b in range(256)))
        src = bytearray()
        while len(src) < 2**18:
            a = rng.randrange(len(ref) - 40)
            src += ref[a : a + rng.randint(8, 40)]
        (ws / "big").write_bytes(ref)
        (ws / "src").write_bytes(src)
        t0 = time.perf_counter()
        assert run(ws, "compress", "--ref", ws / "big", "--src", ws / "src",
                   "--out", ws / "cov") == 0
        assert run(ws, "verify", "--ref", ws / "big", "--in", ws / "cov") == 0
        assert time.perf_counter() - t0 < 8.0
        assert len(decode_cover((ws / "cov").read_bytes())[2]) > 10_000


class TestEdit:
    def compress(self, ws, src: bytes) -> None:
        (ws / "src").write_bytes(src)
        assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
                   "--out", ws / "cov") == 0

    def edit(self, ws, script: str) -> int:
        (ws / "scr").write_text(script)
        return run(ws, "edit", "--ref", ws / "ref", "--in", ws / "cov",
                   "--script", ws / "scr", "--out", ws / "cov2")

    def decompressed(self, ws) -> bytes:
        assert run(ws, "decompress", "--ref", ws / "ref", "--in", ws / "cov2",
                   "--out", ws / "back") == 0
        return (ws / "back").read_bytes()

    def test_replace_first_byte(self, ws):
        self.compress(ws, b"banana")
        assert self.edit(ws, "R 1 n\n") == 0
        assert self.decompressed(ws) == b"nanana"

    def test_reads_are_printed(self, ws, capsys):
        self.compress(ws, b"banana")
        assert self.edit(ws, "A 1\nX 2 3\nA 6\n") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == ["b", "ana", "a"]

    def test_empty_script_is_identity(self, ws):
        self.compress(ws, b"bananaban")
        assert self.edit(ws, "") == 0
        assert (ws / "cov2").read_bytes() == (ws / "cov").read_bytes()

    def test_parse_error_exits_5(self, ws):
        self.compress(ws, b"banana")
        assert self.edit(ws, "A 1\nBOGUS 2\n") == 5

    def test_signed_hex_escape_exits_5(self, ws, capsys):
        # with 0xff in R, "\x-1" must not be read as byte -1 and wrap to it
        (ws / "ref").write_bytes(b"ban\xffana")
        self.compress(ws, b"banana")
        assert self.edit(ws, "A 1\nR 1 \\x-1\n") == 5
        assert "line 2" in capsys.readouterr().err

    def test_unprintable_bytes_are_hex_escaped_both_ways(self, ws, capsys):
        # a newline, a space, a backslash, NUL and DEL print as \xHH, and
        # R and I take each of them as a \xHH token
        src = b"ab\n \\\x00\x7fcd"
        (ws / "ref").write_bytes(src)
        self.compress(ws, src)
        ops = [("R", 1, 0x00), ("I", 9, 0x0A), ("R", 8, 0x20), ("I", 1, 0x5C), ("R", 3, 0x7F)]
        script = "A 3\nA 4\nA 5\nA 6\nA 7\nX 2 7\n" + "".join(
            f"{verb} {i} \\x{byte:02x}\n" for verb, i, byte in ops)
        assert self.edit(ws, script) == 0
        assert capsys.readouterr().out.splitlines()[-6:] == [
            "\\x0a", "\\x20", "\\x5c", "\\x00", "\\x7f", "b\\x0a\\x20\\x5c\\x00\\x7fc"]
        assert self.decompressed(ws) == b"\\\x00\x7f\n \\\x00\x7f \nd"

    def test_non_ascii_script_exits_5_with_line(self, ws, capsys):
        self.compress(ws, b"banana")
        (ws / "scr").write_bytes(b"A 1\n\nR 1 \xc3\xa9\n")
        assert run(ws, "edit", "--ref", ws / "ref", "--in", ws / "cov",
                   "--script", ws / "scr", "--out", ws / "cov2") == 5
        assert "line 3" in capsys.readouterr().err

    def test_failed_op_exits_6_with_line(self, ws, capsys):
        self.compress(ws, b"banana")
        assert self.edit(ws, "A 1\nD 99\n") == 6
        assert "line 2" in capsys.readouterr().err

    def test_non_maximal_cover_exits_4_and_writes_nothing(self, ws, capsys):
        # (1,2)+(3,4) spells "abcd", which occurs in R: replaying "R 1 a"
        # on this cover would write [(1,4), (5,6)], a cover verify rejects
        ref = b"abcdef"
        (ws / "ref").write_bytes(ref)
        (ws / "cov").write_bytes(encode_cover(6, fnv1a64(ref), [(1, 2), (3, 4), (5, 6)]))
        assert self.edit(ws, "R 1 a\n") == 4
        assert "cover not maximal: blocks (1,2) and (3,4)" in capsys.readouterr().err
        assert not (ws / "cov2").exists()

    def test_random_script_matches_oracle_replay(self, ws, capsys):
        rng = random.Random(11)
        ref = bytes(rng.choice(b"abc") for _ in range(60))
        (ws / "ref").write_bytes(ref)
        src = ref[5:45]
        self.compress(ws, src)

        lines, mirror_ops = [], []
        text_len = len(src)
        for _ in range(1000):
            kind = rng.choice("AXRID")
            if kind == "I":
                i, ch = rng.randrange(1, text_len + 2), rng.choice("abc")
                lines.append(f"I {i} {ch}")
                mirror_ops.append(("I", i, ord(ch)))
                text_len += 1
            elif text_len == 0:
                continue
            elif kind == "A":
                i = rng.randrange(1, text_len + 1)
                lines.append(f"A {i}")
                mirror_ops.append(("A", i))
            elif kind == "X":
                ln = rng.randrange(0, text_len + 1)
                i = rng.randrange(1, text_len - ln + 2)
                lines.append(f"X {i} {ln}")
                mirror_ops.append(("X", i, ln))
            elif kind == "R":
                i, ch = rng.randrange(1, text_len + 1), rng.choice("abc")
                lines.append(f"R {i} {ch}")
                mirror_ops.append(("R", i, ord(ch)))
            else:
                i = rng.randrange(1, text_len + 1)
                lines.append(f"D {i}")
                mirror_ops.append(("D", i))
                text_len -= 1

        assert self.edit(ws, "\n".join(lines) + "\n") == 0
        final, outputs = naive_edit_replay(src, mirror_ops)
        assert self.decompressed(ws) == final
        printed = capsys.readouterr().out.splitlines()
        # compress prints its summary first; reads follow in order
        assert printed[-len(outputs):] == [
            "".join(f"\\x{b:02x}" if not 0x21 <= b <= 0x7E or b == 0x5C else chr(b)
                    for b in out)
            for out in outputs
        ]


class TestIndexTooLargeOrOutOfMemory:
    """Exit 9 with one line on stderr, whichever stage of the index build
    fails: the suffix sort, the tree build for the maximality check or
    inside the first script edit, or a guard of the int32 arrays."""

    REF = b"mississippi"
    # two blocks, so verify and edit check a pair; or one, so only an edit
    # asks the tree
    COVERS = {"two blocks": [(1, 11), (1, 4)], "one block": [(1, 11)]}

    def run_9(self, ws, capsys, command: str, cover: str = "two blocks") -> str:
        (ws / "ref").write_bytes(self.REF)
        (ws / "src").write_bytes(self.REF)
        (ws / "cov").write_bytes(encode_cover(len(self.REF), fnv1a64(self.REF), self.COVERS[cover]))
        (ws / "scr").write_text("R 1 s\n")
        files = {"compress": ["--src", ws / "src", "--out", ws / "out"],
                 "verify": ["--in", ws / "cov"],
                 "edit": ["--in", ws / "cov", "--script", ws / "scr", "--out", ws / "out"]}
        assert run(ws, command, "--ref", ws / "ref", *files[command]) == 9
        err = capsys.readouterr().err
        assert err.startswith("drc: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and not (ws / "out").exists()
        return err

    @pytest.mark.parametrize("command", ["compress", "verify", "edit"])
    def test_a_suffix_sort_out_of_memory(self, ws, capsys, monkeypatch, command):
        def sort(codes):
            raise MemoryError  # as Python raises it: no message
        monkeypatch.setattr("drc.ref_index._sa_isa_lcp", sort)
        assert self.run_9(ws, capsys, command) == "drc: MemoryError\n"

    @pytest.mark.parametrize("cover", ["two blocks", "one block"])
    def test_a_tree_build_out_of_memory(self, ws, capsys, monkeypatch, cover):
        def nearest_smaller(rows, left):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        monkeypatch.setattr("drc.ref_index._nearest_smaller", nearest_smaller)
        assert "Unable to allocate" in self.run_9(ws, capsys, "edit", cover)

    @pytest.mark.parametrize("command", ["compress", "verify", "edit"])
    def test_a_reference_at_the_int32_limit(self, ws, capsys, monkeypatch, command):
        monkeypatch.setattr("drc.ref_index._INT32_LIMIT", 11)
        assert "reference of 11 bytes" in self.run_9(ws, capsys, command)

    @pytest.mark.parametrize("cover", ["two blocks", "one block"])
    @pytest.mark.parametrize("guard", ["tree nodes", "rank-set entries"])
    def test_a_tree_over_the_int32_limit(self, ws, capsys, monkeypatch, guard, cover):
        # not wrapped as a failed op (exit 6) when the first edit builds it
        ix = build_index(self.REF)
        ix._build_tree()
        limit = len(ix._depth) if guard == "tree nodes" else ix._du_off[ix.r]
        monkeypatch.setattr("drc.ref_index._INT32_LIMIT", limit)
        assert guard in self.run_9(ws, capsys, "edit", cover)


@pytest.mark.parametrize("case", ["queried index", "edit run"])
def test_a_dropped_index_leaves_no_cyclic_garbage(ws, case):
    # the index holds its concatenation tree itself, and the CLI
    # builds its parser once, so what a query or a `drc edit` run drops is
    # freed at once: with the collector off, it finds nothing afterwards
    (ws / "src").write_bytes(b"bananaban")
    (ws / "scr").write_text("R 2 n\nI 4 b\nD 1\nA 2\nX 1 3\n")
    assert run(ws, "compress", "--ref", ws / "ref", "--src", ws / "src",
               "--out", ws / "cov") == 0
    gc.collect()
    gc.disable()
    try:
        if case == "queried index":
            ix = build_index(b"banana" * 50)
            assert ix.substring_concat((1, 2), (3, 4)) is not None  # climbs the tree
            assert ix._first is not None
            del ix
        else:
            assert run(ws, "edit", "--ref", ws / "ref", "--in", ws / "cov",
                       "--script", ws / "scr", "--out", ws / "cov2") == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
