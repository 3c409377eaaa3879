"""The benchmark's three workloads.

Each workload is a single client in a closed loop: it sends the next
operation only when the previous one has returned.  Inputs come from the
workload seed alone; the program under test sees only the generated bytes.
Every read is checked against a plain-bytes mirror outside the timed
region, and the final state is checked in full when the loop ends.

A workload object offers:

* ``setup()``: index build, compression of the initial strings and one
  warm-up edit that pays the lazy LCP/suffix-tree build; timed by the caller.
* ``ops(state, rng, rec, more)``: run operations while ``more()`` is true,
  recording latencies and failures in ``rec``.
* ``check(state, rec)``: full-text and maximality checks; returns the
  cover ratio (block count over greedy block count of the final text).
* ``snapshot(state)`` / ``restore(snap)``: an identical fresh state, so the
  traced run can replay one fixed operation sequence several times.
* ``fingerprint(state)``: exact figures two replays must agree on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import time

import drc.cover_engine as cover_engine
import drc.drc_cli as drc_cli
import drc.multi_cover as multi_cover
import drc.ref_index as ref_index
from drc.errors import DrcError
from drc.oracles import naive_decompress, naive_edit_replay

from tracing import CS_EDITS, CS_READS, patched

clock = time.perf_counter
CONCAT_BUDGET = 8  # guaranteed bound on concatenation queries per edit
ST_BUDGET = 10  # guaranteed bound on SumTree operations per edit


class Recorder:
    """Latencies by op class, plus attempts, failures and per-edit counts."""

    def __init__(self):
        self.lat = {"read": [], "edit": [], "splice": []}
        self.walls: list = []  # seconds per ``drc edit`` run
        self.tick = lambda: None  # the speed probe, run after each recorded op
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        self.st_ops: list = []  # CompressedString.last_st_ops per edit
        self.concat_calls: list = []  # CompressedString.last_concat_calls per edit

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(what)

    def add(self, kind: str, seconds: float) -> None:
        """Record one op's latency; the probe runs after it, outside the
        timed region."""
        self.lat[kind].append(seconds)
        self.tick()

    def edit_counts(self, st_ops: int, concat_calls: int) -> None:
        self.st_ops.append(st_ops)
        self.concat_calls.append(concat_calls)
        if st_ops > ST_BUDGET or concat_calls > CONCAT_BUDGET:
            self.fail(f"edit over budget: {st_ops} SumTree ops, {concat_calls} concat queries")

    @property
    def ops_done(self) -> int:
        return sum(len(v) for v in self.lat.values())


# ----------------------------------------------------------------------
# input generators (the acceptance suite's, parameterised by size)

LEXICON = (
    "the a and of to in is was for on that with as at by it from or "
    "while where stream chunk index block run window merge split tree "
    "branch leaf anchor probe query answer byte offset field word"
).split()


def acgt_text(rng: random.Random, size: int) -> bytes:
    return bytes(b"acgt"[rng.randrange(4)] for _ in range(size))


def lexicon_text(rng: random.Random, size: int) -> bytes:
    out = bytearray()
    while len(out) < size:
        out += rng.choice(LEXICON).encode()
        out += b"\n" if rng.random() < 0.08 else b" "
    return bytes(out[:size])


def stitch(rng: random.Random, ref: bytes, size: int, lo: int, hi: int,
           alphabet: bytes = b"") -> bytes:
    """``size`` bytes of reference pieces of length lo..hi, each followed
    by one random byte of ``alphabet`` when one is given."""
    out = bytearray()
    while len(out) < size:
        s = rng.randrange(len(ref))
        out += ref[s:s + lo + rng.randrange(hi - lo + 1)]
        if alphabet:
            out.append(alphabet[rng.randrange(len(alphabet))])
    return bytes(out[:size])


def adjacent_pairs_maximal(index, blocks) -> bool:
    return all(index.substring_concat(a, b) is None for a, b in zip(blocks, blocks[1:]))


def cover_ratio(rec, blocks: int, greedy: int) -> float:
    """Block count over greedy block count; a maximal cover has at most
    ``2 * greedy - 1`` blocks, and more counts as a failure."""
    if blocks > 2 * greedy - 1:
        rec.fail(f"{blocks} blocks, over twice the greedy {greedy}")
    return blocks / greedy


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _dna_kind(rng: random.Random) -> int:
    """0 access (3/10), 1 extract (1/10), 2 replace, 3 insert, 4 delete
    (1/5 each).  Access and extract costs differ, and an even split of
    the two would put the read median in the gap between them."""
    roll = rng.randrange(10)
    return 0 if roll < 3 else 1 if roll == 3 else 2 + (roll - 4) // 2


# ----------------------------------------------------------------------

class Workload:
    """Defaults shared by the workloads."""

    trace_ops = 0  # ops of each pass of the traced run
    setup_reps = 3  # set-ups of an untraced run; setup_s is their median

    def check_setup(self, state, rec) -> None:
        """Checks of what set-up produced, beyond what ``check`` covers."""

    def close(self) -> None:
        """Remove what the workload wrote."""

    def fixed_ops(self, state, rng, rec) -> None:
        """Exactly ``trace_ops`` ops, for the traced run's passes."""
        left = [self.trace_ops]

        def more():
            left[0] -= 1
            return left[0] >= 0

        self.ops(state, rng, rec, more)


class EditDna(Workload):
    """One CompressedString over a random ACGT reference."""

    name = "edit-dna"
    why = ("SumTree, treap and substring_concat do the work of each point edit; "
           "2^20 chars, ~47k blocks over a 100 kB ACGT reference")
    trace_ops = 3000

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        r, n = (2_000, 1 << 12) if tiny else (100_000, 1 << 20)
        if tiny:
            self.trace_ops = 300
        self.reference = acgt_text(rng, r)
        self.source = stitch(rng, self.reference, n, 4, 40)
        self.sizes = {"reference_bytes": r, "source_bytes": n, "piece_bytes": [4, 40]}
        self.mix = "3/10 access, 1/10 extract of 64, 1/5 each of replace, insert, delete"

    def setup(self):
        index = ref_index.build_index(self.reference)
        cs = cover_engine.compress(index, self.source)
        cs.replace(1, cs.access(1))  # pays the lazy LCP and suffix-tree build
        return {"index": index, "cs": cs, "mirror": bytearray(self.source)}

    def snapshot(self, state):
        return state["index"], state["cs"].blocks(), bytes(state["mirror"])

    def restore(self, snap):
        index, blocks, text = snap
        return {"index": index, "cs": cover_engine.CompressedString(index, blocks),
                "mirror": bytearray(text)}

    def ops(self, state, rng, rec, more):
        cs, mirror, ref = state["cs"], state["mirror"], self.reference
        r = len(ref)
        while more():
            n = len(mirror)
            kind = _dna_kind(rng)
            if kind == 4 and n <= 1:
                kind = 3
            rec.attempted += 1
            try:
                if kind == 0:
                    i = rng.randrange(1, n + 1)
                    t0 = clock()
                    got = cs.access(i)
                    dt = clock() - t0
                    rec.add("read", dt)
                    if got != mirror[i - 1]:
                        rec.fail(f"access({i})")
                elif kind == 1:
                    i = rng.randrange(1, n + 1)
                    ell = min(64, n - i + 1)
                    t0 = clock()
                    got = cs.extract(i, ell)
                    dt = clock() - t0
                    rec.add("read", dt)
                    if got != mirror[i - 1:i - 1 + ell]:
                        rec.fail(f"extract({i}, {ell})")
                else:
                    c = ref[rng.randrange(r)]
                    if kind == 2:
                        i = rng.randrange(1, n + 1)
                        t0 = clock()
                        cs.replace(i, c)
                        dt = clock() - t0
                        mirror[i - 1] = c
                    elif kind == 3:
                        i = rng.randrange(1, n + 2)
                        t0 = clock()
                        cs.insert(i, c)
                        dt = clock() - t0
                        mirror.insert(i - 1, c)
                    else:
                        i = rng.randrange(1, n + 1)
                        t0 = clock()
                        cs.delete(i)
                        dt = clock() - t0
                        del mirror[i - 1]
                    rec.add("edit", dt)
                    rec.edit_counts(cs.last_st_ops, cs.last_concat_calls)
            except DrcError as exc:
                rec.fail(f"{type(exc).__name__}: {exc}")
                return

    def final_text(self, state) -> bytes:
        return bytes(state["mirror"])

    def check(self, state, rec):
        cs, index, text = state["cs"], state["index"], self.final_text(state)
        if cs.extract(1, len(cs)) != text:
            rec.fail("final text differs from the mirror")
        blocks = cs.blocks()
        if not adjacent_pairs_maximal(index, blocks):
            rec.fail("final cover is not maximal")
        return cover_ratio(rec, len(blocks), len(index.factorize(text)))

    def fingerprint(self, state):
        return {"blocks": state["cs"].block_count, "text": digest(self.final_text(state))}


class ForestText(Workload):
    """One CoverForest of many strings over a lexicon-text reference."""

    name = "forest-text"
    why = ("AVL trees, _fixpoint and substring_concat under split/concat; never touches "
           "SumTree, PackedSums or the treap, so partial-sums changes must not move it")
    trace_ops = 6000

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        r, count, size = (4_000, 8, 512) if tiny else (200_000, 64, 16 * 1024)
        if tiny:
            self.trace_ops = 300
        self.low, self.high = count // 2, count + count // 2
        self.reference = lexicon_text(rng, r)
        self.alphabet = bytes(sorted(set(self.reference)))
        self.sources = [stitch(rng, self.reference, size, 20, 400, self.alphabet)
                        for _ in range(count)]
        self.sizes = {"reference_bytes": r, "strings": count, "string_bytes": size,
                      "piece_bytes": [20, 400], "handles_held": [self.low, self.high]}
        self.mix = ("1/5 reads of 64 chars by access, 2/5 point edits (replace, insert, "
                    "delete), 2/5 split or concat")

    def setup(self):
        index = ref_index.build_index(self.reference)
        forest = multi_cover.CoverForest(index)
        handles = [forest.add(src) for src in self.sources]
        mirror = dict(zip(handles, self.sources))
        forest.replace(handles[0], 1, forest.access(handles[0], 1))  # lazy builds
        return {"index": index, "forest": forest, "handles": handles, "mirror": mirror}

    def snapshot(self, state):
        forest = state["forest"]
        return state["index"], [(forest.blocks(h), state["mirror"][h]) for h in state["handles"]]

    def restore(self, snap):
        index, strings = snap
        forest = multi_cover.CoverForest(index)
        handles, mirror = [], {}
        for blocks, text in strings:
            h = forest.add_blocks(blocks)
            handles.append(h)
            mirror[h] = text
        return {"index": index, "forest": forest, "handles": handles, "mirror": mirror}

    def ops(self, state, rng, rec, more):
        forest, handles, mirror = state["forest"], state["handles"], state["mirror"]
        alpha = self.alphabet
        while more():
            slot = rng.randrange(len(handles))
            h = handles[slot]
            s = mirror[h]
            n = len(s)
            roll = rng.randrange(5)
            rec.attempted += 1
            try:
                if roll == 0:
                    # 64 consecutive chars; the forest has no range read
                    j = rng.randrange(1, n + 1)
                    end = min(j + 64, n + 1)
                    t0 = clock()
                    got = [forest.access(h, k) for k in range(j, end)]
                    dt = clock() - t0
                    rec.add("read", dt)
                    if bytes(got) != s[j - 1:end - 1]:
                        rec.fail(f"access({h}, {j}..{end - 1})")
                elif roll <= 2:
                    kind = rng.randrange(3)
                    c = alpha[rng.randrange(len(alpha))]
                    if kind == 2 and n <= 1:
                        kind = 1  # strings never become empty
                    if kind == 0:
                        j = rng.randrange(1, n + 1)
                        t0 = clock()
                        forest.replace(h, j, c)
                        dt = clock() - t0
                        mirror[h] = s[:j - 1] + bytes((c,)) + s[j:]
                    elif kind == 1:
                        j = rng.randrange(1, n + 2)
                        t0 = clock()
                        forest.insert(h, j, c)
                        dt = clock() - t0
                        mirror[h] = s[:j - 1] + bytes((c,)) + s[j - 1:]
                    else:
                        j = rng.randrange(1, n + 1)
                        t0 = clock()
                        forest.delete(h, j)
                        dt = clock() - t0
                        mirror[h] = s[:j - 1] + s[j:]
                    rec.add("edit", dt)
                else:
                    count = len(handles)
                    split = count <= self.low or (count < self.high and rng.randrange(2) == 0)
                    if split and n >= 2:
                        j = rng.randrange(2, n + 1)
                        t0 = clock()
                        ha, hb = forest.split(h, j)
                        dt = clock() - t0
                        del mirror[h]
                        mirror[ha], mirror[hb] = s[:j - 1], s[j - 1:]
                        handles[slot] = ha
                        handles.append(hb)
                    else:
                        other = rng.randrange(count - 1)
                        other += other >= slot
                        hb = handles[other]
                        t0 = clock()
                        hc = forest.concat(h, hb)
                        dt = clock() - t0
                        mirror[hc] = s + mirror.pop(hb)
                        del mirror[h]
                        handles[slot] = hc
                        handles.pop(other)
                    rec.add("splice", dt)
            except DrcError as exc:
                rec.fail(f"{type(exc).__name__}: {exc}")
                return

    def final_text(self, state) -> bytes:
        return b"\0".join(state["mirror"][h] for h in state["handles"])

    def check(self, state, rec):
        forest, index, mirror = state["forest"], state["index"], state["mirror"]
        blocks = greedy = 0
        for h in state["handles"]:
            if forest.decompress(h) != mirror[h]:
                rec.fail(f"string {h} differs from its mirror")
            bl = forest.blocks(h)
            if not adjacent_pairs_maximal(index, bl):
                rec.fail(f"cover of string {h} is not maximal")
            blocks += len(bl)
            greedy += len(index.factorize(mirror[h]))
        try:
            forest.validate()
        except AssertionError as exc:
            rec.fail(f"forest structure: {exc}")
        return cover_ratio(rec, blocks, greedy)

    def fingerprint(self, state):
        forest = state["forest"]
        return {"blocks": sum(forest.block_count(h) for h in state["handles"]),
                "text": digest(self.final_text(state))}


def _escape(byte: int) -> str:
    """How the CLI prints a result byte (see the README's script format)."""
    return chr(byte) if 0x21 <= byte <= 0x7E and byte != 0x5C else f"\\x{byte:02x}"


class CliRevision(Workload):
    """The ``drc`` tool, run in-process through ``drc.drc_cli.main``."""

    name = "cli-revision"
    why = ("file-level use: index build, factorization, FNV, codec and verify's scan; "
           "a 256 KiB revision of a 256 KiB text reference")
    script_ops = 6000
    setup_reps = 9  # a set-up takes ~1 s; the median of three spread by 20-25% over seeds
    trace_ops = 2000  # script ops of the traced run's one ``drc edit``

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = random.Random(seed)
        r = 8 * 1024 if tiny else 256 * 1024
        if tiny:
            self.script_ops = self.trace_ops = 300
        self.reference = lexicon_text(rng, r)
        self.alphabet = bytes(sorted(set(self.reference)))
        self.source = stitch(rng, self.reference, r, 20, 400, self.alphabet)
        self.sizes = {"reference_bytes": r, "source_bytes": r, "piece_bytes": [20, 400],
                      "script_ops": self.script_ops}
        self.mix = ("compress, verify, decompress, then edit scripts of 3/10 A, 1/10 X, "
                    "1/5 each of R, I, D")
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.path = {k: os.path.join(workdir, k)
                     for k in ("ref", "src", "cov", "out", "script", "edited")}
        with open(self.path["ref"], "wb") as fh:
            fh.write(self.reference)
        with open(self.path["src"], "wb") as fh:
            fh.write(self.source)
        self.last_result = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _main(self, *argv) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = drc_cli.main(list(argv))
        return rc, out.getvalue()

    def setup(self):
        p = self.path
        codes = [
            self._main("compress", "--ref", p["ref"], "--src", p["src"], "--out", p["cov"])[0],
            self._main("verify", "--ref", p["ref"], "--in", p["cov"])[0],
            self._main("decompress", "--ref", p["ref"], "--in", p["cov"], "--out", p["out"])[0],
        ]
        return {"codes": codes}

    def check_setup(self, state, rec) -> None:
        rec.attempted += 3
        for rc in state["codes"]:
            if rc != 0:
                rec.fail(f"exit code {rc}")
        with open(self.path["out"], "rb") as fh:
            if fh.read() != self.source:
                rec.fail("decompress output differs from the source")

    def snapshot(self, state):
        return state

    def restore(self, snap):
        return snap

    def _script(self, rng, nops: int) -> tuple:
        n, alpha, ops, lines = len(self.source), self.alphabet, [], []
        for _ in range(nops):
            kind = _dna_kind(rng)
            if kind == 4 and n <= 1:
                kind = 3
            i = rng.randrange(1, n + 2 if kind == 3 else n + 1)
            if kind == 0:
                ops.append(("A", i))
            elif kind == 1:
                ops.append(("X", i, min(64, n - i + 1)))
            elif kind == 4:
                ops.append(("D", i))
                n -= 1
            else:
                c = alpha[rng.randrange(len(alpha))]
                ops.append(("R" if kind == 2 else "I", i, c))
                n += kind == 3
        for op in ops:
            lines.append(" ".join(str(x) for x in op[:2]) + (
                "" if len(op) == 2 else " " + (str(op[2]) if op[0] == "X" else _escape(op[2]))))
        return ops, "\n".join(lines) + "\n"

    def ops(self, state, rng, rec, more):
        """Each pass runs ``drc edit`` on a fresh script."""
        while more():
            self._edit_run(rng, rec, self.script_ops)

    def fixed_ops(self, state, rng, rec):
        self._edit_run(rng, rec, self.trace_ops)

    def _edit_run(self, rng, rec, nops: int) -> None:
        """One ``drc edit`` run.  Script ops are timed where the CLI calls
        CompressedString.  The run's first edit builds the index's LCP
        array and suffix tree, seconds of work that ``drc_cli.index_s``
        reports; it is left out of the latencies."""
        Cs = cover_engine.CompressedString
        seen_edit = [False]

        def timed(fn, kind, edit):
            def call(cs, *args):
                t0 = clock()
                result = fn(cs, *args)
                dt = clock() - t0
                if edit:
                    rec.edit_counts(cs.last_st_ops, cs.last_concat_calls)
                    if not seen_edit[0]:
                        seen_edit[0] = True
                        return result
                rec.add(kind, dt)
                return result
            return call

        p = self.path
        ops, text = self._script(rng, nops)
        with open(p["script"], "w") as fh:
            fh.write(text)
        with patched(Cs, {m: timed(Cs.__dict__[m], "read" if m in CS_READS else "edit",
                                   m in CS_EDITS) for m in CS_READS + CS_EDITS}):
            t0 = clock()
            rc, printed = self._main("edit", "--ref", p["ref"], "--in", p["cov"],
                                     "--script", p["script"], "--out", p["edited"])
            rec.walls.append(clock() - t0)
        rec.attempted += len(ops) + 1
        self._check_edit(ops, rc, printed, rec)

    def _check_edit(self, ops, rc, printed, rec) -> None:
        if rc != 0:
            rec.fail(f"edit exit code {rc}")
            return
        text, results = naive_edit_replay(self.source, ops)
        want = ["".join(_escape(b) for b in res) for res in results]
        if printed.splitlines() != want:
            rec.fail("printed A/X results differ from the replay")
        edited = self.path["edited"]
        with open(edited, "rb") as fh:
            blocks = drc_cli.decode_cover(fh.read())[2]
        if naive_decompress(self.reference, blocks) != text:
            rec.fail("edited cover differs from the replay")
        rc = self._main("verify", "--ref", self.path["ref"], "--in", edited)[0]
        if rc != 0:
            rec.fail(f"verify of the edited cover: exit code {rc}")
        self.last_result = (blocks, text)

    def check(self, state, rec):
        blocks, text = self.last_result
        index = ref_index.build_index(self.reference)
        return cover_ratio(rec, len(blocks), len(index.factorize(text)))

    def fingerprint(self, state):
        blocks, text = self.last_result
        return {"blocks": len(blocks), "text": digest(text)}


WORKLOADS = {w.name: w for w in (EditDna, ForestText, CliRevision)}
