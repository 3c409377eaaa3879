"""Acceptance sweep: the ten guarantees the package ships under.

One test per guarantee, in a fixed order, so a verbose run reads as a
checklist.  Every test pins its own wall-clock budget; the editor tests
share a single instrumented run through a module fixture.
"""

from __future__ import annotations

import itertools
import random
import re
import statistics
import time
import warnings
from collections import deque

import pytest

from drc.cover_engine import compress
from drc.drc_cli import main
from drc.multi_cover import (
    CoverForest,
    mc_access,
    mc_concat,
    mc_delete,
    mc_insert,
    mc_replace,
    mc_split,
)
from drc.oracles import (
    NaivePartialSums,
    naive_greedy_cover,
    naive_maximality_check,
    naive_substring_concat,
)
from drc.partial_sums import SumTree
from drc.partial_sums_small import PackedSums, PsConfig
from drc.ref_index import build_index
from support import (
    DEMO_AFTER_DIVIDE,
    DEMO_AFTER_MERGE,
    DEMO_CONFIG,
    DEMO_START,
    DEMO_Z,
    MUTATOR_KINDS,
    apply_op,
    resolve_op,
)

CONCAT_BUDGET = 4  # len(window) - 1 for a window of at most 5 blocks
ST_BUDGET = 10


def _sample_layout(ps: PackedSums) -> dict:
    return dict(
        sums=ps.prefix_sums(),
        reps=ps.representatives,
        flags=ps.run_flags,
        counts=ps.run_prefix_counts,
        offsets=ps.offsets,
    )


def test_packed_layout_worked_example():
    """The hand-checked 19-entry packing, through divide and merge."""
    t0 = time.perf_counter()
    ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
    assert _sample_layout(ps) == DEMO_START
    ps.divide(8, 3)
    assert _sample_layout(ps) == DEMO_AFTER_DIVIDE
    ps.merge(12)
    assert _sample_layout(ps) == DEMO_AFTER_MERGE
    assert ps.values()[11] == 4
    assert time.perf_counter() - t0 < 1.0


# --- partial sums vs oracle ----------------------------------------------

TREE_B4 = PsConfig(w=64, delta=2, B=4, F=16, run_gap=4)


def _compare_all_queries(subject, oracle) -> None:
    assert subject.values() == oracle.values()
    n = len(oracle.z)
    for j in range(1, n + 1):
        assert subject.sum(j) == oracle.sum(j)
    total = oracle.total
    assert subject.total == total
    for t in range(1, total + 1):
        assert subject.search(t) == oracle.search(t)


def _random_op_storm() -> None:
    # 10^5 uniform ops at full size; answers checked on the spot, the
    # whole sequence cross-checked at the end.
    rng = random.Random(0xC2)
    cap = 10_000
    init = [rng.randrange(1 << 40) for _ in range(cap)]
    tree = SumTree(init)
    oracle = NaivePartialSums(init, capacity=cap)
    kinds = ("sum", "search", "update", "divide", "merge", "insert", "delete")
    for step in range(100_000):
        kind = kinds[rng.randrange(7)]
        z = oracle.z
        n = len(z)
        if kind == "sum":
            i = rng.randrange(1, n + 1)
            assert tree.sum(i) == oracle.sum(i), f"sum({i}) at step {step}"
        elif kind == "search":
            total = oracle.total
            if total < 1:
                continue
            t = rng.randrange(1, total + 1)
            assert tree.search(t) == oracle.search(t), f"search({t}) at step {step}"
        elif kind == "update":
            i = rng.randrange(1, n + 1)
            lo = -min(3, z[i - 1])
            d = lo + rng.randrange(3 - lo + 1)
            tree.update(i, d)
            oracle.update(i, d)
        elif kind == "divide":
            if n >= cap:
                continue
            i = rng.randrange(1, n + 1)
            t = rng.randrange(z[i - 1] + 1)
            tree.divide(i, t)
            oracle.divide(i, t)
        elif kind == "merge":
            if n < 2:
                continue
            i = rng.randrange(1, n)
            tree.merge(i)
            oracle.merge(i)
        elif kind == "insert":
            if n >= cap:
                continue
            i = rng.randrange(1, n + 2)
            d = rng.randrange(4)
            tree.insert(i, d)
            oracle.insert(i, d)
        else:
            # delete needs a small entry; probe a few random spots
            picks = [rng.randrange(1, n + 1) for _ in range(4)]
            small = [i for i in picks if z[i - 1] < 4]
            if not small:
                continue
            tree.delete(small[0])
            oracle.delete(small[0])
    assert tree.values() == oracle.values()


def _every_mutator_word() -> None:
    # All 5^1..5^6 mutator-kind words, arguments fixed by a per-word
    # seed, replayed against both implementations from the same start.
    init = [3, 1, 4, 1]
    for idx, word in enumerate(
        w for k in range(1, 7) for w in itertools.product(range(5), repeat=k)
    ):
        rng = random.Random(0x2B11 + 7919 * idx)
        oracle = NaivePartialSums(list(init), capacity=16)
        tree = SumTree(init, config=TREE_B4)
        packed = PackedSums(init, config=DEMO_CONFIG)
        for kid in word:
            op = resolve_op(
                MUTATOR_KINDS[kid],
                rng.randrange(1 << 16),
                rng.randrange(1 << 16),
                oracle.values(),
                capacity=16,
            )
            if op is None:
                continue
            apply_op(oracle, op)
            apply_op(tree, op)
            apply_op(packed, op)
            _compare_all_queries(tree, oracle)
            _compare_all_queries(packed, oracle)


def _legal_small_ops(z: list) -> list:
    # Complete op inventory over states with <= 4 entries of value <= 4.
    n = len(z)
    ops = []
    for i, v in enumerate(z, 1):
        for d in range(-min(3, v), 4):
            if d and v + d <= 4:
                ops.append(("update", i, d))
        if n < 4:
            for t in range(v + 1):
                ops.append(("divide", i, t))
        if v < 4:
            ops.append(("delete", i))
    if n < 4:
        for i in range(1, n + 2):
            for d in range(4):
                ops.append(("insert", i, d))
    for i in range(1, n):
        if z[i - 1] + z[i] <= 4:
            ops.append(("merge", i))
    return ops


def _every_argument_to_depth_three() -> None:
    # Breadth-first over every legal argument combination, each path
    # replayed from its initial state so no comparison is skipped.
    for init in ([], [0], [1], [2], [3], [4]):
        todo = deque([()])
        while todo:
            path = todo.popleft()
            oracle = NaivePartialSums(list(init), capacity=8)
            tree = SumTree(init, config=TREE_B4)
            for op in path:
                apply_op(oracle, op)
                apply_op(tree, op)
            _compare_all_queries(tree, oracle)
            if len(path) < 3:
                for op in _legal_small_ops(oracle.z):
                    todo.append(path + (op,))


def test_partial_sums_agree_with_oracle():
    """Random storm plus two exhaustive small sweeps, all seven ops."""
    t0 = time.perf_counter()
    _random_op_storm()
    _every_mutator_word()
    _every_argument_to_depth_three()
    assert time.perf_counter() - t0 < 60.0


# --- substring concatenation ----------------------------------------------


def test_substring_concat_exhaustive_pairs():
    """Every pair of short substrings over 50 small references.

    Answers depend only on the substrings' contents, so each distinct
    content is queried once through a representative interval.
    """
    t0 = time.perf_counter()
    rng = random.Random(0xC3)
    hits = misses = 0
    for trial in range(50):
        r = rng.randrange(8, 61)
        sigma = (2, 3, 4)[trial % 3]
        alpha = bytes(sorted(rng.sample(range(97, 123), sigma)))
        ref = bytes(alpha[rng.randrange(sigma)] for _ in range(r))
        index = build_index(ref)
        groups: dict = {}
        for s in range(1, r + 1):
            for e in range(s, min(s + 6, r + 1)):
                groups.setdefault(ref[s - 1:e], []).append((s, e))
        reps = [(rng.choice(iv), content) for content, iv in sorted(groups.items())]
        for x, cx in reps:
            for y, cy in reps:
                got = index.substring_concat(x, y)
                want = naive_substring_concat(ref, x, y)
                assert (got is None) == (want is None), (ref, x, y, got, want)
                if got is None:
                    misses += 1
                else:
                    both = cx + cy
                    assert ref[got - 1:got - 1 + len(both)] == both, (ref, x, y, got)
                    hits += 1
    assert hits and misses
    assert time.perf_counter() - t0 < 60.0


# --- the editor, its invariants, and its budgets ---------------------------

# (seed, r, initial N, ops, alphabet, deep) -- deep instances also check
# maximality and the greedy size bound after every op.
EDIT_PLAN = (
    (0xE1, 2000, 2000, 3000, 4, False),
    (0xE2, 1500, 1200, 2000, 6, False),
    (0xE3, 300, 600, 2500, 4, True),
    (0xE4, 120, 250, 2500, 3, True),
)


@pytest.fixture(scope="module")
def edit_run():
    out = {
        "ops": 0,
        "deep_ops": 0,
        "worst_concat": 0,
        "worst_st": 0,
        "mirror_diffs": [],
        "maximality_breaks": [],
        "bound_breaks": [],
    }
    t0 = time.perf_counter()
    for seed, r, n0, nops, sigma, deep in EDIT_PLAN:
        rng = random.Random(seed)
        alpha = bytes(sorted(rng.sample(range(97, 123), sigma)))
        ref = bytes(alpha[rng.randrange(sigma)] for _ in range(r))
        index = build_index(ref)
        mirror = bytearray(ref[rng.randrange(r)] for _ in range(n0))
        cs = compress(index, bytes(mirror))
        kinds = ("access", "extract", "replace", "insert", "delete")
        for step in range(nops):
            n = len(mirror)
            kind = kinds[rng.randrange(5)]
            if kind == "delete" and n <= 1:
                kind = "insert"
            if kind == "access":
                i = rng.randrange(1, n + 1)
                if cs.access(i) != mirror[i - 1]:
                    out["mirror_diffs"].append((seed, step, kind))
            elif kind == "extract":
                i = rng.randrange(1, n + 1)
                ell = rng.randrange(0, n - i + 2)
                if cs.extract(i, ell) != bytes(mirror[i - 1:i - 1 + ell]):
                    out["mirror_diffs"].append((seed, step, kind))
            else:
                if kind == "replace":
                    i = rng.randrange(1, n + 1)
                    c = ref[rng.randrange(r)]
                    cs.replace(i, c)
                    mirror[i - 1] = c
                elif kind == "insert":
                    i = rng.randrange(1, n + 2)
                    c = ref[rng.randrange(r)]
                    cs.insert(i, c)
                    mirror[i - 1:i - 1] = bytes([c])
                else:
                    i = rng.randrange(1, n + 1)
                    cs.delete(i)
                    del mirror[i - 1]
                out["worst_concat"] = max(out["worst_concat"], cs.last_concat_calls)
                out["worst_st"] = max(out["worst_st"], cs.last_st_ops)
            if cs.extract(1, len(mirror)) != bytes(mirror):
                out["mirror_diffs"].append((seed, step, "full"))
            if deep:
                blocks = cs.blocks()
                if not naive_maximality_check(ref, blocks):
                    out["maximality_breaks"].append((seed, step))
                limit = 2 * len(naive_greedy_cover(ref, bytes(mirror))) - 1
                if len(blocks) > limit:
                    out["bound_breaks"].append((seed, step))
                out["deep_ops"] += 1
            out["ops"] += 1
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_edits_match_plain_string_oracle(edit_run):
    """Full-text agreement with a bytearray after every one of 10^4 ops."""
    assert edit_run["ops"] == 10_000
    assert edit_run["mirror_diffs"] == []
    assert edit_run["elapsed"] < 120.0


def test_covers_stay_maximal_under_edits(edit_run):
    assert edit_run["deep_ops"] == 5_000
    assert edit_run["maximality_breaks"] == []


def test_cover_within_twice_greedy(edit_run):
    """Block count never exceeds twice the greedy cover size minus one."""
    assert edit_run["bound_breaks"] == []


def test_per_edit_operation_budgets(edit_run):
    assert 0 < edit_run["worst_concat"] <= CONCAT_BUDGET
    assert 0 < edit_run["worst_st"] <= ST_BUDGET


# --- many strings, one forest ----------------------------------------------


def test_forest_ops_match_oracles():
    """10^4 forest ops with splits and concats against plain strings."""
    t0 = time.perf_counter()
    rng = random.Random(0xC8)
    r = 500
    alpha = b"abcdefgh"
    ref = bytes(alpha[rng.randrange(8)] for _ in range(r))
    index = build_index(ref)
    forest = CoverForest(index)
    mirror: dict = {}

    def fresh_src(max_len: int) -> bytes:
        n = rng.randrange(1, max_len + 1)
        out = bytearray()
        while len(out) < n:
            s = rng.randrange(r)
            out += ref[s:s + rng.randrange(1, 30)]
        return bytes(out[:n])

    def check(h: int) -> None:
        assert forest.decompress(h) == mirror[h]
        assert naive_maximality_check(ref, forest.blocks(h))

    for _ in range(8):
        src = fresh_src(400)
        mirror[forest.add(src)] = src

    done = 0
    while done < 10_000:
        handles = list(mirror)
        kind = rng.randrange(8)
        h = handles[rng.randrange(len(handles))]
        n = len(mirror[h])
        if kind == 0 and len(mirror) < 20:
            src = fresh_src(400)
            hn = forest.add(src)
            mirror[hn] = src
            check(hn)
        elif kind == 1 and n:
            j = rng.randrange(1, n + 1)
            assert mc_access(forest, h, j) == mirror[h][j - 1]
        elif kind == 2 and n:
            j = rng.randrange(1, n + 1)
            c = ref[rng.randrange(r)]
            mc_replace(forest, h, j, c)
            mirror[h] = mirror[h][:j - 1] + bytes([c]) + mirror[h][j:]
            check(h)
        elif kind == 3:
            j = rng.randrange(1, n + 2)
            c = ref[rng.randrange(r)]
            mc_insert(forest, h, j, c)
            mirror[h] = mirror[h][:j - 1] + bytes([c]) + mirror[h][j - 1:]
            check(h)
        elif kind == 4 and n > 1:
            j = rng.randrange(1, n + 1)
            mc_delete(forest, h, j)
            mirror[h] = mirror[h][:j - 1] + mirror[h][j:]
            check(h)
        elif kind == 5 and len(mirror) >= 2:
            hb = handles[rng.randrange(len(handles))]
            if hb == h:
                continue
            hc = mc_concat(forest, h, hb)
            mirror[hc] = mirror.pop(h) + mirror.pop(hb)
            check(hc)
        elif kind == 6 and n > 1 and len(mirror) < 20:
            j = rng.randrange(2, n + 1)
            ha, hb = mc_split(forest, h, j)
            s = mirror.pop(h)
            mirror[ha], mirror[hb] = s[:j - 1], s[j - 1:]
            check(ha)
            check(hb)
        else:
            continue
        done += 1
        if done % 250 == 0:
            for hh in mirror:
                check(hh)
            forest.validate()
    for hh in mirror:
        check(hh)
    forest.validate()
    assert time.perf_counter() - t0 < 120.0


# --- command line round trips ----------------------------------------------


def _roundtrip(tmp_path, capsys, tag: str, ref: bytes, src: bytes) -> str:
    refp = tmp_path / f"{tag}.ref"
    srcp = tmp_path / f"{tag}.src"
    covp = tmp_path / f"{tag}.cov"
    outp = tmp_path / f"{tag}.out"
    refp.write_bytes(ref)
    srcp.write_bytes(src)
    capsys.readouterr()  # drop output from any earlier subcommands
    argv = ["compress", "--ref", str(refp), "--src", str(srcp), "--out", str(covp)]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert main(["verify", "--ref", str(refp), "--in", str(covp)]) == 0
    assert main(["decompress", "--ref", str(refp), "--in", str(covp),
                 "--out", str(outp)]) == 0
    assert outp.read_bytes() == src
    return report


def _make_text(rng: random.Random, size: int) -> bytes:
    lexicon = (
        "the a and of to in is was for on that with as at by it from or "
        "while where stream chunk index block run window merge split tree "
        "branch leaf anchor probe query answer byte offset field word"
    ).split()
    out = bytearray()
    while len(out) < size:
        out += rng.choice(lexicon).encode()
        out += b"\n" if rng.random() < 0.08 else b" "
    return bytes(out[:size])


def test_cli_round_trip_corpora(tmp_path, capsys):
    """compress -> verify -> decompress is byte-identical on three corpora."""
    t0 = time.perf_counter()
    rng = random.Random(0xC9)
    meg = 1 << 20

    # a) incompressible bytes, self-referential
    blob = rng.randbytes(meg)
    report = _roundtrip(tmp_path, capsys, "blob", blob, blob)
    assert "n=1 " in report

    # b) text with 1000 point mutations; block count stays near twice
    # the number of preserved stretches
    text = _make_text(rng, meg)
    mutated = bytearray(text)
    alphabet = sorted(set(text))
    for pos in rng.sample(range(meg), 1000):
        mutated[pos] = alphabet[rng.randrange(len(alphabet))]
    report = _roundtrip(tmp_path, capsys, "text", text, bytes(mutated))
    n = int(re.search(r"\bn=(\d+)\b", report).group(1))
    assert n <= 2 * (1000 + 1), n

    # c) empty source
    _roundtrip(tmp_path, capsys, "empty", b"reference material\n", b"")

    assert time.perf_counter() - t0 < 30.0


# --- scaling ----------------------------------------------------------------


def test_per_op_latency_scales_gently():
    """Median op latency from 2^10 to 2^20 chars stays within 20x.

    Logarithmic cost should land far below that; past 10x we warn but
    let the run pass, past 20x it fails.
    """
    rng = random.Random(0xA10)
    r = 100_000
    ref = bytes(b"acgt"[rng.randrange(4)] for _ in range(r))
    index = build_index(ref)

    def make_source(size: int) -> bytes:
        out = bytearray()
        while len(out) < size:
            s = rng.randrange(r)
            out += ref[s:s + 4 + rng.randrange(37)]
        return bytes(out[:size])

    medians = []
    for p in range(10, 21):
        size = 1 << p
        cs = compress(index, make_source(size))
        cs.replace(1, cs.access(1))  # absorb lazy index construction
        samples = []
        for k in range(240):
            n = cs.length
            kind = k % 5
            if kind == 0:
                i = rng.randrange(1, n + 1)
                t1 = time.perf_counter()
                cs.access(i)
            elif kind == 1:
                i = rng.randrange(1, n + 1)
                ell = min(64, n - i + 1)
                t1 = time.perf_counter()
                cs.extract(i, ell)
            elif kind == 2:
                i = rng.randrange(1, n + 1)
                c = ref[rng.randrange(r)]
                t1 = time.perf_counter()
                cs.replace(i, c)
            elif kind == 3:
                i = rng.randrange(1, n + 2)
                c = ref[rng.randrange(r)]
                t1 = time.perf_counter()
                cs.insert(i, c)
            else:
                i = rng.randrange(1, n + 1)
                t1 = time.perf_counter()
                cs.delete(i)
            samples.append(time.perf_counter() - t1)
        medians.append(statistics.median(samples))

    ratio = max(medians) / medians[0]
    pretty = " ".join(f"{m * 1e6:.0f}us" for m in medians)
    assert ratio < 20.0, f"median latency grew {ratio:.1f}x: {pretty}"
    if ratio > 10.0:
        warnings.warn(f"latency growth {ratio:.1f}x is above the 10x goal: {pretty}")
