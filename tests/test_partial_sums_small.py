"""Unit and property tests for the word-packed partial-sums structure."""

import copy
import random
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from drc.errors import (
    BadConfig,
    BadSplit,
    DeleteTooLarge,
    DeltaTooLarge,
    IndexOutOfRange,
    NegativeEntry,
    SearchOutOfRange,
    StructureFull,
)
from drc.oracles import NaivePartialSums
from drc.partial_sums_small import DEFAULT_CONFIG, PackedSums, PsConfig, _first_ge, _ones

from support import (
    B16_CONFIG,
    DEMO_AFTER_DIVIDE,
    DEMO_AFTER_MERGE,
    DEMO_CONFIG,
    DEMO_START,
    DEMO_Z,
    MUTATOR_KINDS,
    OP_KINDS,
    apply_op,
    assert_rejected_alike,
    resolve_bad_op,
    resolve_op,
)


def assert_state(ps, expected):
    assert ps.prefix_sums() == expected["sums"]
    assert ps.representatives == expected["reps"]
    assert ps.run_flags == expected["flags"]
    assert ps.run_prefix_counts == expected["counts"]
    assert ps.offsets == expected["offsets"]
    ps.validate()


class TestWordHelpers:
    def test_ones_pattern(self):
        assert _ones(4, 3) == 0x111
        assert _ones(16, 2) == (1 << 16) | 1
        assert _ones(8, 0) == 0

    def test_first_ge_finds_lowest_qualifying_field(self):
        # fields (low to high): 3, 9, 7 in 8-bit lanes
        word = 3 | (9 << 8) | (7 << 16)
        assert _first_ge(word, 3, 4, 8) == 1
        assert _first_ge(word, 3, 8, 8) == 1
        assert _first_ge(word, 3, 10, 8) is None
        assert _first_ge(word, 3, 1, 8) == 0


class TestWorkedPacking:
    """Replay of the hand-checked 19-entry trace, exact field rows."""

    def test_initial_packing(self):
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        assert_state(ps, DEMO_START)
        assert ps.rebuilds == 0

    def test_divide_drops_anchor_30(self):
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        ps.divide(8, 3)
        assert_state(ps, DEMO_AFTER_DIVIDE)
        assert 30 not in ps.representatives
        assert ps.sum(8) == 28 and ps.sum(9) == 30
        # the fast local repair did all the work
        assert ps.rebuilds == 0

    def test_merge_fuses_interior_pair(self):
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        ps.divide(8, 3)
        ps.merge(12)
        assert_state(ps, DEMO_AFTER_MERGE)
        assert ps.values()[11] == 4
        assert ps.rebuilds == 0 and ps.search_fallbacks == 0

    def test_search_lands_in_anchored_run(self):
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        assert ps.search(26) == 8  # sum(7)=25 < 26 <= sum(8)=30
        assert ps.search(25) == 7
        assert ps.search(1) == 1
        assert ps.search(72) == 19

    def test_rebuild_is_idempotent_and_invisible(self):
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        ps.divide(8, 3)
        before = ps.prefix_sums()
        ps.rebuild()
        first = (ps.representatives, ps.offsets, ps.run_flags, ps.run_prefix_counts)
        ps.rebuild()
        second = (ps.representatives, ps.offsets, ps.run_flags, ps.run_prefix_counts)
        assert first == second
        assert ps.prefix_sums() == before
        ps.validate()


class TestQueries:
    def test_sums_small(self):
        ps = PackedSums([5, 1, 4, 7])
        assert [ps.sum(i) for i in range(1, 5)] == [5, 6, 10, 17]
        assert ps.sum(1) == 5 and ps.sum(4) == 17
        assert ps.total == 17

    def test_sum_matches_running_total_of_inserts(self):
        ps = PackedSums()
        inserted = []
        for k, v in enumerate([3, 0, 2, 1, 3, 2], 1):
            ps.insert(k, v)
            inserted.append(v)
            assert ps.sum(len(ps)) == sum(inserted)

    def test_search_first_positive_entry(self):
        ps = PackedSums([0, 0, 3, 1])
        assert ps.search(1) == 3

    def test_search_rejects_out_of_domain_targets(self):
        ps = PackedSums([5, 1])
        with pytest.raises(SearchOutOfRange):
            ps.search(0)
        with pytest.raises(SearchOutOfRange):
            ps.search(7)
        with pytest.raises(SearchOutOfRange):
            PackedSums([]).search(1)
        for t in (2.5, 5.5):  # below the first anchor, and inside its run
            with pytest.raises(TypeError):
                ps.search(t)

    def test_sum_rejects_bad_index(self):
        ps = PackedSums([5, 1])
        for i in (0, 3, -1):
            with pytest.raises(IndexOutOfRange):
                ps.sum(i)


class TestEdits:
    def test_update_shifts_suffix(self):
        ps = PackedSums([5, 1, 4, 7])
        ps.update(1, 1)
        assert ps.prefix_sums() == [6, 7, 11, 18]
        ps = PackedSums([5, 1, 4, 7])
        ps.update(3, -2)
        assert ps.sum(2) == 6 and ps.sum(3) == 8

    def test_update_zero_is_observationally_identity(self):
        ps = PackedSums([5, 1, 4, 7])
        before = ps.prefix_sums()
        ps.update(2, 0)
        assert ps.prefix_sums() == before

    def test_divide_zero_splits(self):
        ps = PackedSums([5, 1, 4])
        sums = ps.prefix_sums()
        ps.divide(2, 0)
        assert ps.values() == [5, 0, 1, 4]
        assert set(sums) <= set(ps.prefix_sums())
        ps = PackedSums([5, 1, 4])
        ps.divide(2, 1)
        assert ps.values() == [5, 1, 0, 4]

    def test_merge_zero_neighbor_preserves_sums(self):
        ps = PackedSums([5, 0, 4])
        sums = ps.prefix_sums()
        ps.merge(1)
        assert ps.values() == [5, 4]
        assert ps.prefix_sums() == [s for s in sums if s != 5] or sums[0] == sums[1]

    def test_divide_then_merge_is_identity(self):
        # run gap 64, with t and v - t on either side of it: the inputs reach
        # every (entry i heads a run, new i heads one, new i+1 heads one) case
        def fresh(vals, merges):
            ps, oracle = PackedSums(vals), NaivePartialSums(vals)
            for k in merges:
                ps.merge(k)
                oracle.merge(k)
            return ps, oracle

        for vals, merges in [
            ([4, 6, 5], ()),
            ([4, 6, 5, 100, 150], ()),     # entries 4 and 5 head runs of their own
            ([4, 50, 50, 50, 6], (2, 2)),  # entry 2 grows to 150 and stays mid-run
        ]:
            for i in range(1, len(vals) - len(merges) + 1):
                v = fresh(vals, merges)[1].values()[i - 1]
                for t in sorted({0, 1, 4, v // 2, 70, v - 70, v} & set(range(v + 1))):
                    ps, oracle = fresh(vals, merges)
                    before = oracle.values()
                    ps.divide(i, t)
                    oracle.divide(i, t)
                    ps.validate()
                    assert ps.prefix_sums() == oracle.prefix_sums()
                    ps.merge(i)
                    ps.validate()
                    assert ps.values() == before

    def test_insert_before_single_entry(self):
        ps = PackedSums([5])
        ps.insert(1, 3)
        assert ps.values() == [3, 5]

    def test_insert_append_and_into_empty(self):
        ps = PackedSums()
        ps.insert(1, 2)
        ps.insert(2, 3)
        ps.insert(3, 0)
        assert ps.values() == [2, 3, 0]
        ps.validate()
        # with B = 1 the first insert is due its rebuild at once
        one = PackedSums(config=PsConfig(B=1))
        one.insert(1, 2)
        one.validate()
        assert one.values() == [2] and one.rebuilds == 1

    def test_delete_undoes_insert(self):
        ps = PackedSums([4, 6, 5])
        ps.insert(2, 3)
        ps.delete(2)
        assert ps.values() == [4, 6, 5]

    def test_delete_zero_entry_keeps_sums(self):
        ps = PackedSums([4, 0, 5])
        ps.delete(2)
        assert ps.values() == [4, 5]
        ps = PackedSums([0])
        ps.delete(1)
        assert ps.values() == [] and len(ps) == 0

    def test_delete_last_entry_merges_left(self):
        ps = PackedSums([4, 6, 2])
        ps.delete(3)
        assert ps.values() == [4, 6]


    def test_insert_and_delete_keep_the_other_head_bits(self):
        # (values, run flags, anchors, offsets) after each op; the default
        # gap is 64, so only slot 1 and an insert at slot 1 make heads
        ps = PackedSums([3, 1, 2, 3])
        for op, want in [
            (("insert", 1, 1), ([1, 3, 1, 2, 3], [1, 1, 0, 0, 0], [1, 4], [0, 0, 1, 3, 6])),
            # a deleted head hands its run to the next slot
            (("delete", 2), ([1, 1, 2, 3], [1, 1, 0, 0], [1, 2], [0, 0, 2, 5])),
            (("insert", 3, 2), ([1, 1, 2, 2, 3], [1, 1, 0, 0, 0], [1, 2], [0, 0, 2, 4, 7])),
            (("delete", 4), ([1, 1, 2, 3], [1, 1, 0, 0], [1, 2], [0, 0, 2, 5])),
            (("delete", 2), ([1, 2, 3], [1, 1, 0], [1, 3], [0, 0, 3])),
        ]:
            apply_op(ps, op)
            assert (ps.values(), ps.run_flags, ps.representatives, ps.offsets) == want
            ps.validate()
        # with a gap of 2, an inserted 3 heads a new run that takes over
        # the rest of its run; deleting a lone head takes its anchor along
        ps = PackedSums([2, 1, 1, 2], config=replace(DEFAULT_CONFIG, run_gap=2))
        for op, want in [
            (("insert", 3, 3), ([2, 1, 3, 1, 2], [1, 0, 1, 0, 0], [2, 6], [0, 1, 0, 1, 3])),
            (("delete", 1), ([1, 3, 1, 2], [1, 1, 0, 0], [1, 4], [0, 0, 1, 3])),
            (("delete", 1), ([3, 1, 2], [1, 0, 0], [3], [0, 1, 3])),
        ]:
            apply_op(ps, op)
            assert (ps.values(), ps.run_flags, ps.representatives, ps.offsets) == want
            ps.validate()

    def test_insert_and_delete_count_one_op_each(self):
        rng = random.Random(7)
        ps = PackedSums(config=PsConfig(B=8))
        for _ in range(300):
            n = len(ps)
            grow = n == 0 or n < 8 and rng.random() < 0.5
            small = [i for i, v in enumerate(ps.values(), 1) if v < 4]
            if not grow and not small:
                continue
            ops, rebuilds = ps.ops_since_rebuild, ps.rebuilds
            if grow:
                ps.insert(rng.randrange(1, n + 2), rng.randrange(4))
            else:
                ps.delete(rng.choice(small))
            if ops + 1 < 8:
                assert (ps.ops_since_rebuild, ps.rebuilds) == (ops + 1, rebuilds)
            else:
                assert (ps.ops_since_rebuild, ps.rebuilds) == (0, rebuilds + 1)
            ps.validate()


class TestErrors:
    def test_update_rejections(self):
        ps = PackedSums([5, 1])
        with pytest.raises(DeltaTooLarge):
            ps.update(1, 4)
        with pytest.raises(DeltaTooLarge):
            ps.update(1, -4)
        with pytest.raises(NegativeEntry):
            ps.update(2, -2)
        with pytest.raises(IndexOutOfRange):
            ps.update(3, 1)

    def test_divide_rejections(self):
        ps = PackedSums([5, 1])
        with pytest.raises(BadSplit):
            ps.divide(1, 6)
        with pytest.raises(BadSplit):
            ps.divide(1, -1)
        with pytest.raises(IndexOutOfRange):
            ps.divide(0, 0)
        full = PackedSums([1] * DEFAULT_CONFIG.B)
        with pytest.raises(StructureFull):
            full.divide(1, 0)
        with pytest.raises(StructureFull):
            full.insert(1, 1)

    def test_merge_delete_rejections(self):
        ps = PackedSums([5, 1])
        with pytest.raises(IndexOutOfRange):
            ps.merge(2)
        with pytest.raises(IndexOutOfRange):
            ps.merge(0)
        with pytest.raises(DeleteTooLarge):
            ps.delete(1)  # value 5 needs more than delta bits
        with pytest.raises(IndexOutOfRange):
            ps.delete(3)

    def test_insert_rejections(self):
        ps = PackedSums([5])
        with pytest.raises(DeltaTooLarge):
            ps.insert(1, 4)
        with pytest.raises(DeltaTooLarge):
            ps.insert(1, -1)
        with pytest.raises(IndexOutOfRange):
            ps.insert(3, 1)

    def test_constructor_rejections(self):
        with pytest.raises(NegativeEntry):
            PackedSums([1, -2])
        with pytest.raises(StructureFull):
            PackedSums([1] * (DEFAULT_CONFIG.B + 1))

    def test_config_budgets(self):
        with pytest.raises(BadConfig):
            PsConfig(w=64, delta=2, B=16, F=16)  # 16 fields won't fit two words
        with pytest.raises(BadConfig):
            PsConfig(w=64, delta=8, B=8, F=12)  # field below the offset bound
        with pytest.raises(BadConfig):
            PsConfig(run_gap=33)  # above B * 2**delta
        with pytest.raises(BadConfig):
            PsConfig(B=0)
        with pytest.raises(BadConfig):
            PsConfig(delta=0)


class TestDriftAndRebuild:
    def test_periodic_rebuild_fires(self):
        ps = PackedSums([1] * 8)
        for _ in range(DEFAULT_CONFIG.B):
            ps.update(3, 1)
        assert ps.rebuilds >= 1
        assert ps.ops_since_rebuild < DEFAULT_CONFIG.B
        ps.validate()

    def test_tight_gap_survives_adversarial_updates(self):
        # run threshold 4 with delta 2: repeated +-3 updates move heads and
        # mid-run entries alike; answers must stay exact throughout.
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        oracle = NaivePartialSums(DEMO_Z, capacity=24, delta=2)
        pattern = [(1, 3), (1, -3), (7, 3), (7, -3), (8, 3), (8, -3),
                   (15, 3), (15, -3), (4, 3), (4, -3), (9, 3), (9, -3),
                   (16, 3), (16, -3), (3, 3), (3, -3), (12, 3), (12, -3)]
        for i, d in pattern * 5:
            ps.update(i, d)
            oracle.update(i, d)
            assert ps.prefix_sums() == oracle.prefix_sums()
            for t in (1, 4, 17, 25, 26, oracle.total):
                assert ps.search(t) == oracle.search(t)
            ps.validate()

    def test_updates_keep_every_head_at_its_prefix_sum(self):
        # updates at a mid-run entry and at two heads: after each, every
        # anchor is its head's prefix sum, and finds need no repack
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        oracle = NaivePartialSums(DEMO_Z, capacity=24, delta=2)
        for i, d in [(5, 2), (16, -3), (17, -3)]:
            ps.update(i, d)
            oracle.update(i, d)
            ys = oracle.prefix_sums()
            assert ps.representatives == [y for y, f in zip(ys, ps.run_flags) if f]
        assert ps.find(57) == (18, 56)
        for t in range(1, oracle.total + 1):
            j = oracle.search(t)
            assert ps.find(t) == (j, oracle.sum(j - 1) if j > 1 else 0)
        assert ps.prefix_sums() == oracle.prefix_sums()
        assert ps.rebuilds == 0 and ps.search_fallbacks == 0
        ps.validate()

    def test_merge_reanchors_a_head_at_the_merged_sum(self):
        # entry 1 heads the one run that entry 2 continues: the merged
        # head's anchor becomes Y[2] and the rest of the run moves down
        ps = PackedSums([5, 1, 2, 3])
        ps.merge(1)
        assert ps.representatives == [6] and ps.offsets == [0, 2, 5]
        assert ps.prefix_sums() == [6, 8, 11]
        ps.validate()

    def test_validate_rejects_an_inexact_head(self):
        # lower run 2's anchor and raise its fields to match: every sum and
        # search answer stays the same, but the head is no longer exact
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        slots = [p for p, c in enumerate(ps.run_prefix_counts) if c == 2]
        ps._reps[1] -= 3
        ps._u += 3 * sum(1 << (ps.cfg.F * p) for p in slots)
        assert ps.prefix_sums() == DEMO_START["sums"]
        with pytest.raises(AssertionError, match="not at its anchor"):
            ps.validate()

    def test_search_consistency_after_mixed_surgery(self):
        ps = PackedSums(DEMO_Z, config=DEMO_CONFIG)
        oracle = NaivePartialSums(DEMO_Z, capacity=24, delta=2)
        script = [("divide", 8, 3), ("merge", 12), ("divide", 1, 0),
                  ("update", 1, 3), ("insert", 5, 2), ("delete", 8),
                  ("divide", 16, 4), ("merge", 3), ("insert", 1, 0),
                  ("update", 2, -1)]
        for op in script:
            apply_op(ps, op)
            apply_op(oracle, op)
            assert ps.values() == oracle.values()
            total = oracle.total
            for t in range(1, total + 1, 7):
                assert ps.search(t) == oracle.search(t)
            ps.validate()


def offset_bound(cfg):
    """The largest offset PsConfig's written bound allows: B - 1 non-heads
    of at most the gap, and B ops each adding at most max(gap, 2**delta)."""
    return (cfg.B - 1) * cfg.gap + cfg.B * max(cfg.gap, 1 << cfg.delta)


class TestOffsetBound:
    """Every offset stays inside the bound PsConfig checks, so no packed
    write can leave its field and no write needs a rollback."""

    # fields of 10 bits: bias 256, guard 512; run gap 20, bound 180
    CFG = PsConfig(w=64, delta=2, B=5, F=10)

    def test_bound_is_below_the_bias(self):
        for cfg in CONFIGS + [self.CFG, DEMO_CONFIG, replace(self.CFG, run_gap=0)]:
            assert 0 <= offset_bound(cfg) < 2 * cfg.B * cfg.B << cfg.delta < cfg.bias

    @pytest.mark.parametrize("cfg", [CFG, B16_CONFIG, DEFAULT_CONFIG], ids=["B5", "B16", "B64"])
    def test_folded_heads_push_past_a_fresh_packing(self, cfg):
        # run 1 is a zero head and `a` entries of one gap, followed by `b`
        # heads of two gaps.  Dividing the next head into two gaps adds
        # both to run 1, and merging two of run 1's entries frees the slot
        # again, so each pair of ops grows run 1's offset by two gaps; one
        # update before the periodic repack adds the last 2**delta - 1.
        gap, b = cfg.gap, (cfg.B - 2) // 2
        a = cfg.B - 2 - b
        vals = [0] + [gap] * a + [2 * gap] * b
        ps = PackedSums(vals, config=cfg)
        oracle = NaivePartialSums(vals, capacity=cfg.B, delta=cfg.delta)
        script = [op for k in range(b) for op in (("divide", a + 2 + k, gap), ("merge", 2))]
        script.append(("update", len(vals), (1 << cfg.delta) - 1))
        for op in script:
            apply_op(ps, op)
            apply_op(oracle, op)
            ps.validate()
            assert ps.values() == oracle.values()
        assert ps.rebuilds == 0 and len(ps.representatives) == 1
        peak = max(ps.offsets)
        assert peak == (a + 2 * b) * gap + (1 << cfg.delta) - 1
        assert (cfg.B - 1) * gap < peak <= offset_bound(cfg)

    @pytest.mark.parametrize("cfg", [CFG, B16_CONFIG, DEFAULT_CONFIG], ids=["B5", "B16", "B64"])
    def test_inserts_and_deletes_between_packings_stay_inside_the_bound(self, cfg):
        # one run: a zero head, `a` entries of one gap and `b` zeros fill
        # all B slots.  Of the two primitives only an insert grows the run,
        # by below 2**delta at a non-head slot; a delete at a non-head
        # takes its value off, so deleting a zero frees a slot and loses
        # nothing.  B ops alternate the two, all at non-heads, and the
        # last one repacks.
        top, b = (1 << cfg.delta) - 1, (cfg.B + 1) // 2
        a = cfg.B - 1 - b
        vals = [0] + [cfg.gap] * a + [0] * b
        ps = PackedSums(vals, config=cfg)
        oracle = NaivePartialSums(vals, capacity=cfg.B, delta=cfg.delta)
        peak = 0
        for step in range(cfg.B):
            if step % 2:
                op = ("insert", 2, top)
            else:
                op = ("delete", len(oracle) - oracle.values()[::-1].index(0))
            assert not ps.run_flags[op[1] - 1] if op[0] == "delete" else op[1] > 1
            apply_op(ps, op)
            apply_op(oracle, op)
            assert ps.values() == oracle.values()
            assert all(cfg.bias <= f < cfg.guard for f in map(ps._u_field, range(len(ps))))
            ps.validate()
            peak = max(peak, *ps.offsets)
            assert ps.ops_since_rebuild == (step + 1) % cfg.B
        assert ps.rebuilds == 1 and len(ps.representatives) == 1
        assert peak == a * cfg.gap + (cfg.B // 2) * top <= offset_bound(cfg)

    @pytest.mark.parametrize("cfg", [CFG, replace(CFG, run_gap=0), B16_CONFIG, DEFAULT_CONFIG],
                             ids=["B5", "B5-gap0", "B16", "B64"])
    def test_adversary_stays_inside_the_bound(self, cfg):
        # each step applies, of a few random valid ops, the one that leaves
        # the largest offset
        rng = random.Random(cfg.B + cfg.gap)
        vals = [cfg.gap] * (cfg.B - 1)
        ps = PackedSums(vals, config=cfg)
        oracle = NaivePartialSums(vals, capacity=cfg.B, delta=cfg.delta)
        for _ in range(400):
            ops = [resolve_op(rng.choice(MUTATOR_KINDS), rng.randrange(1 << 30),
                              rng.randrange(1 << 30), oracle.values(),
                              capacity=cfg.B, delta=cfg.delta) for _ in range(8)]
            trials = []
            for op in filter(None, ops):
                trial = copy.deepcopy(ps)
                apply_op(trial, op)
                trials.append((max(trial.offsets, default=0), op))
            if not trials:
                continue
            op = max(trials, key=lambda x: x[0])[1]
            apply_op(ps, op)
            apply_op(oracle, op)
            ps.validate()
            assert ps.values() == oracle.values()
            assert max(ps.offsets, default=0) <= offset_bound(cfg)


CONFIGS = [
    DEFAULT_CONFIG,
    DEMO_CONFIG,
    PsConfig(w=64, delta=1, B=4, F=32),
    PsConfig(w=64, delta=8, B=4, F=16),
    PsConfig(B=1),  # rebuilds after every op
]


@pytest.mark.parametrize("cfg", CONFIGS + [TestOffsetBound.CFG])
def test_runs_derived_from_head_bits(cfg):
    """A slot's run is a popcount and a run's head a select over the head
    bits; both must match the flags after every op of a random storm.  Each
    step also tries one op with an argument out of range or over delta,
    from a stream of its own, which both must reject alike."""
    rng, bad_rng = random.Random(cfg.B * 100 + cfg.F), random.Random(f"bad {cfg}")
    ps = oracle = None
    for step in range(3000):
        if step % 60 == 0:
            # fresh mixed values keep several runs alive
            vals = [rng.choice((rng.randrange(4), rng.randrange(1 << 30)))
                    for _ in range(rng.randrange(cfg.B + 1))]
            ps = PackedSums(vals, config=cfg)
            oracle = NaivePartialSums(vals, capacity=cfg.B, delta=cfg.delta)
        bad = resolve_bad_op(bad_rng.choice(OP_KINDS), bad_rng.randrange(1 << 30),
                             bad_rng.randrange(1 << 30), oracle.values(), delta=cfg.delta)
        if bad is not None:
            assert_rejected_alike(ps, oracle, bad)
        op = resolve_op(rng.choice(OP_KINDS), rng.randrange(1 << 30),
                        rng.randrange(1 << 30), oracle.values(),
                        capacity=cfg.B, delta=cfg.delta)
        if op is not None:
            assert apply_op(ps, op) == apply_op(oracle, op)
        flags = ps.run_flags
        assert ps.run_prefix_counts == list(accumulate(flags))
        heads = [p for p, f in enumerate(flags) if f]
        assert [ps._head(r) for r in range(1, len(heads) + 1)] == heads
        assert ps.values() == oracle.values()


@pytest.mark.parametrize("cfg", [PsConfig(B=4), B16_CONFIG, DEFAULT_CONFIG],
                         ids=["B4", "B16", "B64"])
@pytest.mark.parametrize("shape", ["all heads", "mixed"])
def test_shift_agrees_with_update(cfg, shape):
    """_shift, the update a SumTree level above the bottom node takes,
    against update and NaivePartialSums, op by op.  On "all heads" every
    entry exceeds the gap, as on an internal level, so every run is one
    entry and _shift takes its fast path; each shift counts toward the
    repack as an update does, and leaves the same packing."""
    gap, step = cfg.gap, (1 << cfg.delta) - 1
    rng = random.Random(cfg.B + len(shape))
    shifts = 4 * cfg.B
    for _ in range(20):
        n = rng.randint(1, cfg.B)
        if shape == "all heads":
            # far enough above the gap that no run of shifts reaches it
            vals = [rng.randrange(gap + 1 + shifts * step, 2 * gap + 1 + shifts * step)
                    for _ in range(n)]
        else:
            vals = [rng.randrange(2 * gap) if rng.random() < 0.7 else rng.randrange(4)
                    for _ in range(n)]
        fast, slow = PackedSums(vals, config=cfg), PackedSums(vals, config=cfg)
        oracle = NaivePartialSums(vals, capacity=cfg.B, delta=cfg.delta)
        for _ in range(shifts):
            i = rng.randrange(1, n + 1)
            d = rng.randint(-min(step, oracle.values()[i - 1]), step)
            if shape == "all heads":
                assert len(fast.representatives) == n
            fast._shift(i, d)
            slow.update(i, d)
            oracle.update(i, d)
            assert fast.values() == oracle.values()
            assert (fast.representatives, fast.offsets, fast.run_flags) == (
                slow.representatives, slow.offsets, slow.run_flags)
            assert (fast.ops_since_rebuild, fast.rebuilds) == (
                slow.ops_since_rebuild, slow.rebuilds)
            fast.validate()
        assert fast.rebuilds == shifts // cfg.B


@pytest.mark.parametrize("cfg", [replace(B16_CONFIG, run_gap=6),
                                 replace(DEFAULT_CONFIG, run_gap=6), DEMO_CONFIG],
                         ids=lambda c: f"B{c.B}")
@pytest.mark.parametrize("shape", ["singletons", "one run", "mixed"])
def test_find_storm_answers_every_target(cfg, shape):
    """_find(t) against the oracle for every t after each op, on nodes
    whose runs are all one entry (values above the gap, as on every
    internal SumTree level), all one run, or mixed.  Every head's anchor
    must be its own prefix sum after each op."""
    gap = cfg.gap
    keeps = {
        "singletons": lambda vals: all(v > gap for v in vals),
        "one run": lambda vals: all(v <= gap for v in vals[1:]),
        "mixed": lambda vals: True,
    }[shape]
    rng = random.Random(cfg.B + len(shape))
    vals = [rng.randrange(gap + 1, 8 * gap) for _ in range(3 * cfg.B // 4)]
    if shape != "singletons":
        vals[1:] = [rng.randrange(gap + 1) for _ in vals[1:]]
    ps = PackedSums(vals, config=cfg)
    oracle = NaivePartialSums(vals, capacity=cfg.B, delta=cfg.delta)
    done = 0
    # at least 400 ops, and more than 10 repacks: one every B ops
    while done < max(400, 12 * cfg.B):
        # half the ops are updates, which move the anchors
        kind = rng.choice(MUTATOR_KINDS + ("update",) * 4)
        op = resolve_op(kind, rng.randrange(1 << 30),
                        rng.randrange(1 << 30), oracle.values(),
                        capacity=cfg.B, delta=cfg.delta)
        # a node keeps at least B/2 entries, as in a SumTree, and its shape
        if op is None or op[0] in ("merge", "delete") and len(oracle) <= cfg.B // 2:
            continue
        trial = NaivePartialSums(oracle.values(), delta=cfg.delta)
        apply_op(trial, op)
        if not keeps(trial.values()):
            continue
        apply_op(ps, op)
        apply_op(oracle, op)
        done += 1
        reps = len(ps.representatives)
        assert reps == {"singletons": len(ps), "one run": 1}.get(shape, reps)
        ys = oracle.prefix_sums()
        assert ps.representatives == [y for y, f in zip(ys, ps.run_flags) if f]
        for t in range(1, oracle.total + 1):
            j = oracle.search(t)
            assert ps._find(t) == (j, oracle.sum(j - 1) if j > 1 else 0)
    assert ps.rebuilds > 10


@given(
    cfg_idx=st.integers(0, len(CONFIGS) - 1),
    seed_values=st.lists(st.integers(0, 60), max_size=8),
    ops=st.lists(
        st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 10**9),
                  st.integers(0, 10**9)),
        max_size=40,
    ),
)
# B = 1 insert into an empty structure, which random draws rarely reach
@example(cfg_idx=4, seed_values=[], ops=[("insert", 0, 0)])
def test_oracle_agreement(cfg_idx, seed_values, ops):
    cfg = CONFIGS[cfg_idx]
    seed_values = seed_values[:cfg.B]
    ps = PackedSums(seed_values, config=cfg)
    oracle = NaivePartialSums(seed_values, capacity=cfg.B, delta=cfg.delta)
    for kind, a, b in ops:
        op = resolve_op(kind, a, b, oracle.values(),
                        capacity=cfg.B, delta=cfg.delta)
        if op is None:
            continue
        assert apply_op(ps, op) == apply_op(oracle, op)
        assert ps.values() == oracle.values()
        ps.validate()


@given(values=st.lists(st.integers(0, 10**12), min_size=1, max_size=8),
       targets=st.lists(st.integers(1, 10**13), min_size=1, max_size=10))
def test_search_sum_consistency_on_huge_values(values, targets):
    ps = PackedSums(values)
    total = ps.total
    if total == 0:
        return
    for t in targets:
        t = (t - 1) % total + 1
        i = ps.search(t)
        assert ps.sum(i) >= t
        assert i == 1 or ps.sum(i - 1) < t
