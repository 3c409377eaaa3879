"""Tests for the B-tree lift of the partial-sums structure."""

import collections
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from drc.errors import (
    BadConfig,
    BadSplit,
    DeleteTooLarge,
    DeltaTooLarge,
    DrcError,
    IndexOutOfRange,
    ItemCountMismatch,
    NegativeEntry,
    SearchOutOfRange,
    StructureFull,
)
from drc.oracles import NaivePartialSums
from drc.partial_sums import SumTree
from drc.partial_sums_small import DEFAULT_CONFIG, PackedSums, PsConfig

from support import (
    B16_CONFIG,
    DEMO_Z,
    MUTATOR_KINDS,
    OP_KINDS,
    apply_op,
    assert_rejected_alike,
    count_walks,
    resolve_bad_op,
    resolve_op,
)


def _nodes(t):
    stack = [t._root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(() if node.bottom else node.kids)


class TestBasics:
    def test_replicated_sequence_sums(self):
        t = SumTree(DEMO_Z * 100)
        assert t.sum(4) == 17
        assert t.sum(23) == 72 + 17
        assert t.total == 72 * 100
        assert t.search(t.total) == 1900
        assert len(t) == 1900
        t.validate()

    def test_empty_tree(self):
        t = SumTree()
        assert len(t) == 0 and t.total == 0 and t.values() == []
        with pytest.raises(SearchOutOfRange):
            t.search(1)
        with pytest.raises(IndexOutOfRange):
            t.sum(1)
        t.validate()

    def test_single_entry(self):
        t = SumTree([9])
        assert t.sum(1) == 9 and t.search(9) == 1 and t.search(1) == 1
        t.validate()

    def test_build_respects_min_degree(self):
        # 9 values with B=8 must not leave a 1-entry node behind
        t = SumTree(list(range(9)))
        t.validate()
        assert t.values() == list(range(9))

    @pytest.mark.parametrize("cfg", [PsConfig(B=4), PsConfig(B=8), B16_CONFIG, DEFAULT_CONFIG],
                             ids=lambda c: f"B{c.B}")
    def test_bulk_build_leaves_room_in_every_node(self, cfg):
        b = cfg.B
        if b <= 16:
            ns = range(4 * b * b + 1)
        else:
            # every n up to 4B^2 would take minutes: every n <= 2B, and the
            # n next to each multiple of B up to 4B^2
            ns = sorted({*range(2 * b + 1),
                         *(k * b + d for k in range(1, 4 * b + 1) for d in (-1, 1))})
        for n in [*ns, 10**4]:
            t = SumTree(range(n), config=cfg)
            t.validate()
            assert t.values() == list(range(n))
            if n <= b:
                continue
            sizes = [len(node.ps) for node in _nodes(t)]
            assert max(sizes) < b, (n, sizes)
            # so the first divide anywhere splits nothing
            t.divide(n // 2 + 1, 0)
            assert len(list(_nodes(t))) == len(sizes)

    def test_default_fanout_keeps_the_tree_shallow(self):
        # nodes of 64 entries: three levels over 2^17 entries and four over
        # 2^20, where nodes of 16 take five and six
        for e, levels in ((17, 3), (20, 4)):
            node, depth = SumTree([1] * 2**e)._root, 1
            while not node.bottom:
                node, depth = node.kids[0], depth + 1
            assert depth == levels, (e, depth)

    def test_rejects_narrow_fanout(self):
        with pytest.raises(BadConfig):
            SumTree(config=PsConfig(w=64, delta=2, B=2, F=16))

    def test_rejects_negative_seed(self):
        with pytest.raises(NegativeEntry):
            SumTree([3, -1])

    def test_rejects_unequal_items(self):
        # a package error that is also the builtin a caller may catch
        for items in (["a"], ["a", "b", "c"]):
            with pytest.raises(ItemCountMismatch) as err:
                SumTree([5, 1], items)
            assert isinstance(err.value, DrcError) and isinstance(err.value, ValueError)

    def test_rejects_float_seed(self):
        for make in (SumTree, PackedSums):
            with pytest.raises(TypeError):
                make([2.5, 1])


class TestGrowShrink:
    def test_divide_to_unit_entries(self):
        t = SumTree([10] * 100)
        oracle = NaivePartialSums([10] * 100)
        rng = random.Random(7)
        while True:
            vals = oracle.values()
            big = [k for k, v in enumerate(vals, 1) if v > 1]
            if not big:
                break
            i = rng.choice(big)
            cut = vals[i - 1] // 2
            t.divide(i, cut)
            oracle.divide(i, cut)
            assert t.prefix_sums() == oracle.prefix_sums()
        t.validate()
        assert len(t) == 1000 and set(t.values()) == {1}

    def test_merge_fold_to_single_entry(self):
        t = SumTree([1] * 1000)
        for _ in range(999):
            t.merge(1)
        assert len(t) == 1 and t.sum(1) == 1000
        t.validate()

    def test_merge_fold_from_the_right(self):
        t = SumTree(list(range(1, 201)))
        want = t.total
        for k in range(199, 0, -1):
            t.merge(k)
            t.validate()
        assert t.values() == [want]

    def test_insert_append_many(self):
        t = SumTree()
        for k in range(1, 301):
            t.insert(k, k % 4)
        assert t.values() == [k % 4 for k in range(1, 301)]
        t.validate()

    def test_insert_front_many(self):
        t = SumTree()
        for k in range(300):
            t.insert(1, k % 4)
        assert t.values() == [k % 4 for k in range(299, -1, -1)]
        t.validate()

    def test_delete_everything(self):
        t = SumTree([3] * 257)
        for _ in range(257):
            t.delete(len(t) // 2 + 1)
        assert len(t) == 0 and t.total == 0
        t.validate()

    def test_huge_values_ride_along(self):
        t = SumTree([1 << 40, 7, 1 << 39, 2] * 64)
        assert t.sum(4) == (1 << 40) + 7 + (1 << 39) + 2
        assert t.search(1 << 40) == 1
        assert t.search((1 << 40) + 8) == 3
        t.divide(1, 12345)
        assert t.sum(1) == 12345
        t.validate()

    # B = 4: 6 values build as bottom nodes of [3, 3], 8 as [3, 3, 2]
    @pytest.mark.parametrize("n, ops, sizes", [
        # the full first node splits in two before the insert enters it
        (6, [("insert", 1, 0), ("insert", 1, 0)], [3, 2, 3]),
        # an underfull first node and its 2-entry neighbor fuse into one
        (8, [("delete", 1), ("delete", 3), ("delete", 1)], [3, 2]),
        # an underfull first node and its full neighbor share 1 + 4 evenly
        (6, [("delete", 1), ("insert", 6, 0), ("delete", 1)], [3, 2]),
    ], ids=["split", "fuse", "share"])
    def test_nodes_regroup_into_chunk_pieces(self, n, ops, sizes):
        cfg = PsConfig(B=4)
        vals = [k % 4 for k in range(1, n + 1)]  # small enough to delete
        t = SumTree(vals, config=cfg)
        oracle = NaivePartialSums(vals, delta=cfg.delta)
        for op in ops:
            apply_op(t, op)
            apply_op(oracle, op)
        # _nodes walks a two-level tree's bottom nodes right to left
        assert [len(node.ps) for node in _nodes(t) if node.bottom][::-1] == sizes
        assert len(t._root.ps) == len(sizes)
        assert t.values() == oracle.values()
        t.validate()


class TestRejections:
    def test_update_bounds(self):
        t = SumTree([5, 1, 4])
        with pytest.raises(DeltaTooLarge):
            t.update(1, 4)
        with pytest.raises(NegativeEntry):
            t.update(2, -2)
        with pytest.raises(IndexOutOfRange):
            t.update(4, 1)
        # entry 41 is the first of its B = 4 bottom node: the message names
        # the entry, not its slot there
        deep = SumTree([1, 2, 3, 1] * 20, config=PsConfig(B=4))
        with pytest.raises(NegativeEntry, match="^entry 41 would fall below zero$"):
            deep.update(41, -3)

    def test_divide_merge_bounds(self):
        t = SumTree([5, 1, 4])
        with pytest.raises(IndexOutOfRange):
            t.divide(0, 0)
        from drc.errors import BadSplit

        with pytest.raises(BadSplit):
            t.divide(1, 6)
        with pytest.raises(IndexOutOfRange):
            t.merge(3)
        with pytest.raises(IndexOutOfRange):
            t.merge(0)

    def test_insert_delete_bounds(self):
        t = SumTree([5, 1, 4])
        with pytest.raises(DeltaTooLarge):
            t.insert(1, 4)
        with pytest.raises(IndexOutOfRange):
            t.insert(5, 1)
        with pytest.raises(DeleteTooLarge):
            t.delete(1)
        with pytest.raises(IndexOutOfRange):
            t.delete(4)
        with pytest.raises(SearchOutOfRange):
            t.search(11)

    def test_find_rejects_what_search_rejects(self):
        with pytest.raises(SearchOutOfRange):
            SumTree().find(1)
        t = SumTree([5, 1, 4], ["a", "b", "c"])
        for x in (0, -1, 11):
            with pytest.raises(SearchOutOfRange):
                t.find(x)
        assert [t.find(x) for x in (1, 6, 7, 10)] == [
            (1, 0, "a"), (2, 5, "b"), (3, 6, "c"), (3, 6, "c")]


def _full_tree():
    # four bottom nodes of three under a root of two; the append fills the last
    t = SumTree([1, 2, 3, 5] * 3, "abcdefghijkl", config=PsConfig(B=4))
    t.insert(13, 1)
    assert len(t._locate(13, len(t), "item")[0].kids) == 4
    return t


def _full_last_node(cfg):
    # four bottom nodes of 3B/4, then appends until the last one is full
    def make():
        t = SumTree([1, 2, 3, 5] * (3 * cfg.B // 4), config=cfg)
        while len(t._locate(len(t), len(t), "item")[0].kids) < cfg.B:
            t.insert(len(t) + 1, 1)
        return t
    return make


def _full_packed():
    return PackedSums([1, 2, 3, 5], config=PsConfig(B=4))


def _state(s):
    if isinstance(s, SumTree):
        return s.values(), list(s.items_from(1)), [len(node.kids) for node in _nodes(s)]
    return (s.values(), s.representatives, s.offsets, s.run_flags, s.ops_since_rebuild,
            s.rebuilds)


@pytest.mark.parametrize("make", [
    _full_tree, _full_packed, _full_last_node(B16_CONFIG), _full_last_node(DEFAULT_CONFIG),
], ids=["SumTree", "PackedSums", "SumTree-B16", "SumTree-B64"])
@pytest.mark.parametrize("op, error", [
    (lambda s: s.delete(4), DeleteTooLarge),  # Z[4] = 5 >= 2**2
    (lambda s: s.insert(1, 4), DeltaTooLarge),
    (lambda s: s.insert(len(s) + 1, -1), DeltaTooLarge),
    (lambda s: s.divide(len(s), 6), BadSplit),  # on the full bottom node
    (lambda s: s.merge(len(s)), IndexOutOfRange),
    (lambda s: s.merge(0), IndexOutOfRange),
    (lambda s: s.update(0, 1), IndexOutOfRange),
    (lambda s: s.update(len(s) + 1, 1), IndexOutOfRange),
    (lambda s: s.update(1, -2), NegativeEntry),
    (lambda s: s.delete(0), IndexOutOfRange),
    (lambda s: s.delete(len(s) + 1), IndexOutOfRange),
    (lambda s: s.update(2, 1.0), TypeError),
    (lambda s: s.insert(1, 1.0), TypeError),  # on the full tree, before any split
    (lambda s: s.divide(len(s), 0.5), TypeError),  # likewise
], ids=["delete-large", "insert-wide", "insert-negative", "divide-bad-split",
        "merge-last", "merge-0", "update-0", "update-past-end", "update-negative",
        "delete-0", "delete-past-end", "update-float", "insert-float", "divide-float"])
def test_a_rejected_op_leaves_the_structure_as_it_was(make, op, error):
    s = make()
    before = _state(s)
    with pytest.raises(error):
        op(s)
    assert _state(s) == before
    s.validate()


def test_a_rejected_insert_changes_nothing():
    # the full structures above reject an insert by capacity first; here
    # a PackedSums with room rejects it by position, a full one by
    # capacity, and a SumTree by position
    for s, i, error in [(PackedSums([1, 0, 3], config=PsConfig(B=4)), 0, IndexOutOfRange),
                        (PackedSums([1, 0, 3], config=PsConfig(B=4)), 5, IndexOutOfRange),
                        (_full_packed(), 2, StructureFull),
                        (_full_tree(), 0, IndexOutOfRange),
                        (_full_tree(), 15, IndexOutOfRange)]:
        before = _state(s)
        with pytest.raises(error):
            s.insert(i, 1)
        assert _state(s) == before
        s.validate()


@pytest.mark.parametrize("make", [
    _full_tree, lambda: SumTree([1, 2, 3, 5] * 30, config=PsConfig(B=4))], ids=["full", "120"])
@pytest.mark.parametrize("at", [lambda n: 2.5, lambda n: n - 0.5, lambda n: 1.0],
                         ids=["2.5", "len-0.5", "1.0"])
@pytest.mark.parametrize("op", [
    lambda s, i: s.sum(i), lambda s, i: s.update(i, 1), lambda s, i: s.divide(i, 1),
    lambda s, i: s.merge(i), lambda s, i: s.insert(i, 1), lambda s, i: s.delete(i),
    lambda s, i: s.item(i), lambda s, i: s.set_item(i, "z"), lambda s, i: s.items_from(i),
    lambda s, t: s.search(t), lambda s, t: s.find(t), lambda s, t: s.lookup(t),
    lambda s, t: s.lookup_items(t),
], ids=["sum", "update", "divide", "merge", "insert", "delete", "item", "set_item",
        "items_from", "search", "find", "lookup", "lookup_items"])
def test_a_float_position_is_refused_before_any_walk(make, at, op):
    # a walk to a float position would leave it as the finger's first
    # ordinal, where the next valid op trips on it, and insert's growth
    # walk on the full tree would split the full node first; a walk to a
    # float target would answer or fail by the run shape of the nodes it
    # passes (at 1.0 every node's first anchor answers it)
    before, s = _state(make()), make()  # _state moves the finger
    finger = s._finger
    with pytest.raises(TypeError):
        op(s, at(len(s)))
    assert s._finger is finger
    assert _state(s) == before
    s.update(3, 1)
    assert s.values()[2] == before[0][2] + 1
    s.validate()


def random_soak(seed, n_ops, seed_len, config=None):
    # each step also tries one op with an argument out of range or over
    # delta, drawn from a stream of its own, which both must reject alike
    rng, bad_rng = random.Random(seed), random.Random(f"bad {seed}")
    cfg = config or PsConfig()
    seed_vals = [rng.randrange(0, 50) for _ in range(seed_len)]
    t = SumTree(seed_vals, config=cfg)
    oracle = NaivePartialSums(seed_vals, delta=cfg.delta)
    for step in range(n_ops):
        bad = resolve_bad_op(
            bad_rng.choice(OP_KINDS), bad_rng.randrange(1 << 30), bad_rng.randrange(1 << 30),
            oracle.values(), delta=cfg.delta,
        )
        if bad is not None:
            assert_rejected_alike(t, oracle, bad)
        op = resolve_op(
            rng.choice(OP_KINDS), rng.randrange(1 << 30), rng.randrange(1 << 30),
            oracle.values(), delta=cfg.delta,
        )
        if op is None:
            continue
        assert apply_op(t, op) == apply_op(oracle, op)
        if step % 97 == 0:
            assert t.values() == oracle.values()
            for x in {1, (oracle.total + 1) // 2, oracle.total} - {0}:
                l = oracle.search(x)
                assert t.find(x) == (l, oracle.sum(l - 1) if l > 1 else 0, t.item(l))
            t.validate()
    assert t.values() == oracle.values()
    t.validate()


class TestOracleSoak:
    def test_default_config_mixed_ops(self):
        random_soak(1, 3000, 500)

    def test_small_fanout_forces_deep_tree(self):
        random_soak(2, 2500, 300, PsConfig(w=64, delta=2, B=4, F=32))

    def test_wide_delta(self):
        random_soak(3, 2000, 64, PsConfig(w=64, delta=8, B=4, F=32))

    def test_grow_from_empty(self):
        rng = random.Random(4)
        t = SumTree()
        oracle = NaivePartialSums()
        for _ in range(2000):
            op = resolve_op(
                rng.choice(OP_KINDS), rng.randrange(1 << 30), rng.randrange(1 << 30),
                oracle.values(),
            )
            if op is None:
                continue
            assert apply_op(t, op) == apply_op(oracle, op)
        assert t.values() == oracle.values()
        t.validate()


def test_items_follow_every_edit(monkeypatch):
    # B=4 makes splits, fuses, even shares and cross-node merges frequent,
    # as the counting wrappers check; a plain list replays each op's
    # effect on the items
    seen = collections.Counter()
    regroup, merge = SumTree._regroup, SumTree.merge

    def counting_regroup(self, parent, lo, count):
        before = len(parent.kids)
        regroup(self, parent, lo, count)
        seen[("fuse", "share", "split")[len(parent.kids) - before + 1]] += 1

    def counting_merge(self, i):
        if 1 <= i < len(self):
            node, slot, _ = self._locate(i, len(self), "merge")
            seen["cross-node merge"] += slot == len(node.kids)
        merge(self, i)

    monkeypatch.setattr(SumTree, "_regroup", counting_regroup)
    monkeypatch.setattr(SumTree, "merge", counting_merge)
    rng = random.Random(5)
    cfg = PsConfig(B=4)
    fresh = itertools.count()
    vals = [rng.randrange(0, 50) for _ in range(200)]
    items = [next(fresh) for _ in vals]
    t = SumTree(vals, items, config=cfg)
    oracle = NaivePartialSums(vals, delta=cfg.delta)
    for step in range(3000):
        op = resolve_op(
            rng.choice(OP_KINDS), rng.randrange(1 << 30), rng.randrange(1 << 30),
            oracle.values(), delta=cfg.delta,
        )
        if op is None:
            continue
        assert apply_op(t, op) == apply_op(oracle, op)
        kind = op[0]
        if kind == "divide":
            items.insert(op[1], items[op[1] - 1])
            items[op[1]] = next(fresh)
            t.set_item(op[1] + 1, items[op[1]])
        elif kind == "merge":
            del items[op[1]]
        elif kind == "insert":
            items.insert(op[1] - 1, None)
            if step % 2:
                items[op[1] - 1] = next(fresh)
                t.set_item(op[1], items[op[1] - 1])
        elif kind == "delete":
            del items[op[1] - 1]
        if items and step % 3 == 0:
            # a run of up to 9 items crosses several B=4 bottom nodes; every
            # other one ends exactly at the last entry
            k = rng.randrange(1, min(9, len(items)) + 1)
            i = len(items) - k + 1 if step % 2 else rng.randrange(1, len(items) - k + 2)
            for j in range(i, i + k):
                items[j - 1] = next(fresh)
                t.set_item(j, items[j - 1])
        assert list(t.items_from(1)) == items
        if items:
            i = rng.randrange(1, len(items) + 1)
            assert t.item(i) == items[i - 1]
            assert list(t.items_from(i)) == items[i - 1 :]
            y = oracle.sum(i)
            if y:
                l = oracle.search(y)
                assert t.find(y) == (l, oracle.sum(l - 1) if l > 1 else 0, items[l - 1])
        assert list(t.items_from(len(items) + 1)) == []
        if step % 97 == 0:
            t.validate()
    t.validate()
    assert all(seen[k] for k in ("split", "fuse", "share", "cross-node merge")), seen


def _outcome(t, kind, args):
    try:
        got = getattr(t, kind)(*args)
    except DrcError as exc:
        return type(exc), str(exc)
    return list(got) if kind == "items_from" else got


@pytest.mark.parametrize("cfg", [PsConfig(B=4), B16_CONFIG], ids=["B4", "B16"])
def test_a_split_keeps_the_finger_on_the_growing_leaf(cfg, monkeypatch):
    # a growth into a full node splits it and lands in one half; from a
    # finger on that node, neither the growth nor a read of the grown
    # entry right after it walks from the root, split or not
    steps = count_walks(monkeypatch)
    rng = random.Random(cfg.B)
    t = SumTree([5] * (cfg.B - 1), config=cfg)
    splits = 0
    for step in range(40 * cfg.B):
        i = rng.randrange(1, len(t) + 2)
        t.item(min(i, len(t)))  # the finger on the node that holds i
        steps.clear()
        if i > len(t) or step % 2:
            t.insert(i, 1)
        else:
            t.divide(i, 0)
        assert t.item(i) is None and steps["level"] == 0, (step, steps)
        splits += steps["shape"] > 0
        if step % 25 == 0:
            t.validate()
    t.validate()
    assert splits > 2 * cfg.B


def test_a_cross_node_merge_keeps_the_finger(monkeypatch):
    # merging the last entry of a bottom node into the head of the next
    # moves the finger to that next node, which the merged entry now
    # heads: unless the shrunk node regroups, neither the merge nor a
    # read of the merged entry right after it walks from the root
    steps = count_walks(monkeypatch)
    rng = random.Random(7)
    cfg = PsConfig(B=4)
    vals = [rng.randrange(0, 50) for _ in range(400)]
    items = list(range(len(vals)))
    t = SumTree(vals, items, config=cfg)
    oracle = NaivePartialSums(vals, delta=cfg.delta)
    kept = 0
    while len(t) > 2 * cfg.B:
        i = rng.randrange(1, len(t))
        node, slot, _ = t._locate(i, len(t), "item")  # the finger on the node that holds i
        if slot < len(node.kids):
            continue
        steps.clear()
        t.merge(i)
        oracle.merge(i)
        del items[i]
        if not steps["shape"]:
            kept += 1
            assert t.item(i) == items[i - 1] and steps["level"] == 0, (i, steps)
        t.validate()
    assert t.values() == oracle.values() and list(t.items_from(1)) == items
    assert kept > 150, kept


@pytest.mark.parametrize("cfg", [
    PsConfig(B=4), PsConfig(B=8), B16_CONFIG,
    replace(B16_CONFIG, run_gap=4), replace(B16_CONFIG, run_gap=0),
    DEFAULT_CONFIG, replace(DEFAULT_CONFIG, run_gap=4), replace(DEFAULT_CONFIG, run_gap=0),
], ids=["B4", "B8", "B16", "B16-gap4", "B16-gap0", "B64", "B64-gap4", "B64-gap0"])
def test_cross_node_merges_agree_with_the_oracle(cfg, monkeypatch):
    # values of 0-3 among powers of two up to 2^30, so that internal
    # entries fall both at or under the run gap and far past the field
    # bias; a merge across two bottom nodes moves such a value through
    # PackedSums' own ops, and packs no node unless it regroups one
    packs = collections.Counter()
    init, of_sums, regroup = PackedSums.__init__, PackedSums._of_sums, SumTree._regroup
    monkeypatch.setattr(PackedSums, "__init__",
                        lambda self, *a, **k: packs.update(["pack"]) or init(self, *a, **k))
    monkeypatch.setattr(PackedSums, "_of_sums", staticmethod(
        lambda *a: packs.update(["pack"]) or of_sums(*a)))
    monkeypatch.setattr(SumTree, "_regroup",
                        lambda self, *a: packs.update(["regroup"]) or regroup(self, *a))
    rng = random.Random(cfg.B + cfg.gap)

    def value():
        return rng.randrange(4) if rng.random() < 0.6 else 1 << rng.randrange(31)

    vals = [value() for _ in range(160)]
    t = SumTree(vals, config=cfg)
    oracle = NaivePartialSums(vals, delta=cfg.delta)
    kept = 0
    for _ in range(800):
        i, r = rng.randrange(1, len(t) + 1), rng.random()
        if r < 0.45:
            node, slot, _ = t._locate(i, len(t), "item")
            i += len(node.kids) - slot  # the last entry of its bottom node
            if i >= len(t):
                continue
            packs.clear()
            t.merge(i)
            oracle.merge(i)
            t.validate()
            assert t.values() == oracle.values()
            if not packs["regroup"]:
                kept += 1
                assert not packs["pack"], packs
        elif r < 0.7:
            z = oracle.values()[i - 1]
            cut = rng.choice((0, z, rng.randint(0, z)))
            t.divide(i, cut)
            oracle.divide(i, cut)
        elif r < 0.85 or oracle.values()[i - 1] >= 1 << cfg.delta:
            d = rng.randrange(4)
            t.insert(i, d)
            oracle.insert(i, d)
        else:
            t.delete(i)
            oracle.delete(i)
    assert t.values() == oracle.values() and t.total == oracle.total
    for y in {1, t.total // 3, t.total} - {0}:
        assert t.search(y) == oracle.search(y)
    assert kept > 150, kept


@pytest.mark.parametrize("cfg", [PsConfig(B=4), PsConfig(B=8), B16_CONFIG, DEFAULT_CONFIG],
                         ids=lambda c: f"B{c.B}")
def test_finger_answers_as_walks_from_the_root(cfg, monkeypatch):
    # most ops land near the previous one, so the finger of `fingered`
    # often holds the leaf; `walked` loses its finger before every op
    walks = collections.Counter()  # by tree: steps from its root
    child_for = SumTree._child_for

    def counting_child_for(node, i):
        walks[node is fingered._root] += counting and node in (fingered._root, walked._root)
        return child_for(node, i)

    monkeypatch.setattr(SumTree, "_child_for", staticmethod(counting_child_for))
    rng = random.Random(cfg.B)
    vals = [rng.randrange(0, 50) for _ in range(300)]
    fingered = SumTree(vals, range(300), config=cfg)
    walked = SumTree(vals, range(300), config=cfg)
    fresh = itertools.count(300)
    pos, counting = 1, False
    for step in range(3000):
        n = len(walked)
        pos = max(1, pos + rng.randrange(-1, 2)) if rng.random() < 0.9 else rng.randrange(n + 3)
        kind = rng.choice(OP_KINDS + ("find", "item", "set_item", "items_from"))
        if kind in ("search", "find"):
            near = 1 <= pos <= n and rng.random() < 0.8
            args = (walked.sum(pos) if near else rng.randrange(walked.total + 2),)
        elif kind == "update":
            args = (pos, rng.randrange(-3, 4))
        elif kind in ("divide", "insert"):
            args = (pos, rng.randrange(5 if kind == "insert" else 30))
        elif kind == "set_item":
            args = (pos, next(fresh))
        else:
            args = (pos,)
        walked._finger = None
        counting = True
        assert _outcome(fingered, kind, args) == _outcome(walked, kind, args)
        counting = False
        if step % 10 == 0:
            assert fingered.values() == walked.values()
            assert list(fingered.items_from(1)) == list(walked.items_from(1))
            for x in {1, (walked.total + 1) // 2, walked.total} - {0}:
                walked._finger = None
                assert fingered.find(x) == walked.find(x)
        if step % 50 == 0:
            fingered.validate()
            walked.validate()
    fingered.validate()
    # the finger spares at least a quarter of the walks from the root
    assert walks[True] < 3 * walks[False] / 4, walks


@pytest.mark.parametrize("cfg", [PsConfig(B=4), B16_CONFIG, replace(B16_CONFIG, run_gap=0),
                                 DEFAULT_CONFIG, replace(DEFAULT_CONFIG, run_gap=0)],
                         ids=["B4", "B16", "B16-gap0", "B64", "B64-gap0"])
def test_lookup_answers_as_find_and_keeps_the_finger(cfg):
    # zero-valued entries among small and large ones, so that targets
    # skip over zeros and runs of every shape occur on every level
    rng = random.Random(cfg.B + cfg.gap)
    vals = [rng.choice((0, 0, 1, 3, 40, 200)) for _ in range(250)]
    t = SumTree(vals, range(len(vals)), config=cfg)
    oracle = NaivePartialSums(vals, delta=cfg.delta)
    for rnd in range(4):
        if rnd:
            done = 0
            while done < 150:
                op = resolve_op(rng.choice(MUTATOR_KINDS), rng.randrange(1 << 30),
                                rng.randrange(1 << 30), oracle.values(), delta=cfg.delta)
                if op is not None:
                    apply_op(t, op)
                    apply_op(oracle, op)
                    done += 1
            assert t.values() == oracle.values()
        for x in range(1, t.total + 1):
            finger = t._finger
            got = t.lookup(x)
            assert t._finger is finger
            assert got == t.find(x)[1:]
        finger, state = t._finger, (t.values(), list(t.items_from(1)))
        for bad in (0, -1, t.total + 1):
            t._finger = finger
            with pytest.raises(SearchOutOfRange):
                t.lookup(bad)
            assert t._finger is finger
            assert (t.values(), list(t.items_from(1))) == state
        t.validate()
    with pytest.raises(SearchOutOfRange):
        SumTree().lookup(1)


@pytest.mark.parametrize("cfg", [PsConfig(B=4), B16_CONFIG, DEFAULT_CONFIG],
                         ids=["B4", "B16", "B64"])
def test_lookup_items_reads_on_and_keeps_the_finger(cfg):
    # the read descent that walks on: the items from the answer's on,
    # across every bottom node after it, as find and items_from give them
    rng = random.Random(cfg.B)
    vals = [rng.choice((0, 0, 1, 3, 40)) for _ in range(300)]
    t = SumTree(vals, range(len(vals)), config=cfg)
    oracle = NaivePartialSums(vals, delta=cfg.delta)
    for rnd in range(3):
        for _ in range(100 * rnd):
            op = resolve_op(rng.choice(MUTATOR_KINDS), rng.randrange(1 << 30),
                            rng.randrange(1 << 30), oracle.values(), delta=cfg.delta)
            if op is not None:
                apply_op(t, op)
                apply_op(oracle, op)
        # the in-order reads leave the finger too
        t.item(rng.randint(1, len(t)))
        finger = t._finger
        assert t.values() == oracle.values() and t.prefix_sums() == oracle.prefix_sums()
        assert t._finger is finger
        for x in range(1, t.total + 1, 5):
            t.item(rng.randint(1, len(t)))  # the finger on some node
            finger = t._finger
            before, items = t.lookup_items(x)
            got = list(items)
            assert t._finger is finger
            i, want, _ = t.find(x)
            assert before == want and got == list(t.items_from(i))
        for bad in (0, -1, t.total + 1):
            with pytest.raises(SearchOutOfRange):
                t.lookup_items(bad)
        t.validate()
    with pytest.raises(SearchOutOfRange):
        SumTree().lookup_items(1)


def test_item_accessor_bounds():
    t = SumTree([5, 1, 4], ["a", "b", "c"])
    assert [t.item(i) for i in (1, 2, 3)] == ["a", "b", "c"]
    for bad in (0, 4):
        with pytest.raises(IndexOutOfRange):
            t.item(bad)
        with pytest.raises(IndexOutOfRange):
            t.set_item(bad, "x")
    with pytest.raises(IndexOutOfRange):
        t.items_from(5)
    assert list(SumTree([5, 1]).items_from(1)) == [None, None]
    with pytest.raises(ValueError):
        SumTree([5, 1], ["a"])


@settings(max_examples=60)
@given(
    seed_values=st.lists(st.integers(0, 1 << 40), max_size=40),
    ops=st.lists(
        st.tuples(st.sampled_from(OP_KINDS), st.integers(0, 10**9),
                  st.integers(0, 10**9)),
        max_size=30,
    ),
    fanout=st.sampled_from([4, 8]),
)
def test_tree_oracle_agreement(seed_values, ops, fanout):
    cfg = PsConfig(w=64, delta=2, B=fanout, F=32 if fanout == 4 else 16)
    t = SumTree(seed_values, config=cfg)
    oracle = NaivePartialSums(seed_values, delta=cfg.delta)
    for kind, a, b in ops:
        op = resolve_op(kind, a, b, oracle.values(), delta=cfg.delta)
        if op is None:
            continue
        assert apply_op(t, op) == apply_op(oracle, op)
        assert t.values() == oracle.values()
        t.validate()
