import math
import random

import numpy as np
import pytest

from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import ExpiredArrivalError, brute_force_oracle, top_k_search, walk
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import ConfigError, DomainError, GeoTemporalImage, Query
from geostream.verify import (
    dominance_violations,
    random_images,
    random_query,
    results_match,
    structure_violations,
)

INDEX_CLASSES = [HiqIndex, IfaIndex, StviiIndex]


def make_config(domain, **kw):
    kw.setdefault("segment_span", 3600)
    kw.setdefault("window", 24)
    kw.setdefault("capacity", 4)
    kw.setdefault("max_depth", 8)
    return HiqConfig(domain=domain, **kw)


def img(id, lat, lon, t_c, psi=((1, 1),)):
    return GeoTemporalImage(id, lat, lon, t_c, psi)


def node_fields(node):
    """Everything of a quadtree node for node-by-node equality: rectangle,
    ``t_max``, ``max_freq``, and the leaf's image ids or the children's
    fields, in order."""
    members = ([im.id for im in node.images] if node.children is None
               else [node_fields(c) for c in node.children])
    return HiqIndex._rect(node), node.t_max, node.max_freq, members


class TestConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, True, None, "5",
                                       False, np.bool_(True), 3.5, "3"],
                             ids=["nan", "inf", "fractional", "bool", "none", "string",
                                  "false", "numpy-bool", "fractional-3.5", "string-3"])
    @pytest.mark.parametrize("name", ["segment_span", "window", "capacity", "max_depth"])
    def test_non_whole_sizes_rejected(self, domain, name, value):
        with pytest.raises(ConfigError, match=name):
            make_config(domain, **{name: value})

    def test_max_depth_past_its_bound_rejected(self, domain):
        # a split recurses once per level, so two images at one point
        # split down to max_depth: at 1,200 that overflowed Python's stack
        with pytest.raises(ConfigError, match="max_depth must be <= 64, got 1200"):
            make_config(domain, capacity=1, max_depth=1200)
        with pytest.raises(ConfigError, match="max_depth must be <= 64, got 65"):
            make_config(domain, max_depth=65)
        index = HiqIndex(make_config(domain, capacity=1, max_depth=64))
        for i in range(3):
            index.insert(img(i, 10.0, 10.0, 5000 + i))
        assert sum(1 for _ in walk(index.roots())) == 1 + 4 * 64
        assert structure_violations(index) == []

    def test_whole_float_sizes_become_ints(self, domain):
        config = make_config(domain, segment_span=60.0, window=3.0)
        assert (config.segment_span, config.window) == (60, 3)
        assert type(config.segment_span) is int and type(config.window) is int


class TestInsert:
    def test_first_insertion(self, domain):
        index = HiqIndex(make_config(domain))
        index.insert(img(0, 10.0, 10.0, 5000))
        assert len(index.segments) == 1
        root, = index.roots()
        assert root.children is None and len(root.images) == 1
        assert root.t_max == 5000
        seg = index.segments[0]
        assert seg.start <= 5000 < seg.end
        assert seg.start % 3600 == 0

    def test_forced_split_routes_quadrants(self, domain):
        index = HiqIndex(make_config(domain, capacity=2))
        # all within one segment; one point per quadrant except NW twice
        pts = [(80.0, 10.0), (80.0, 90.0), (10.0, 10.0), (10.0, 90.0)]
        for i, (lat, lon) in enumerate(pts):
            index.insert(img(i, lat, lon, 1000 + i))
        root, = index.roots()
        assert root.children is not None
        for child, (lat, lon) in zip(root.children, pts):
            assert len(child.images) == 1
            assert child.images[0].lat == lat and child.images[0].lon == lon

    @pytest.mark.parametrize("capacity", [2, 4])
    def test_tree_is_a_function_of_its_images(self, domain, capacity):
        # five images in one corner share every cell down to depth 6; in
        # either order a split recurses until no leaf above max_depth holds
        # more than capacity, so the two trees are equal but for leaf order
        rng = random.Random(capacity)
        images = random_images(rng, 400, domain, t_lo=0, t_hi=99_000) + [
            img(1000 + i, 0.5 + 0.1 * i, 0.5, 50_000) for i in range(5)]
        trees = []
        for order in (images, images[::-1]):
            index = HiqIndex(make_config(domain, capacity=capacity, segment_span=100_000))
            for im in order:
                index.insert(im)
            assert structure_violations(index) == []     # so children tile parents
            trees.append([(node.children is None, sorted(im.id for im in node.images))
                          for node in walk(index.roots())])
        assert trees[0] == trees[1]

    def test_domain_violation(self, domain):
        index = HiqIndex(make_config(domain))
        with pytest.raises(DomainError):
            index.insert(img(0, 200.0, 10.0, 0))

    def test_late_arrival_before_window_rejected(self, domain):
        index = HiqIndex(make_config(domain, window=2))
        index.insert(img(0, 10.0, 10.0, 100_000))     # the head is [97_200, 100_800)
        for i in range(5):
            index.roll_segment(100_800 + i * 3600)     # a time in the next segment
        with pytest.raises(ExpiredArrivalError):
            index.insert(img(1, 10.0, 10.0, 100_000))

    def test_enumeration_returns_inserted_multiset(self, domain):
        rng = random.Random(1)
        index = HiqIndex(make_config(domain))
        images = random_images(rng, 300, domain, t_lo=0, t_hi=80_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        assert sorted(im.id for im in index.live_images()) == sorted(im.id for im in images)


class TestStructuralInvariants:
    @pytest.fixture
    def built(self, domain):
        rng = random.Random(2)
        index = HiqIndex(make_config(domain, capacity=5, segment_span=20_000))
        images = random_images(rng, 1000, domain, t_lo=0, t_hi=99_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        return index

    def test_roots_share_their_buckets_maxima(self, built):
        # and every other structure rule: aggregates, tiling, rectangles
        assert structure_violations(built) == []
        assert len(built.roots()) > 1

    def test_cutoff_inside_a_segment_rebuilds_root_on_new_bucket(self, domain):
        # the cutoff 150 splits the segment [100, 200): the statistics
        # rebuild its bucket as a new one, which takes the tree rebuilt
        # from the survivors, over its own dict, not the old one
        rng = random.Random(31)
        index = HiqIndex(make_config(domain, capacity=3, segment_span=100, window=5))
        images = random_images(rng, 80, domain, t_lo=0, t_hi=399)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        assert structure_violations(index) == []
        old = index.stats.buckets[1]
        assert index.expire(150) == sum(1 for im in images if im.t_c < 150)
        assert structure_violations(index) == []
        new = index.stats.buckets[1]
        assert new is not old and new.tree is not old.tree
        assert new.tree.max_freq is new.max_freq is not old.max_freq
        assert sorted(index.stats.buckets) == [1, 2, 3]

    def test_cutoff_inside_a_segment_leaves_the_tree_of_its_survivors(self, domain):
        # twins: one index expires at cutoffs inside held segments, the
        # other is fed only the survivors, in arrival order; each tree is
        # the same node for node, each leaf's order included, and each
        # cutoff rebuilt one
        rng = random.Random(7)
        config = make_config(domain, capacity=3, segment_span=100, window=5)
        images = sorted(random_images(rng, 200, domain, t_lo=0, t_hi=399),
                        key=lambda x: x.t_c)
        index = HiqIndex(config)
        for im in images:
            index.insert(im)
        for cutoff in (180, 290.5):
            assert index.expire(cutoff) > 0
            twin = HiqIndex(config)
            for im in images:
                if im.t_c >= cutoff:
                    twin.insert(im)
            assert structure_violations(index) == []
            assert {key: node_fields(b.tree) for key, b in index.stats.buckets.items()} \
                == {key: node_fields(b.tree) for key, b in twin.stats.buckets.items()}
        assert index.paths["HIQ trees rebuilt after a cutoff"] == 2

    @pytest.mark.parametrize("older", [True, False],
                             ids=["older-bucket-expires", "nothing-expires"])
    def test_cutoff_before_a_buckets_images_keeps_its_tree(self, domain, older):
        # the cutoff 120 falls inside the segment [100, 200), whose images
        # all arrived at 150 or later: its bucket and tree stay as they
        # are and no tree is rebuilt, whether the older segment [0, 100)
        # leaves or holds nothing
        rng = random.Random(12)
        images = random_images(rng, 60, domain, t_lo=150, t_hi=299)
        if older:
            images += random_images(rng, 30, domain, t_lo=0, t_hi=99, id_base=1000)
        index = HiqIndex(make_config(domain, capacity=3, segment_span=100, window=5))
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        bucket = index.stats.buckets[1]
        tree, held = bucket.tree, list(bucket.images)
        assert len(held) > 3 and tree.children is not None
        assert index.expire(120) == (30 if older else 0)
        assert index.stats.buckets[1] is bucket
        assert bucket.tree is tree and list(bucket.images) == held
        assert "HIQ trees rebuilt after a cutoff" not in index.paths
        assert sorted(index.stats.buckets) == [1, 2]
        assert structure_violations(index) == []
        live = index.live_images()
        assert len(live) == 60
        for _ in range(20):
            q = random_query(rng, live, domain)
            expected = brute_force_oracle(q, live, index.params)
            assert results_match(index.search(q)[0], expected)

    def test_segment_spans_disjoint_contiguous(self, built):
        # a tree holds one segment's images (structure_violations), so a
        # root's t_max places the tree in its bucket's segment
        segs = built.segments
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start
        by_start = {s.start: s for s in segs}
        for key, bucket in built.stats.buckets.items():
            seg = by_start[key * built.config.segment_span]
            assert seg.start <= bucket.tree.t_max < seg.end


class TestPathCounts:
    def test_split_into_one_crowded_quadrant_counts_one(self, domain):
        # both images lie in the NW quadrant and apart in its quadrants, so
        # the root's split recurses once
        index = HiqIndex(make_config(domain, capacity=1))
        index.insert(img(0, 80.0, 10.0, 5000))
        index.insert(img(1, 80.0, 30.0, 5001))
        assert index.paths == {"multi-level HIQ splits": 1}

    def test_one_level_split_counts_nothing(self, domain):
        index = HiqIndex(make_config(domain, capacity=1))
        index.insert(img(0, 80.0, 10.0, 5000))
        index.insert(img(1, 10.0, 90.0, 5001))
        assert index.roots()[0].children is not None
        assert index.paths == {}


class TestRollSegment:
    def test_full_expiry_window_one(self, domain):
        index = HiqIndex(make_config(domain, window=1))
        index.insert(img(0, 10.0, 10.0, 1000))
        expired = index.roll_segment(5000)
        assert expired == 1
        assert index.image_count() == 0
        assert index.stats.total_word_count == 0

    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
    def test_roll_before_the_heads_end_changes_nothing(self, domain, cls):
        # a roll moves the head to the segment that holds its time, never
        # past it: a time in the head or before it leaves everything as it was
        index = cls(make_config(domain, window=3, segment_span=1000))
        for im in sorted(random_images(random.Random(9), 60, domain, t_lo=0, t_hi=4999),
                         key=lambda x: x.t_c):
            index.insert(im)
        assert index.expire(2500) > 0                  # a cutoff past the window start

        def state():
            return (index.window_start(), index._cutoff, index.stats.version,
                    [im.id for im in index.live_images()])

        before = state()
        assert before[:2] == (2000, 2500)
        for now in (4999, 4000, 2500, 2000, 0, -10**12):
            assert index.roll_segment(now) == 0
            assert state() == before
        assert structure_violations(index) == []
        assert index.roll_segment(5000) == 1           # the head's end moves it
        assert index.window_start() == 3000

    def test_window_arithmetic(self, domain):
        index = HiqIndex(make_config(domain, window=3))
        for i in range(5):
            index.roll_segment(i * 3600)                # the first opens [0, 3600)
        assert len(index.segments) == 3
        assert index.window_start() == 2 * 3600

    def test_roll_preserves_surviving_trees(self, domain):
        rng = random.Random(3)
        index = HiqIndex(make_config(domain, window=10, segment_span=10_000))
        images = random_images(rng, 200, domain, t_lo=0, t_hi=49_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        first = index.window_start() // 10_000
        survivor_roots = [b.tree for key, b in index.stats.buckets.items() if key > first]
        assert survivor_roots
        before = [[list(node.images) for node in walk([r])] for r in survivor_roots]
        index.roll_segment(60_000)
        after = [[list(node.images) for node in walk([r])] for r in survivor_roots]
        assert before == after

    def test_roll_walks_no_tree(self, domain):
        # a roll pops the leaving segments' trees with their buckets, and
        # each surviving segment keeps its tree object: none is rebuilt
        rng = random.Random(8)
        index = HiqIndex(make_config(domain, window=3, segment_span=1000, capacity=4))
        for im in sorted(random_images(rng, 120, domain, t_lo=0, t_hi=2999),
                         key=lambda x: x.t_c):
            index.insert(im)

        def trees():
            return {key: bucket.tree for key, bucket in index.stats.buckets.items()}

        held, before = index.image_count(), trees()
        assert index.roll_segment(3000) == 1           # to the next segment
        index.insert(img(1000, 10.0, 10.0, 4500))     # rolls once more
        assert index.image_count() < held
        after = trees()
        assert sorted(after) == [2, 4] and after[2] is before[2]
        # a cutoff inside the empty [3000, 4000) pops the tree of
        # [2000, 3000) whole and keeps the one of [4000, 5000)
        assert index.expire(3500) > 0
        assert trees() == {4: after[4]} and trees()[4] is after[4]
        # a cutoff inside [4000, 5000), which holds images, rebuilds exactly
        # that segment's tree from its images at or after the cutoff
        for id, t in ((1001, 4100), (1002, 4200), (1003, 4700)):
            index.insert(img(id, 10.0, 10.0, t))
        split = index.stats.buckets[4].tree
        assert index.expire(4300) == 2
        assert index.stats.buckets[4].tree is not split
        assert sorted(im.id for im in index.live_images()) == [1000, 1003]
        assert structure_violations(index) == []

    def test_sparse_window_keeps_a_tree_per_held_segment(self, domain):
        # two images, in the first and the last span of a 1000-span window:
        # two trees, not one per span
        index = HiqIndex(make_config(domain, window=1000, segment_span=10))
        first = img(0, 20.0, 20.0, 5, psi=((1, 1), (2, 1)))
        last = img(1, 80.0, 80.0, 999 * 10 + 5, psi=((1, 2),))
        index.insert(first)
        index.insert(last)
        assert index.window_start() == 0
        assert len(index.roots()) == 2
        assert index.node_count() == 2
        assert len(index.segments) == 1000
        rng = random.Random(11)
        for _ in range(20):
            q = random_query(rng, [first, last], domain)
            expected = brute_force_oracle(q, index.live_images(), index.params)
            assert results_match(index.search(q)[0], expected)

    def test_queries_match_oracle_after_expiry(self, domain):
        rng = random.Random(4)
        index = HiqIndex(make_config(domain, window=3, segment_span=10_000, capacity=6))
        images = random_images(rng, 400, domain, t_lo=0, t_hi=99_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        live = list(index.live_images())
        assert len(live) < len(images)  # some expired
        for _ in range(25):
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, live, index.params)
            got, _ = top_k_search(q, index)
            assert [e.image_id for e in got] == [e.image_id for e in expected]

    def test_stats_equal_recomputation(self, domain):
        rng = random.Random(5)
        index = HiqIndex(make_config(domain, window=2, segment_span=5000))
        images = random_images(rng, 300, domain, t_lo=0, t_hi=60_000)
        ops = sorted(images, key=lambda x: x.t_c)
        for i, im in enumerate(ops):
            index.insert(im)
            if i % 37 == 0:
                index.roll_segment(im.t_c // 5000 * 5000 + 5000)   # to the next segment
        assert structure_violations(index) == []

    def test_timestamp_jump_rolls_in_bounded_time(self, domain):
        rng = random.Random(6)
        index = HiqIndex(make_config(domain, window=4, segment_span=60))
        images = random_images(rng, 200, domain, t_lo=1_600_000_000, t_hi=1_600_000_600)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        roll = index.roll_segment
        calls = []

        def counted(now):
            calls.append(now)
            return roll(now)

        index.roll_segment = counted
        # a timestamp in milliseconds: about 2.7e10 spans past the head
        late = img(10_000, 10.0, 10.0, 1_600_000_600 * 1000)
        index.insert(late)
        assert calls == [late.t_c], "one roll per insert"
        assert [im.id for im in index.live_images()] == [10_000]
        assert len(index.segments) == 4
        assert index.segments[-1].start <= late.t_c < index.segments[-1].end
        assert structure_violations(index) == []

    @pytest.mark.parametrize("spans", [1, 2, 3, 4, 5, 9])
    def test_jump_leaves_the_segments_rolling_leaves(self, domain, spans):
        for cls in INDEX_CLASSES:
            jumped, rolled, t, rng = _rolled_pair(cls, domain, spans)
            late = img(1000, 50.0, 50.0, t)
            jumped.insert(late)
            rolled.insert(late)
            _assert_same_window(jumped, rolled, rng, domain)

    @pytest.mark.parametrize("spans", [1, 2, 3, 4, 5, 9])
    @pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
    def test_roll_to_now_equals_one_span_rolls(self, domain, cls, spans):
        jumped, rolled, t, rng = _rolled_pair(cls, domain, spans)
        before = jumped.window_start()
        expired = jumped.roll_segment(t)
        assert expired == (rolled.window_start() - before) // 3000
        late = img(1000, 50.0, 50.0, t)
        jumped.insert(late)
        rolled.insert(late)
        _assert_same_window(jumped, rolled, rng, domain)


def _rolled_pair(cls, domain, spans):
    """Two ``cls`` indexes over one stream, the second then rolled one span
    at a time ``spans`` times, and a time ``t`` in the head segment it
    ends with."""
    rng = random.Random(spans)
    images = sorted(random_images(rng, 60, domain, t_lo=0, t_hi=11_999),
                    key=lambda x: x.t_c)
    jumped, rolled = (cls(make_config(domain, window=3, segment_span=3000))
                      for _ in range(2))
    for im in images:
        jumped.insert(im)
        rolled.insert(im)
    head_end = images[-1].t_c // 3000 * 3000 + 3000
    for i in range(spans):
        rolled.roll_segment(head_end + i * 3000)      # a time in the next segment
    return jumped, rolled, head_end + spans * 3000 - 1, rng


def _assert_same_window(jumped, rolled, rng, domain):
    live = rolled.live_images()
    assert [im.id for im in jumped.live_images()] == [im.id for im in live]
    assert jumped.window_start() == rolled.window_start()
    assert structure_violations(jumped) == structure_violations(rolled) == []
    if isinstance(jumped, HiqIndex):
        assert [(s.start, s.end) for s in jumped.segments] == \
            [(s.start, s.end) for s in rolled.segments]
    for _ in range(5):
        q = random_query(rng, live, domain)
        assert results_match(jumped.search(q)[0], rolled.search(q)[0])


class TestMind:
    def test_zero_when_node_holds_everything(self, domain):
        index = HiqIndex(make_config(domain))
        index.insert(img(0, 50.0, 50.0, 5000, psi=((1, 2), (2, 3))))
        root, = index.roots()
        q = Query(psi=(1, 2), loc=(50.0, 50.0), t=4000, k=1, weights=(1 / 3, 1 / 3, 1 / 3))
        assert index.mind(q, root) == 0.0

    def test_word_free_node_uses_floor_and_dominates(self, domain):
        index = HiqIndex(make_config(domain))
        index.insert(img(0, 10.0, 10.0, 1000, psi=((1, 1),)))
        index.insert(img(1, 90.0, 90.0, 1000, psi=((2, 1), (3, 1))))
        root, = index.roots()
        from geostream.model import combined_score

        q = Query(psi=(9,), loc=(50.0, 50.0), t=2000, k=1, weights=(0.4, 0.3, 0.3))
        bound = index.mind(q, root)
        # word 9 occurs nowhere; bound must still sit below both images
        for im in index.live_images():
            assert bound <= combined_score(q, im, index.params).f_stv + 1e-12

    def test_dominance_random_subtrees(self, domain):
        rng = random.Random(6)
        index = HiqIndex(make_config(domain, capacity=4, segment_span=50_000))
        images = random_images(rng, 300, domain, t_lo=0, t_hi=49_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        for _ in range(20):
            q = random_query(rng, images, domain)
            assert dominance_violations(q, index, tol=1e-9) == 0
