import math
import random

import pytest

from geostream.engine import brute_force_oracle, top_k_search
from geostream.hiq import ExpiredArrivalError, HiqConfig, HiqIndex
from geostream.model import ConfigError, CorpusStats, DomainError, GeoTemporalImage, Query
from geostream.verify import random_images, random_query


def make_config(domain, **kw):
    kw.setdefault("segment_span", 3600)
    kw.setdefault("window", 24)
    kw.setdefault("capacity", 4)
    kw.setdefault("max_depth", 8)
    return HiqConfig(domain=domain, **kw)


def img(id, lat, lon, t_c, psi=((1, 1),)):
    return GeoTemporalImage(id, lat, lon, t_c, psi)


class TestConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, True],
                             ids=["nan", "inf", "fractional", "bool"])
    @pytest.mark.parametrize("name", ["segment_span", "window", "capacity", "max_depth"])
    def test_non_whole_sizes_rejected(self, domain, name, value):
        with pytest.raises(ConfigError, match=name):
            make_config(domain, **{name: value})

    def test_whole_float_sizes_become_ints(self, domain):
        config = make_config(domain, segment_span=60.0, window=3.0)
        assert (config.segment_span, config.window) == (60, 3)
        assert type(config.segment_span) is int and type(config.window) is int


class TestInsert:
    def test_first_insertion(self, domain):
        index = HiqIndex(make_config(domain))
        index.insert(img(0, 10.0, 10.0, 5000))
        assert len(index.segments) == 1
        root = index.segments[0].root
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
        root = index.segments[0].root
        assert root.children is not None
        for child, (lat, lon) in zip(root.children, pts):
            assert len(child.images) == 1
            assert child.images[0].lat == lat and child.images[0].lon == lon

    def test_domain_violation(self, domain):
        index = HiqIndex(make_config(domain))
        with pytest.raises(DomainError):
            index.insert(img(0, 200.0, 10.0, 0))

    def test_late_arrival_before_window_rejected(self, domain):
        index = HiqIndex(make_config(domain, window=2))
        index.insert(img(0, 10.0, 10.0, 100_000))
        for _ in range(5):
            index.roll_segment(0)
        with pytest.raises(ExpiredArrivalError):
            index.insert(img(1, 10.0, 10.0, 100_000))

    def test_enumeration_returns_inserted_multiset(self, domain):
        rng = random.Random(1)
        index = HiqIndex(make_config(domain))
        images = random_images(rng, 300, domain, t_lo=0, t_hi=80_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        assert sorted(im.id for im in index.live_images()) == sorted(im.id for im in images)


def _walk(node):
    yield node
    if node.children is not None:
        for c in node.children:
            yield from _walk(c)


def _subtree_images(node):
    out = []
    for n in _walk(node):
        if n.children is None:
            out.extend(n.images)
    return out


class TestStructuralInvariants:
    @pytest.fixture
    def built(self, domain):
        rng = random.Random(2)
        index = HiqIndex(make_config(domain, capacity=5, segment_span=20_000))
        images = random_images(rng, 1000, domain, t_lo=0, t_hi=99_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        return index

    def test_inner_max_weight_equals_subtree_max(self, built):
        for seg in built.segments:
            for node in _walk(seg.root):
                subtree = _subtree_images(node)
                expected = {}
                for im in subtree:
                    for w, tf in im.psi:
                        f = tf / im.total_tf
                        expected[w] = max(expected.get(w, 0.0), f)
                assert node.max_freq == expected

    def test_t_max_equals_subtree_max(self, built):
        for seg in built.segments:
            for node in _walk(seg.root):
                subtree = _subtree_images(node)
                if subtree:
                    assert node.t_max == max(im.t_c for im in subtree)

    def test_children_tile_parent(self, built):
        for seg in built.segments:
            for node in _walk(seg.root):
                if node.children is None:
                    continue
                nw, ne, sw, se = node.children
                mid_lat = (node.min_lat + node.max_lat) / 2
                mid_lon = (node.min_lon + node.max_lon) / 2
                assert nw.min_lat == mid_lat and nw.max_lon == mid_lon
                assert ne.min_lat == mid_lat and ne.min_lon == mid_lon
                assert sw.max_lat == mid_lat and sw.max_lon == mid_lon
                assert se.max_lat == mid_lat and se.min_lon == mid_lon
                for child in node.children:
                    assert child.min_lat >= node.min_lat and child.max_lat <= node.max_lat
                    assert child.min_lon >= node.min_lon and child.max_lon <= node.max_lon

    def test_images_inside_rects(self, built):
        for seg in built.segments:
            for node in _walk(seg.root):
                if node.children is not None:
                    continue
                for im in node.images:
                    assert node.min_lat <= im.lat <= node.max_lat
                    assert node.min_lon <= im.lon <= node.max_lon

    def test_segment_spans_disjoint_contiguous(self, built):
        segs = built.segments
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start
        held = 0
        for seg in segs:
            for im in _subtree_images(seg.root):
                assert seg.start <= im.t_c < seg.end
                held += 1
        assert held == built.image_count()


class TestRollSegment:
    def test_full_expiry_window_one(self, domain):
        index = HiqIndex(make_config(domain, window=1))
        index.insert(img(0, 10.0, 10.0, 1000))
        expired = index.roll_segment(5000)
        assert expired == 1
        assert index.image_count() == 0
        assert index.stats.total_word_count == 0

    def test_window_arithmetic(self, domain):
        index = HiqIndex(make_config(domain, window=3))
        for _ in range(5):
            index.roll_segment(0)
        assert len(index.segments) == 3

    def test_roll_preserves_surviving_trees(self, domain):
        rng = random.Random(3)
        index = HiqIndex(make_config(domain, window=10, segment_span=10_000))
        images = random_images(rng, 200, domain, t_lo=0, t_hi=49_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        survivor_roots = [seg.root for seg in index.segments[1:]]
        before = [sorted(im.id for im in _subtree_images(r)) for r in survivor_roots]
        index.roll_segment(60_000)
        after = [sorted(im.id for im in _subtree_images(r)) for r in survivor_roots]
        assert before == after

    def test_roll_walks_no_tree(self, domain, monkeypatch):
        # a roll pops the leaving segments before it expires their images,
        # so the expiry finds no tree to rebuild
        from geostream import hiq

        walks = []
        walk = hiq.walk

        def counted(roots):
            walks.append(roots)
            return walk(roots)

        monkeypatch.setattr(hiq, "walk", counted)
        rng = random.Random(8)
        index = HiqIndex(make_config(domain, window=3, segment_span=1000, capacity=4))
        for im in sorted(random_images(rng, 120, domain, t_lo=0, t_hi=2999),
                         key=lambda x: x.t_c):
            index.insert(im)
        held = index.image_count()
        assert index.roll_segment(2999) == 1
        index.insert(img(1000, 10.0, 10.0, 4500))     # rolls once more
        assert index.image_count() < held
        assert walks == []
        # a cutoff inside a segment rebuilds the trees of [2000, 3000)
        # and [3000, 4000)
        assert index.expire(3500) > 0
        assert len(walks) == 2

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
                index.roll_segment(im.t_c)
        fresh = CorpusStats()
        for im in index.live_images():
            fresh.add_image(im)
        assert index.stats.total_word_count == fresh.total_word_count
        assert index.stats.word_corpus_tf == fresh.word_corpus_tf
        for w in fresh.word_corpus_tf:
            assert index.stats.max_freq(w) == fresh.max_freq(w)

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
            assert len(calls) <= index.config.window, "one roll per elapsed span"
            return roll(now)

        index.roll_segment = counted
        # a timestamp in milliseconds: about 2.7e10 spans past the head
        late = img(10_000, 10.0, 10.0, 1_600_000_600 * 1000)
        index.insert(late)
        assert [im.id for im in index.live_images()] == [10_000]
        assert len(index.segments) == 4
        assert index.segments[-1].start <= late.t_c < index.segments[-1].end
        fresh = CorpusStats()
        fresh.add_image(late)
        assert index.stats.total_word_count == fresh.total_word_count
        assert index.stats.word_corpus_tf == fresh.word_corpus_tf
        assert index.stats.max_freq(1) == fresh.max_freq(1)

    @pytest.mark.parametrize("spans", [1, 2, 3, 4, 5, 9])
    def test_jump_leaves_the_segments_rolling_leaves(self, domain, spans):
        rng = random.Random(spans)
        images = sorted(random_images(rng, 60, domain, t_lo=0, t_hi=11_999),
                        key=lambda x: x.t_c)
        jumped, rolled = (HiqIndex(make_config(domain, window=3, segment_span=3000))
                          for _ in range(2))
        for im in images:
            jumped.insert(im)
            rolled.insert(im)
        t = rolled.segments[-1].end + spans * 3000 - 1
        while t >= rolled.segments[-1].end:
            rolled.roll_segment(t)
        late = img(1000, 50.0, 50.0, t)
        jumped.insert(late)
        rolled.insert(late)
        assert [(s.start, s.end) for s in jumped.segments] == \
            [(s.start, s.end) for s in rolled.segments]
        assert [im.id for im in jumped.live_images()] == [im.id for im in rolled.live_images()]
        assert jumped.stats.word_corpus_tf == rolled.stats.word_corpus_tf


class TestMind:
    def test_zero_when_node_holds_everything(self, domain):
        index = HiqIndex(make_config(domain))
        index.insert(img(0, 50.0, 50.0, 5000, psi=((1, 2), (2, 3))))
        root = index.segments[0].root
        q = Query(psi=(1, 2), loc=(50.0, 50.0), t=4000, k=1, weights=(1 / 3, 1 / 3, 1 / 3))
        assert index.mind(q, root) == 0.0

    def test_word_free_node_uses_floor_and_dominates(self, domain):
        index = HiqIndex(make_config(domain))
        index.insert(img(0, 10.0, 10.0, 1000, psi=((1, 1),)))
        index.insert(img(1, 90.0, 90.0, 1000, psi=((2, 1), (3, 1))))
        root = index.segments[0].root
        from geostream.model import combined_score

        q = Query(psi=(9,), loc=(50.0, 50.0), t=2000, k=1, weights=(0.4, 0.3, 0.3))
        bound = index.mind(q, root)
        # word 9 occurs nowhere; bound must still sit below both images
        for im in index.live_images():
            assert bound <= combined_score(q, im, index.params).f_stv + 1e-12

    def test_dominance_random_subtrees(self, domain):
        from geostream.model import combined_score

        rng = random.Random(6)
        index = HiqIndex(make_config(domain, capacity=4, segment_span=50_000))
        images = random_images(rng, 300, domain, t_lo=0, t_hi=49_000)
        for im in sorted(images, key=lambda x: x.t_c):
            index.insert(im)
        for _ in range(20):
            q = random_query(rng, images, domain)
            for seg in index.segments:
                for node in _walk(seg.root):
                    subtree = _subtree_images(node)
                    if not subtree:
                        continue
                    bound = index.mind(q, node)
                    low = min(combined_score(q, im, index.params).f_stv for im in subtree)
                    assert bound <= low + 1e-9
