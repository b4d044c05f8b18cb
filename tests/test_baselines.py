import random

import pytest

from geostream.baselines import IfaIndex, StviiIndex, _box_volume, _quadratic_split
from geostream.engine import brute_force_oracle, top_k_search
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import (
    CorpusStats,
    DomainError,
    GeoTemporalImage,
    Query,
    ScoreParams,
    combined_score,
)
from geostream.verify import random_images, random_query, results_match


def make_config(domain, **kw):
    kw.setdefault("segment_span", 10_000)
    kw.setdefault("window", 10)
    kw.setdefault("capacity", 8)
    return HiqConfig(domain=domain, **kw)


def img(id, lat=10.0, lon=10.0, t_c=100, psi=((1, 1),)):
    return GeoTemporalImage(id, lat, lon, t_c, psi)


INDEX_CLASSES = [HiqIndex, IfaIndex, StviiIndex]


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_duplicate_id_rejected(cls, domain):
    index = cls(make_config(domain))
    index.insert(img(0))
    with pytest.raises(ValueError, match="duplicate image id 0"):
        index.insert(img(0, t_c=200))
    assert [im.id for im in index.live_images()] == [0]
    assert index.stats.total_word_count == 1


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_expired_id_may_return(cls, domain):
    config = make_config(domain, window=2)
    index = cls(config)
    index.insert(img(0, t_c=100))
    later = 100 + 3 * config.segment_span
    index.insert(img(1, t_c=later))         # HIQ rolls segment 0 out here
    if cls is not HiqIndex:
        index.expire(later - config.segment_span)
    index.insert(img(0, t_c=later))
    assert sorted(im.id for im in index.live_images()) == [0, 1]


def oracle_over_live_set(q, index):
    """The oracle over a fresh recount of the live set, so it shares no
    cached scoring state with the index."""
    live = list(index.live_images())
    stats = CorpusStats()
    for im in live:
        stats.add_image(im)
    p = index.params
    params = ScoreParams(domain=p.domain, stats=stats, xi=p.xi,
                         decay_base=p.decay_base, time_unit=p.time_unit)
    return brute_force_oracle(q, live, params)


@pytest.mark.parametrize("change", ["insert", "expire", "slide"])
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_reused_query_sees_corpus_changes(cls, change, domain):
    # expire: HIQ rolls a segment out, IFA and STVII expire (STVII swaps in
    # a new CorpusStats); slide: expire, then insert as many images as left,
    # which brings STVII's new stats back to the old version number
    config = make_config(domain, window=2)
    span = config.segment_span
    rng = random.Random(41)
    old = random_images(rng, 60, domain, vocab=10, t_lo=0, t_hi=span - 1)
    new = random_images(rng, 60, domain, vocab=10, t_lo=span, t_hi=2 * span - 1, id_base=100)
    index = cls(config)
    for im in old + sorted(new, key=lambda im: im.t_c):
        index.insert(im)
    q = Query(psi=(0, 3, 6), loc=(50.0, 50.0), t=3 * span, k=10,
              weights=(0.2, 0.6, 0.2))
    assert results_match(index.search(q)[0], oracle_over_live_set(q, index))

    if change == "insert":
        index.insert(img(500, t_c=2 * span - 1, psi=((0, 4), (3, 1))))
    else:
        if cls is HiqIndex:
            index.roll_segment(2 * span)
        else:
            index.expire(span)
        assert index.image_count() == len(new)
        if change == "slide":
            for im in random_images(rng, len(old), domain, vocab=10, t_lo=2 * span,
                                    t_hi=3 * span - 1, id_base=200):
                index.insert(im)
    assert results_match(index.search(q)[0], oracle_over_live_set(q, index))


class TestIfa:
    def test_one_list_per_word(self, domain):
        index = IfaIndex(make_config(domain))
        index.insert(img(0, psi=((1, 2), (4, 1), (9, 3))))
        assert sorted(index.postings) == [1, 4, 9]
        assert all(len(lst) == 1 for lst in index.postings.values())

    def test_append_preserves_order(self, domain):
        index = IfaIndex(make_config(domain))
        index.insert(img(0, t_c=100))
        index.insert(img(1, t_c=200))
        assert [e[1] for e in index.postings[1]] == [0, 1]

    def test_sortedness_after_random_inserts(self, domain):
        rng = random.Random(31)
        index = IfaIndex(make_config(domain))
        images = random_images(rng, 1000, domain)
        rng.shuffle(images)  # deliberately out of time order
        for im in images:
            index.insert(im)
        for lst in index.postings.values():
            keys = [(t, i) for t, i, _ in lst]
            assert keys == sorted(keys)

    def test_search_no_vocabulary_overlap(self, domain):
        index = IfaIndex(make_config(domain))
        index.insert(img(0, psi=((1, 1),)))
        q = random_query(random.Random(0), [img(0, psi=((1, 1),))], domain)
        q = type(q)(psi=(999,), loc=q.loc, t=q.t, k=q.k, weights=q.weights)
        results, _ = index.search(q)
        assert results == []

    def test_search_matches_oracle(self, domain):
        rng = random.Random(32)
        for _ in range(20):
            images = random_images(rng, rng.randint(10, 200), domain)
            index = IfaIndex(make_config(domain))
            for im in images:
                index.insert(im)
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, images, index.params)
            got, stats = index.search(q)
            assert results_match(got, expected)
            qwords = set(q.psi)
            n_common = sum(1 for im in images if not qwords.isdisjoint(im.word_tf))
            assert stats.images_scored == n_common

    def test_expire(self, domain):
        rng = random.Random(33)
        images = random_images(rng, 500, domain, t_lo=0, t_hi=10_000)
        index = IfaIndex(make_config(domain))
        for im in images:
            index.insert(im)
        removed = index.expire(5000)
        survivors = {im.id for im in images if im.t_c >= 5000}
        assert removed == len(images) - len(survivors)
        assert {im.id for im in index.live_images()} == survivors
        # stats reflect the survivors exactly
        from geostream.model import CorpusStats

        fresh = CorpusStats()
        for im in index.live_images():
            fresh.add_image(im)
        assert index.stats.word_corpus_tf == fresh.word_corpus_tf
        assert index.stats.total_word_count == fresh.total_word_count

    def test_expire_edge_cases(self, domain):
        index = IfaIndex(make_config(domain))
        assert index.expire(100) == 0
        index.insert(img(0, t_c=10))
        index.insert(img(1, t_c=20))
        assert index.expire(1000) == 2
        assert index.postings == {}


def _walk(node):
    yield node
    if not node.is_leaf:
        for c in node.children:
            yield from _walk(c)


def _subtree_images(node):
    out = []
    for n in _walk(node):
        if n.is_leaf:
            out.extend(n.images)
    return out


class TestStvii:
    def test_first_insert_degenerate_mbr(self, domain):
        index = StviiIndex(make_config(domain))
        index.insert(img(0, 30.0, 40.0, 500))
        mbr = index.root.mbr
        assert mbr[0] == mbr[3] and mbr[1] == mbr[4] and mbr[2] == mbr[5]

    def test_forced_split_min_fill(self, domain):
        cfg = make_config(domain, capacity=10)
        index = StviiIndex(cfg)
        rng = random.Random(34)
        for i in range(11):
            index.insert(img(i, rng.uniform(0, 100), rng.uniform(0, 100), 100 + i))
        root = index.root
        assert not root.is_leaf and len(root.children) == 2
        for child in root.children:
            assert len(child.images) >= index.min_fill

    def test_domain_violation(self, domain):
        index = StviiIndex(make_config(domain))
        with pytest.raises(DomainError):
            index.insert(img(0, -5.0, 10.0, 0))

    def test_structural_audit_after_1000_inserts(self, domain):
        rng = random.Random(35)
        index = StviiIndex(make_config(domain, capacity=6))
        images = random_images(rng, 1000, domain)
        for im in images:
            index.insert(im)
        assert sorted(im.id for im in index.live_images()) == list(range(1000))
        for node in _walk(index.root):
            if node.is_leaf:
                for im in node.images:
                    p = index._box(im)
                    for d in range(3):
                        assert node.mbr[d] <= p[d] <= node.mbr[d + 3]
            else:
                for child in node.children:
                    for d in range(3):
                        assert node.mbr[d] <= child.mbr[d]
                        assert child.mbr[d + 3] <= node.mbr[d + 3]
            subtree = _subtree_images(node)
            expected = {}
            for im in subtree:
                for w, tf in im.psi:
                    f = tf / im.total_tf
                    expected[w] = max(expected.get(w, 0.0), f)
            assert node.max_freq == expected
            assert node.t_max == max(im.t_c for im in subtree)

    def test_mind_zero_inside_fresh_covering_node(self, domain):
        index = StviiIndex(make_config(domain))
        index.insert(img(0, 50.0, 50.0, 5000, psi=((1, 1), (2, 2))))
        from geostream.model import Query

        q = Query(psi=(1, 2), loc=(50.0, 50.0), t=4000, k=1, weights=(1 / 3, 1 / 3, 1 / 3))
        assert index.mind(q, index.root) == 0.0

    def test_mind_dominance(self, domain):
        rng = random.Random(36)
        index = StviiIndex(make_config(domain, capacity=5))
        images = random_images(rng, 400, domain)
        for im in images:
            index.insert(im)
        for _ in range(20):
            q = random_query(rng, images, domain)
            for node in _walk(index.root):
                subtree = _subtree_images(node)
                bound = index.mind(q, node)
                low = min(combined_score(q, im, index.params).f_stv for im in subtree)
                assert bound <= low + 1e-9

    def test_search_matches_oracle(self, domain):
        rng = random.Random(37)
        for _ in range(20):
            images = random_images(rng, rng.randint(10, 200), domain)
            index = StviiIndex(make_config(domain, capacity=6))
            for im in images:
                index.insert(im)
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, images, index.params)
            got, _ = top_k_search(q, index)
            assert results_match(got, expected)

    def test_expire_rebuilds_live_set(self, domain):
        rng = random.Random(38)
        images = random_images(rng, 300, domain, t_lo=0, t_hi=10_000)
        index = StviiIndex(make_config(domain, capacity=6))
        for im in images:
            index.insert(im)
        removed = index.expire(6000)
        survivors = {im.id for im in images if im.t_c >= 6000}
        assert removed == len(images) - len(survivors)
        assert {im.id for im in index.live_images()} == survivors

    def test_expire_without_old_images_keeps_tree(self, domain):
        rng = random.Random(41)
        images = random_images(rng, 100, domain, t_lo=5000, t_hi=10_000)
        index = StviiIndex(make_config(domain, capacity=6))
        for im in images:
            index.insert(im)
        root = index.root
        assert index.expire(5000) == 0
        assert index.root is root
        assert sorted(im.id for im in index.live_images()) == list(range(100))


def test_quadratic_split_respects_min_fill():
    rng = random.Random(39)
    for _ in range(50):
        n = rng.randint(4, 30)
        boxes = []
        for _ in range(n):
            x, y, t = rng.random(), rng.random(), rng.random()
            dx, dy, dt = rng.random() * 0.1, rng.random() * 0.1, rng.random() * 0.1
            boxes.append((x, y, t, x + dx, y + dy, t + dt))
        m = rng.randint(1, n // 2)
        g1, g2 = _quadratic_split(boxes, m)
        assert sorted(g1 + g2) == list(range(n))
        assert len(g1) >= m and len(g2) >= m


def test_all_indexes_agree(domain):
    from geostream.verify import build_all

    rng = random.Random(40)
    images = random_images(rng, 300, domain, t_lo=0, t_hi=50_000)
    hiq, ifa, stvii = build_all(images, make_config(domain, segment_span=20_000, capacity=6))
    live = list(hiq.live_images())
    for _ in range(30):
        q = random_query(rng, images, domain)
        expected = brute_force_oracle(q, live, hiq.params)
        got_h, stats_h = top_k_search(q, hiq)
        got_i, stats_i = ifa.search(q)
        got_s, _ = top_k_search(q, stvii)
        assert results_match(got_h, expected)
        assert results_match(got_i, expected)
        assert results_match(got_s, expected)
        # pruning never scores more than the exhaustive candidate scan
        assert stats_h.images_scored <= stats_i.images_scored
