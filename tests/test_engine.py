import math
import random

import pytest

from geostream import engine
from geostream.baselines import StviiIndex
from geostream.engine import brute_force_oracle, top_k_search
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import GeoTemporalImage, Query, combined_score
from geostream.verify import random_images, random_query, results_match


def make_index(domain, images, **kw):
    kw.setdefault("segment_span", 200_000)
    kw.setdefault("capacity", 5)
    config = HiqConfig(domain=domain, **kw)
    index = HiqIndex(config)
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    return index


class TestTopKSearch:
    def test_single_candidate(self, domain):
        img = GeoTemporalImage(7, 10.0, 10.0, 100, [(1, 2), (3, 1)])
        index = make_index(domain, [img])
        q = Query(psi=(1,), loc=(20.0, 20.0), t=500, k=5, weights=(1 / 3, 1 / 3, 1 / 3))
        results, stats = top_k_search(q, index)
        assert [e.image_id for e in results] == [7]
        expected = brute_force_oracle(q, [img], index.params)
        assert results[0].score == expected[0].score
        assert stats.images_scored == 1

    def test_common_term_filter_caps_results(self, domain):
        images = [GeoTemporalImage(i, 10.0 + i, 10.0, 100, [(1, 1)]) for i in range(3)]
        images += [GeoTemporalImage(10 + i, 50.0, 50.0 + i, 100, [(9, 1)]) for i in range(5)]
        index = make_index(domain, images)
        q = Query(psi=(1,), loc=(10.0, 10.0), t=200, k=10, weights=(1 / 3, 1 / 3, 1 / 3))
        results, _ = top_k_search(q, index)
        assert len(results) == 3
        assert all(e.image_id < 3 for e in results)

    def test_empty_index(self, domain):
        index = HiqIndex(HiqConfig(domain=domain))
        q = Query(psi=(1,), loc=(10.0, 10.0), t=0, k=3, weights=(1 / 3, 1 / 3, 1 / 3))
        results, stats = top_k_search(q, index)
        assert results == []
        assert stats.nodes_visited == 0

    def test_oracle_equivalence_random(self, domain):
        rng = random.Random(21)
        images = random_images(rng, 500, domain)
        index = make_index(domain, images)
        live = list(index.live_images())
        for _ in range(100):
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, live, index.params)
            got, _ = top_k_search(q, index)
            assert results_match(got, expected)

    def test_determinism(self, domain):
        rng = random.Random(22)
        images = random_images(rng, 200, domain)
        index = make_index(domain, images)
        q = random_query(rng, images, domain)
        r1, s1 = top_k_search(q, index)
        r2, s2 = top_k_search(q, index)
        assert r1 == r2
        assert s1 == s2

    def test_threshold_safety_audit(self, domain):
        rng = random.Random(23)
        images = random_images(rng, 300, domain)
        index = make_index(domain, images, capacity=4)
        for _ in range(30):
            q = random_query(rng, images, domain)
            audit = []
            results, _ = top_k_search(q, index, audit=audit)
            if results and audit:
                worst = max(e.score.f_stv for e in results)
                assert worst <= min(audit) + 1e-9

    def test_images_scored_bounded_by_common_term_count(self, domain):
        rng = random.Random(24)
        images = random_images(rng, 400, domain)
        index = make_index(domain, images)
        for _ in range(20):
            q = random_query(rng, images, domain)
            qwords = set(q.psi)
            with_common = sum(
                1 for im in index.live_images() if not qwords.isdisjoint(im.word_tf)
            )
            _, stats = top_k_search(q, index)
            assert stats.images_scored <= with_common

    def test_heap_peak_positive(self, domain):
        rng = random.Random(25)
        images = random_images(rng, 100, domain)
        index = make_index(domain, images)
        q = random_query(rng, images, domain)
        _, stats = top_k_search(q, index)
        assert stats.heap_peak >= 1


class TestOracle:
    def test_empty_list(self, domain):
        from geostream.model import CorpusStats, ScoreParams

        params = ScoreParams(domain=domain, stats=CorpusStats())
        q = Query(psi=(1,), loc=(0.0, 0.0), t=0, k=3, weights=(1 / 3, 1 / 3, 1 / 3))
        assert brute_force_oracle(q, [], params) == []

    def test_no_common_word_filtered(self, domain):
        img = GeoTemporalImage(0, 10.0, 10.0, 100, [(5, 1)])
        index = make_index(domain, [img])
        q = Query(psi=(1,), loc=(10.0, 10.0), t=100, k=3, weights=(1 / 3, 1 / 3, 1 / 3))
        assert brute_force_oracle(q, [img], index.params) == []

    def test_permutation_stable(self, domain):
        rng = random.Random(26)
        images = random_images(rng, 80, domain)
        index = make_index(domain, images)
        q = random_query(rng, images, domain)
        a = brute_force_oracle(q, images, index.params)
        shuffled = list(images)
        rng.shuffle(shuffled)
        b = brute_force_oracle(q, shuffled, index.params)
        assert a == b

    def test_ties_broken_by_id(self, domain):
        # identical images except id: scores tie exactly, ids ascend
        twins = [GeoTemporalImage(i, 30.0, 30.0, 500, [(1, 2)]) for i in (9, 3, 5)]
        index = make_index(domain, twins)
        q = Query(psi=(1,), loc=(40.0, 40.0), t=900, k=2, weights=(1 / 3, 1 / 3, 1 / 3))
        got = brute_force_oracle(q, twins, index.params)
        assert [e.image_id for e in got] == [3, 5]
        via_index, _ = top_k_search(q, index)
        assert [e.image_id for e in via_index] == [3, 5]


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_leaf_candidates_and_tree_counts(cls, domain):
    rng = random.Random(23)
    images = random_images(rng, 300, domain, t_lo=0, t_hi=50_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, capacity=6))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    nodes = []
    stack = list(index.roots())
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.children is not None:
            stack.extend(node.children)
    leaves = [node for node in nodes if node.children is None]
    assert index.node_count() == len(nodes)
    assert sorted(im.id for im in index.live_images()) == \
        sorted(im.id for leaf in leaves for im in leaf.images) == list(range(300))
    for _ in range(10):
        q = random_query(rng, images, domain)
        for leaf in leaves:
            expected = sorted(
                (im for im in leaf.images if set(im.word_tf) & set(q.psi)),
                key=lambda im: im.id,
            )
            # pairs come in no set order, which the search does not depend on
            scored = sorted(index.candidates(q, leaf), key=lambda pair: pair[1].id)
            assert [im for _f, im in scored] == expected
            for f, im in scored:
                assert f == combined_score(q, im, index.params).f_stv


def twinned_index(cls, domain, rng):
    """An index over random images, each followed by a twin (id + 1000,
    same location, time and words), so the twins' scores tie exactly."""
    images = random_images(rng, 200, domain, t_lo=0, t_hi=50_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, capacity=6))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
        index.insert(GeoTemporalImage(img.id + 1000, img.lat, img.lon, img.t_c, img.psi))
    return index, images


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_result_scores_are_combined_scores(cls, domain):
    rng = random.Random(41)
    index, images = twinned_index(cls, domain, rng)
    live = {img.id: img for img in index.live_images()}
    for _ in range(40):
        q = random_query(rng, images, domain)
        results, _ = top_k_search(q, index)
        assert results_match(results, brute_force_oracle(q, live.values(), index.params))
        for e in results:
            assert e.score == combined_score(q, live[e.image_id], index.params)


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_breakdowns_for_the_results_only(cls, domain, monkeypatch):
    # a count, not a timing: one combined_score per result, whatever the
    # machine, and every candidate drawn is counted as scored
    rng = random.Random(42)
    index, images = twinned_index(cls, domain, rng)
    broken_down, drawn = [], []
    leaf_candidates = index.candidates

    def counted_score(q, img, params):
        broken_down.append(img.id)
        return combined_score(q, img, params)

    def counted_candidates(q, leaf):
        drawn.append(leaf_candidates(q, leaf))
        return drawn[-1]

    monkeypatch.setattr(engine, "combined_score", counted_score)
    monkeypatch.setattr(index, "candidates", counted_candidates)
    more_drawn_than_kept = False
    for _ in range(30):
        q = random_query(rng, images, domain)
        broken_down.clear()
        drawn.clear()
        results, stats = top_k_search(q, index)
        assert sorted(broken_down) == sorted(e.image_id for e in results)
        assert stats.images_scored == sum(map(len, drawn))
        more_drawn_than_kept |= stats.images_scored > len(results)
    assert more_drawn_than_kept
