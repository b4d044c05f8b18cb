import dataclasses
import math
import random

import pytest

from geostream import engine, kernels
from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import brute_force_oracle, top_k_search, walk
from geostream.hiq import HiqConfig, HiqIndex, QuadNode
from geostream.model import GeoTemporalImage, Query, combined_score, mind_visual
from geostream.verify import leaf_bound_violations, random_images, random_query, results_match


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
        assert stats.nodes_visited == stats.roots == 0

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

        params = ScoreParams(domain=domain, stats=CorpusStats(3600))
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
    # this index at the default xi = 0.5 over 60 words, then one at
    # xi = 0.35 over 8 words, where the scale 1 - xi rounds in the last bit
    # of some costs
    twinned = twinned_index(cls, domain, random.Random(24), vocab=8, xi=0.35)
    for (index, images), vocab, max_words in (((index, images), 60, 20), (twinned, 8, 3)):
        leaves = [node for node in walk(index.roots()) if node.children is None]
        for _ in range(10):
            q = random_query(rng, images, domain, vocab=vocab, max_words=max_words)
            for leaf in leaves:
                # pairs come in no set order, which the search does not depend on
                scored = sorted(index.candidates(q, leaf), key=lambda pair: pair[1].id)
                assert scored == within(holding_pairs(q, leaf, index.params), math.inf, q.k)


def uncached(params):
    """New ``ScoreParams`` equal to ``params``, over the same stats, with
    no context, word table or recorded terms yet: a reference that
    nothing the scorer cached in ``params`` can reach."""
    return dataclasses.replace(params)


def holding_pairs(q, leaf, params):
    """``(f_stv, image)`` from ``combined_score`` for each image of the
    leaf that holds a query word, by id, from uncached parameters."""
    qwords = set(q.psi)
    reference = uncached(params)
    return [(combined_score(q, im, reference).f_stv, im)
            for im in sorted(leaf.images, key=lambda im: im.id)
            if not qwords.isdisjoint(im.word_tf)]


def within(pairs, lam, k):
    """The pairs that cost at most ``lam`` and at most the k-th lowest
    cost among them all."""
    costs = sorted(f for f, _im in pairs)
    cut = min(lam, costs[k - 1] if len(costs) >= k else math.inf)
    return [(f, im) for f, im in pairs if f <= cut]


def twinned_index(cls, domain, rng, vocab=60, **kw):
    """An index over random images of a ``vocab``-word vocabulary, each
    followed by a twin (id + 1000, same location, time and words), so the
    twins' scores tie exactly."""
    images = random_images(rng, 200, domain, vocab=vocab, t_lo=0, t_hi=50_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, capacity=6, **kw))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
        index.insert(GeoTemporalImage(img.id + 1000, img.lat, img.lon, img.t_c, img.psi))
    return index, images


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_result_scores_are_combined_scores(cls, domain):
    # the default xi = 0.5, then xi = 0.35 over 8 words: short queries
    # whose results hold every query word at a visual cost well below 1.0,
    # and a scale 1 - xi whose products round, so the order of the
    # scorer's arithmetic shows in the last bit of some results
    for seed, xi, vocab, max_words in ((41, 0.5, 60, 20), (44, 0.35, 8, 3)):
        rng = random.Random(seed)
        index, images = twinned_index(cls, domain, rng, vocab=vocab, xi=xi)
        live = {img.id: img for img in index.live_images()}
        for _ in range(40):
            q = random_query(rng, images, domain, vocab=vocab, max_words=max_words)
            results, _ = top_k_search(q, index)
            assert results_match(results, brute_force_oracle(q, live.values(), index.params))
            # after the search, so the index's context holds the scorer's terms
            reference = uncached(index.params)
            for e in results:
                assert e.score == combined_score(q, live[e.image_id], reference)


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex, IfaIndex], ids=lambda c: c.kind)
def test_same_query_object_across_corpus_changes(cls, domain):
    # one Query object searched again after each insert and expiry: the
    # word table and the scorer's terms of the state before must not
    # leak into the answer after it
    rng = random.Random(44)
    images = random_images(rng, 300, domain, vocab=30, t_lo=0, t_hi=30_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, window=4, capacity=6))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    moved = 0
    for trial in range(12):
        q = random_query(rng, images, domain, vocab=30, max_words=4)
        before, _ = index.search(q)
        assert results_match(before, brute_force_oracle(q, index.live_images(), index.params))
        if trial % 3 == 2:
            assert index.expire(2000 * trial) > 0
        else:
            # an image of the query's words alone, at the query's place and
            # time, which raises the words' live maxima
            index.insert(GeoTemporalImage(10_000 + trial, *q.loc, max(q.t, 30_000 + trial),
                                          [(v, 1) for v in q.psi]))
        live = index.live_images()
        by_id = {img.id: img for img in live}
        reference = uncached(index.params)
        # the breakdowns of the last answer, before the search runs again
        for e in before:
            if e.image_id in by_id:
                image = by_id[e.image_id]
                assert combined_score(q, image, index.params) == \
                    combined_score(q, image, reference)
        after, _ = index.search(q)
        assert results_match(after, brute_force_oracle(q, live, index.params))
        for e in after:
            assert e.score == combined_score(q, by_id[e.image_id], reference)
        moved += [e.score for e in after] != [e.score for e in before]
    assert moved == 12


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_search_says_why_it_stopped(cls, domain):
    rng = random.Random(45)
    index, images = twinned_index(cls, domain, rng)
    live = index.image_count()
    stops = []
    for _ in range(20):
        q = random_query(rng, images, domain)
        # k beyond the live images: λ stays infinite and every node is popped
        _, stats = top_k_search(dataclasses.replace(q, k=live + 1), index)
        assert (stats.stop, stats.nodes_pruned, stats.lam) == ("exhausted", 0, math.inf)
        _, stats = top_k_search(dataclasses.replace(q, k=1), index)
        assert stats.stop in ("bound", "exhausted")
        if stats.stop == "bound":
            assert stats.nodes_pruned >= 1 and stats.lam < math.inf
        stops.append(stats.stop)
    assert "bound" in stops


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

    def counted_candidates(q, leaf, *lam):
        drawn.append(leaf_candidates(q, leaf, *lam))
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


def lam_choices(rng, pairs):
    """Thresholds for a leaf: 0, infinity, a random cost, and for some of
    its pairs the exact cost and the float just below it."""
    lams = [0.0, math.inf, rng.uniform(0.0, 1.0)]
    for f, _im in rng.sample(pairs, min(4, len(pairs))):
        lams += [f, math.nextafter(f, -math.inf)]
    return lams


@pytest.mark.parametrize("xi", [0.0, 0.35, 0.5])
@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_leaf_scorer_keeps_exactly_the_pairs_within_lam(cls, xi, domain):
    # xi = 0 gives every query word a zero floor. xi = 0.35 gives a scale
    # 1 - xi whose products round, and with 8 words and short queries many
    # images hold every query word at a visual cost well below 1.0, where
    # that rounding shows in the last bit. Twins tie at every cost, the
    # k-th included
    vocab, max_words = (8, 3) if xi == 0.35 else (60, 20)
    rng = random.Random(71 + int(10 * xi))
    index, images = twinned_index(cls, domain, rng, vocab=vocab, xi=xi)
    leaves = [node for node in walk(index.roots()) if node.children is None]
    biggest = max(len(leaf.images) for leaf in leaves)
    seen = dict(dropped=0, kept=0, empty=0, cut_by_k=0, whole=0)
    for _ in range(12):
        q = random_query(rng, images, domain, vocab=vocab, max_words=max_words)
        # k = biggest covers every leaf, which then returns every pair
        # within lam
        for k in (1, 2, q.k, biggest):
            qk = dataclasses.replace(q, k=k)
            for leaf in leaves:
                every = holding_pairs(qk, leaf, index.params)
                seen["empty"] += leaf.t_max is None
                bound = index.mind(qk, leaf)
                for lam in lam_choices(rng, every):
                    got = sorted(index.candidates(qk, leaf, lam, bound),
                                 key=lambda pair: pair[1].id)
                    lam_only = [(f, im) for f, im in every if f <= lam]
                    assert got == within(every, lam, k)
                    seen["dropped"] += len(lam_only) < len(every)
                    seen["cut_by_k"] += len(got) < len(lam_only)
                    seen["whole"] += k == biggest and 0 < len(got) == len(every)
                    seen["kept"] += bool(got)
    if cls is StviiIndex:
        seen.pop("empty")       # an R-tree splits into non-empty groups
    assert all(seen.values()), seen


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_leaf_pairs_do_not_depend_on_the_bound(cls, domain):
    # any valid bound gives the same pairs: the leaf's own bound, as the
    # search passes it, and 0.0. One 1e-6 above it is no bound, and the
    # radius it leaves loses a pair on some leaf. The default xi = 0.5 over
    # 60 words, then xi = 0.35 over 8 words, where the scale 1 - xi rounds
    # in the last bit of some costs
    for seed, xi, vocab, max_words in ((76, 0.5, 60, 20), (77, 0.35, 8, 3)):
        rng = random.Random(seed)
        index, images = twinned_index(cls, domain, rng, vocab=vocab, xi=xi)
        leaves = [node for node in walk(index.roots()) if node.children is None]
        lost = 0
        for _ in range(12):
            q = random_query(rng, images, domain, vocab=vocab, max_words=max_words)
            for leaf in leaves:
                bound = index.mind(q, leaf)
                every = holding_pairs(q, leaf, index.params)
                for lam in lam_choices(rng, every):
                    got = sorted(index.candidates(q, leaf, lam, bound),
                                 key=lambda pair: pair[1].id)
                    assert got == within(every, lam, q.k)
                    assert got == sorted(index.candidates(q, leaf, lam, 0.0),
                                         key=lambda pair: pair[1].id)
                    lost += len(index.candidates(q, leaf, lam, bound + 1e-6)) < len(got)
        assert lost, xi


def test_one_leaf_segments_score_fewer_than_the_common_word_images(domain):
    # about 50 images a segment under a capacity of 100: each tree is one
    # leaf, so node bounds cannot skip an image of a visited leaf
    rng = random.Random(73)
    images = random_images(rng, 600, domain, t_lo=0, t_hi=59_999)
    index = make_index(domain, images, segment_span=5_000, window=12, capacity=100)
    assert len(index.roots()) == 12
    assert all(root.children is None for root in index.roots())
    live = index.live_images()
    scored = common = 0
    for _ in range(30):
        q = random_query(rng, images, domain)
        results, stats = top_k_search(q, index)
        assert results_match(results, brute_force_oracle(q, live, index.params))
        qwords = set(q.psi)
        with_common = sum(1 for im in live if not qwords.isdisjoint(im.word_tf))
        assert stats.images_scored <= with_common
        scored += stats.images_scored
        common += with_common
    assert scored < common / 2


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_search_counts_pruned_nodes_and_the_final_lam(cls, domain):
    rng = random.Random(74)
    images = random_images(rng, 400, domain, t_lo=0, t_hi=50_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, window=4, capacity=6))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    # a HIQ tree for each of the window's 4 segments, one STVII tree
    roots = len(index.roots())
    assert roots == (4 if cls is HiqIndex else 1)
    pruned = short = 0
    for _ in range(60):
        q = random_query(rng, images, domain)
        audit = []
        results, stats = top_k_search(q, index, audit)
        assert stats.nodes_pruned == len(audit)
        assert stats.roots == roots
        assert top_k_search(q, index)[1] == stats
        if len(results) == q.k:
            assert stats.lam == results[-1].score.f_stv
        else:
            assert stats.lam == math.inf
            short += 1
        pruned += stats.nodes_pruned
    assert pruned and short < 60


def test_leaf_bound_check_counts_an_understated_leaf(domain):
    # a t_max older than the leaf's images overstates its recency bound
    rng = random.Random(75)
    images = random_images(rng, 60, domain, t_lo=0, t_hi=5_000)
    index = make_index(domain, images, capacity=100)
    [leaf] = index.roots()
    q = Query(psi=tuple(range(60)), loc=(50.0, 50.0), t=6_000, k=5, weights=(0.2, 0.2, 0.6))
    assert leaf_bound_violations(q, leaf, index.params) == 0
    leaf.t_max = -1_000_000
    assert leaf_bound_violations(q, leaf, index.params) > 0


def kernel_bound(q, index, node):
    """A node's bound from the kernels, one term at a time."""
    p = index.params
    if isinstance(node, QuadNode):
        rect = (node.min_lat, node.min_lon, node.max_lat, node.max_lon)
    else:
        rect = (node.mbr[0], node.mbr[1], node.mbr[3], node.mbr[4])
    f_s = kernels.rect_min_cost(q.loc[0], q.loc[1], *rect, p.domain.delta_max)
    f_v = mind_visual(q, node.max_freq, p)
    if node.t_max is None:
        f_t = 1.0
    else:
        f_t = kernels.recency_cost(q.t - node.t_max, p.decay_base, p.time_unit)
    w1, w2, w3 = q.weights
    return kernels.combine(w1, w2, w3, f_s, f_v, f_t)


def contains(node, lat, lon):
    if isinstance(node, QuadNode):
        return node.min_lat <= lat <= node.max_lat and node.min_lon <= lon <= node.max_lon
    m = node.mbr
    return m[0] <= lat <= m[3] and m[1] <= lon <= m[4]


@pytest.mark.parametrize("xi", [0.0, 0.5])
@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_bounds_equal_the_kernel_reference(cls, xi, domain):
    rng = random.Random(61 + int(10 * xi))
    seen = dict(inside=0, outside=0, before=0, after=0, absent=0, empty=0)
    for _ in range(25):
        images = random_images(rng, rng.randint(5, 200), domain, t_lo=0, t_hi=50_000)
        config = HiqConfig(domain=domain, segment_span=10_000, window=4, xi=xi,
                           capacity=rng.choice((3, 6, 20)), decay_base=rng.uniform(1.1, 4.0),
                           time_unit=rng.choice((7.0, 3600.0, 36_000.0)))
        index = cls(config)
        for img in sorted(images, key=lambda im: im.t_c):
            index.insert(img)
        nodes = list(walk(index.roots()))
        if cls is HiqIndex:
            # the empty tree of a segment without an image
            nodes.append(QuadNode(domain.min_lat, domain.min_lon, domain.max_lat, domain.max_lon))
        for _ in range(6):
            # words 60..69 occur in no image
            words = rng.sample(range(70), rng.randint(1, 15))
            w1 = rng.uniform(0.05, 0.6)
            w2 = rng.uniform(0.05, 0.95 - w1)
            q = Query(psi=words, loc=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                      t=rng.randint(0, 60_000), k=5, weights=(w1, w2, 1.0 - w1 - w2))
            seen["absent"] += any(v >= 60 for v in q.psi)
            got = index.bounds(q, nodes)
            assert len(got) == len(nodes)
            for bound, node in zip(got, nodes):
                assert bound == kernel_bound(q, index, node)
                assert index.mind(q, node) == bound
                seen["inside" if contains(node, *q.loc) else "outside"] += 1
                if node.t_max is None:
                    seen["empty"] += 1
                else:
                    seen["before" if q.t < node.t_max else "after"] += 1
    if cls is StviiIndex:
        seen.pop("empty")
    assert all(seen.values()), seen


class OneNodeAtATime:
    """An index whose ``bounds`` asks ``mind`` of each node on its own."""

    def __init__(self, index):
        self.index = index
        self.params = index.params
        self.roots = index.roots
        self.candidates = index.candidates

    def bounds(self, q, nodes):
        return [self.index.mind(q, node) for node in nodes]


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_batched_bounds_decide_as_one_node_at_a_time(cls, domain):
    rng = random.Random(62)
    images = random_images(rng, 600, domain, t_lo=0, t_hi=50_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, window=4, capacity=6))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    one = OneNodeAtATime(index)
    pruned = 0
    for _ in range(300):
        q = random_query(rng, images, domain)
        audit, one_audit = [], []
        assert top_k_search(q, index, audit=audit) == top_k_search(q, one, audit=one_audit)
        assert audit == one_audit
        pruned += len(audit)
    assert pruned
