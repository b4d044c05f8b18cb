import dataclasses
import heapq
import itertools
import math
import random
from types import SimpleNamespace

import pytest

from geostream import engine, kernels
from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import brute_force_oracle, top_k_search, walk
from geostream.hiq import HiqConfig, HiqIndex, QuadNode
from geostream.model import GeoTemporalImage, Query, QueryContext, combined_score, mind_visual
from geostream.verify import (
    build_all,
    dominance_violations,
    leaf_bound_violations,
    nesting_violations,
    random_images,
    random_query,
    results_match,
)


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
                1 for im in index.live_images() if not qwords.isdisjoint(im.freq)
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
                # from an empty heap: the leaf's k lowest (f_stv, id)
                worst = []
                index.candidates(q, leaf, worst)
                assert heap_entries(worst) == lowest([], holding_pairs(q, leaf, index.params), q.k)


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
            if not qwords.isdisjoint(im.freq)]


def lowest(start, pairs, k):
    """``(f_stv, id)`` of the k lowest of the ``start`` and ``pairs``
    ``(f_stv, image)``, ascending."""
    return sorted((f, im.id) for f, im in start + pairs)[:k]


def heap_entries(worst):
    """``(f_stv, id)`` of a running top k's entries, ascending."""
    return sorted((-nf, -nid) for nf, nid, _im in worst)


def running_top_k(pairs):
    """A max-heap of ``(-f_stv, -id, image)`` over ``(f_stv, image)``
    pairs, as the search keeps its running top k."""
    worst = [(-f, -im.id, im) for f, im in pairs]
    heapq.heapify(worst)
    return worst


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


def test_long_queries_equal_the_oracle_and_keep_dominance(domain, monkeypatch):
    # queries of 30-60 words over streams longer than the window: the count
    # of missing query words decides most node bounds, and every index
    # still gives the oracle's answer, which never reads a query context
    rng = random.Random(46)
    mind_visual = QueryContext.mind_visual
    decided = []

    def counted(ctx, ratios):
        decided.append(len(ctx._floors) - len(ctx._floors.keys() & ratios.keys()) >= ctx._misses)
        return mind_visual(ctx, ratios)

    config = HiqConfig(domain=domain, segment_span=20_000, window=3, capacity=6, max_depth=6)
    for _ in range(5):
        images = random_images(rng, rng.randint(150, 400), domain, vocab=80)
        hiq, ifa, stvii = build_all(images, config)
        live = hiq.live_images()
        assert len(live) < len(images)
        for _ in range(8):
            anchor = rng.choice(live)
            words = set(rng.sample(range(80), rng.randint(30, 60))) | {min(anchor.freq)}
            w1 = rng.uniform(0.05, 0.9)
            w2 = rng.uniform(0.05, 0.95 - w1)
            q = Query(psi=words, loc=(anchor.lat, anchor.lon),
                      t=max(img.t_c for img in images) + rng.randint(0, 1000),
                      k=rng.choice((1, 5, 10)), weights=(w1, w2, 1.0 - w1 - w2))
            expected = brute_force_oracle(q, live, hiq.params)
            with monkeypatch.context() as m:
                m.setattr(QueryContext, "mind_visual", counted)
                assert results_match(hiq.search(q)[0], expected)
                assert results_match(stvii.search(q)[0], expected)
            assert results_match(ifa.search(q)[0], expected)
            assert dominance_violations(q, hiq) == dominance_violations(q, stvii) == 0
    assert sum(decided) > len(decided) / 2


@pytest.mark.parametrize("whole", [False, True], ids=["one-word-each", "one-image-holds-all"])
def test_long_query_at_xi_zero_equals_the_oracle(domain, whole):
    # 300 images each hold one query word beside a filler word of tf 99,
    # and one query asks for all 300 words at xi = 0. Every floor is 0.0,
    # so an image lacking a word costs exactly 1.0, yet the log sums of
    # its held words and the constant come to about +1376, whose exp
    # overflows (an error under the suite's warning filter). With one
    # more image holding every word, IFA's column pass is not decided by
    # the held counts alone and runs over the others too
    rng = random.Random(49)
    images = [GeoTemporalImage(i, rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                               rng.randint(0, 1000), [(i, 1), (1000, 99)])
              for i in range(300)]
    if whole:
        images.append(GeoTemporalImage(300, 50.0, 50.0, 500, [(w, 1) for w in range(300)]))
    hiq, ifa, stvii = build_all(images, HiqConfig(domain=domain, xi=0.0))
    q = Query(psi=range(300), loc=(50.0, 50.0), t=1000, k=10, weights=(1 / 3, 1 / 3, 1 / 3))
    expected = brute_force_oracle(q, images, hiq.params)
    _f_v, held = ifa.params.context(q).visual_columns(ifa.postings, len(ifa.ids))
    assert held.max() == (300 if whole else 1)
    for index in (hiq, ifa, stvii):
        assert results_match(index.search(q)[0], expected)


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
    # machine, and every image admitted to the running top k is counted
    # as scored
    rng = random.Random(42)
    index, images = twinned_index(cls, domain, rng)
    broken_down, drawn = [], []
    leaf_candidates = index.candidates

    def counted_score(q, img, params):
        broken_down.append(img.id)
        return combined_score(q, img, params)

    def counted_candidates(q, leaf, worst, floor):
        drawn.append(leaf_candidates(q, leaf, worst, floor))
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


def start_pairs(rng, pairs, k):
    """Entries to start a leaf's running top k from: none, fewer than k
    and k. They are stand-in images whose ids lie below or above every
    image's, at 0.0, a random cost, and for some of the leaf's ``pairs``
    the exact cost and the floats either side of it, so ties fall both
    ways."""
    costs = [0.0, rng.uniform(0.0, 1.0)]
    for f, _im in rng.sample(pairs, min(4, len(pairs))):
        costs += [f, f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    full = [(rng.choice(costs), SimpleNamespace(id=rng.choice((-1 - i, 10 ** 6 + i))))
            for i in range(k)]
    return [[], full[:k // 2], full]


@pytest.mark.parametrize("xi", [0.0, 0.35, 0.5])
@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_leaf_scorer_keeps_exactly_the_pairs_within_lam(cls, xi, domain):
    # scored into a running top k that starts empty, partly full or full,
    # a leaf leaves in it exactly the k lowest (f_stv, id) of its entries
    # and the leaf's images that hold a query word. xi = 0 gives every
    # query word a zero floor. xi = 0.35 gives a scale 1 - xi whose
    # products round, and with 8 words and short queries many images hold
    # every query word at a visual cost well below 1.0, where that
    # rounding shows in the last bit. Twins tie at every cost, and the
    # starting entries tie with the leaf's images, the k-th included
    vocab, max_words = (8, 3) if xi == 0.35 else (60, 20)
    rng = random.Random(71 + int(10 * xi))
    index, images = twinned_index(cls, domain, rng, vocab=vocab, xi=xi)
    leaves = [node for node in walk(index.roots()) if node.children is None]
    biggest = max(len(leaf.images) for leaf in leaves)
    seen = dict(empty=0, from_empty=0, from_part=0, from_full=0, pushed_out=0, refused=0,
                tie_at_k=0)
    for _ in range(12):
        q = random_query(rng, images, domain, vocab=vocab, max_words=max_words)
        # k = biggest covers every leaf
        for k in (1, 2, q.k, biggest):
            qk = dataclasses.replace(q, k=k)
            for leaf in leaves:
                every = holding_pairs(qk, leaf, index.params)
                by_id = {im.id: (f, im) for f, im in every}
                seen["empty"] += leaf.t_max is None
                floor = leaf_floor(qk, index, leaf)
                for kind, start in zip(("from_empty", "from_part", "from_full"),
                                       start_pairs(rng, every, k)):
                    worst = running_top_k(start)
                    admitted = index.candidates(qk, leaf, worst, floor)
                    union = lowest(start, every, k + 1)
                    assert heap_entries(worst) == union[:k]
                    # each admitted image holds a query word, once, at its
                    # breakdown's f_stv bit for bit, and every image of the
                    # leaf left in the heap was admitted
                    ids = [im.id for _f, im in admitted]
                    assert len(set(ids)) == len(ids)
                    assert all(by_id[im.id] == (f, im) for f, im in admitted)
                    assert {i for _f, i in union[:k] if i in by_id} <= set(ids)
                    seen[kind] += bool(admitted)
                    seen["pushed_out"] += not set(ids) <= {i for _f, i in union[:k]}
                    seen["refused"] += len(admitted) < len(every)
                    seen["tie_at_k"] += len(union) > k and union[k - 1][0] == union[k][0]
    if cls is StviiIndex:
        seen.pop("empty")       # an R-tree splits into non-empty groups
    assert all(seen.values()), seen


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_leaf_pairs_do_not_depend_on_the_bound(cls, domain):
    # any valid floor admits the same images and leaves the same heap: the
    # leaf's bound less its spatial term, as the search passes it, and
    # 0.0. One 1e-6 above it is no floor, and the radius it leaves loses an
    # image on some leaf. The default xi = 0.5 over 60 words, then xi =
    # 0.35 over 8 words, where the scale 1 - xi rounds in the last bit of
    # some costs
    for seed, xi, vocab, max_words in ((76, 0.5, 60, 20), (77, 0.35, 8, 3)):
        rng = random.Random(seed)
        index, images = twinned_index(cls, domain, rng, vocab=vocab, xi=xi)
        leaves = [node for node in walk(index.roots()) if node.children is None]
        lost = 0
        for _ in range(12):
            q = random_query(rng, images, domain, vocab=vocab, max_words=max_words)
            for leaf in leaves:
                floor = leaf_floor(q, index, leaf)
                every = holding_pairs(q, leaf, index.params)
                for start in start_pairs(rng, every, q.k):
                    runs = []
                    for f in (floor, 0.0, floor + 1e-6):
                        worst = running_top_k(start)
                        runs.append((index.candidates(q, leaf, worst, f), heap_entries(worst)))
                    assert runs[0][1] == lowest(start, every, q.k)
                    assert runs[1] == runs[0]
                    lost += runs[2][1] != runs[0][1]
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
        with_common = sum(1 for im in live if not qwords.isdisjoint(im.freq))
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


def node_rect(node):
    """A HIQ or STVII node's ``(min_lat, min_lon, max_lat, max_lon)``."""
    if isinstance(node, QuadNode):
        return node.min_lat, node.min_lon, node.max_lat, node.max_lon
    return node.mbr[0], node.mbr[1], node.mbr[3], node.mbr[4]


def kernel_terms(q, index, node):
    """A node's spatial, visual and recency costs ``(f_s, f_v, f_t)``
    from the kernels, one term at a time."""
    p = index.params
    f_s = kernels.rect_min_cost(q.loc[0], q.loc[1], *node_rect(node), p.domain.delta_max)
    f_v = mind_visual(q, node.max_freq, p)
    if node.t_max is None:
        f_t = 1.0
    else:
        f_t = kernels.recency_cost(q.t - node.t_max, p.decay_base, p.time_unit)
    return f_s, f_v, f_t


def kernel_bound(q, index, node):
    """A node's bound from the kernels, one term at a time."""
    return kernels.combine(*q.weights, *kernel_terms(q, index, node))


def leaf_floor(q, index, leaf):
    """The floor of a leaf's images' visual and recency cost: its bound
    less its weighted spatial term from the kernels."""
    return index.mind(q, leaf) - q.weights[0] * kernels.rect_min_cost(
        *q.loc, *node_rect(leaf), index.params.domain.delta_max)


def contains(node, lat, lon):
    min_lat, min_lon, max_lat, max_lon = node_rect(node)
    return min_lat <= lat <= max_lat and min_lon <= lon <= max_lon


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
            w1, w2, w3 = q.weights
            for (spatial, recency), node in zip(got, nodes):
                bound = kernel_bound(q, index, node)
                f_s, f_v, f_t = kernel_terms(q, index, node)
                assert spatial == w1 * f_s
                assert recency == w3 * f_t
                # the terms with the node's visual bound give its bound bit for bit
                assert spatial + w2 * f_v + recency == bound
                assert index.mind(q, node) == bound
                assert f_v == index.params.context(q).mind_visual(node.max_freq)
                seen["inside" if contains(node, *q.loc) else "outside"] += 1
                if node.t_max is None:
                    seen["empty"] += 1
                else:
                    seen["before" if q.t < node.t_max else "after"] += 1
    if cls is StviiIndex:
        seen.pop("empty")
    assert all(seen.values()), seen


class OneNodeAtATime:
    """An index whose ``bounds`` asks the index's ``bounds`` of each node
    on its own."""

    def __init__(self, index):
        self.index = index
        self.params = index.params
        self.roots = index.roots
        self.candidates = index.candidates

    def bounds(self, q, nodes):
        return [self.index.bounds(q, [node])[0] for node in nodes]


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


class LeafFloors:
    """An index that records the ``(leaf, floor)`` of every leaf the
    search hands to ``candidates``."""

    def __init__(self, index):
        self.index = index
        self.params = index.params
        self.roots = index.roots
        self.bounds = index.bounds
        self.floors = []

    def candidates(self, q, leaf, worst, floor):
        self.floors.append((leaf, floor))
        return self.index.candidates(q, leaf, worst, floor)


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_each_leaf_gets_its_bound_less_its_spatial_term(cls, domain):
    # trees several levels deep over streams longer than the window; a
    # leaf under a parent whose visual bound is above 0.0 was pushed under
    # a deferred key and refined on the heap
    rng = random.Random(85)
    deferred = 0
    for _ in range(6):
        images = random_images(rng, rng.randint(200, 600), domain, t_lo=0, t_hi=60_000)
        index = cls(HiqConfig(domain=domain, segment_span=10_000, window=3,
                              capacity=rng.choice((3, 6)), max_depth=8))
        for img in sorted(images, key=lambda im: im.t_c):
            index.insert(img)
        parent = {child: node for node in walk(index.roots())
                  for child in node.children or ()}
        assert any(node in parent for node in parent.values())     # three levels or more
        for _ in range(20):
            q = random_query(rng, images, domain)
            spy = LeafFloors(index)
            assert top_k_search(q, spy) == top_k_search(q, index)
            assert spy.floors
            for leaf, floor in spy.floors:
                assert floor == leaf_floor(q, index, leaf)
                up = parent.get(leaf)
                deferred += up is not None and mind_visual(q, up.max_freq, index.params) > 0.0
    assert deferred


def eager_top_k_search(q, index):
    """The search as it was before child bounds were deferred: every child
    of a visited inner node goes on the heap under its exact bound
    (``mind``), and a leaf's floor is that bound less its spatial term
    from the kernels (``leaf_floor``). Kept here as the reference the
    deferred search must equal. Its ``bounds_evaluated`` counts the roots
    and the children of the inner nodes it visits."""
    params = index.params
    params.context(q)
    k = q.k
    stats = engine.SearchStats()
    order = itertools.count()
    heap = []
    roots = index.roots()
    stats.roots = stats.bounds_evaluated = len(roots)
    for root in roots:
        heapq.heappush(heap, (index.mind(q, root), next(order), root))
    worst = []
    lam = math.inf
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound > lam:
            stats.stop = "bound"
            stats.nodes_pruned += 1 + len(heap)
            break
        stats.nodes_visited += 1
        children = node.children
        if children is None:
            stats.images_scored += len(index.candidates(q, node, worst,
                                                        leaf_floor(q, index, node)))
            if len(worst) == k:
                lam = -worst[0][0]
        else:
            stats.bounds_evaluated += len(children)
            for child in children:
                b = index.mind(q, child)
                if b <= lam:
                    heapq.heappush(heap, (b, next(order), child))
                else:
                    stats.nodes_pruned += 1
    stats.lam = lam
    results = [engine.ResultEntry(img.id, combined_score(q, img, params)) for _, _, img in worst]
    results.sort(key=lambda e: (e.score.f_stv, e.image_id))
    return results, stats


def _decisions(stats):
    return (stats.roots, stats.nodes_visited, stats.images_scored, stats.nodes_pruned,
            stats.lam, stats.stop)


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_deferred_search_equals_the_eager_reference(cls, domain):
    # streams of six 10,000 s segments through a window of three, so part
    # of each has expired; small capacities give trees several levels deep
    rng = random.Random(81)
    stops = set()
    deferred = 0
    for _ in range(12):
        images = random_images(rng, rng.randint(50, 600), domain, t_lo=0, t_hi=60_000)
        index = cls(HiqConfig(domain=domain, segment_span=10_000, window=3,
                              capacity=rng.choice((3, 6, 12)), max_depth=8))
        for img in sorted(images, key=lambda im: im.t_c):
            index.insert(img)
        assert index.image_count() < len(images)
        for _ in range(25):
            q = random_query(rng, images, domain)
            results, stats = top_k_search(q, index)
            want, eager = eager_top_k_search(q, index)
            assert results == want
            assert _decisions(stats) == _decisions(eager)
            assert stats.bounds_evaluated <= eager.bounds_evaluated
            deferred += eager.bounds_evaluated - stats.bounds_evaluated
            stops.add(stats.stop)
    assert stops == {"bound", "exhausted"}
    assert deferred > 0


def test_deferred_bounds_are_fewer_than_eager_on_a_multi_level_tree(domain):
    rng = random.Random(82)
    images = random_images(rng, 2_000, domain, t_lo=0, t_hi=9_999)
    index = HiqIndex(HiqConfig(domain=domain, segment_span=10_000, window=3, capacity=8))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    [root] = index.roots()
    assert any(c.children is not None for c in root.children)      # three levels or more
    lazy = eager = 0
    for _ in range(40):
        q = random_query(rng, images, domain)
        lazy += top_k_search(q, index)[1].bounds_evaluated
        eager += eager_top_k_search(q, index)[1].bounds_evaluated
    assert lazy < eager


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_aggregates_nest_after_splits_and_expiry(cls, domain):
    # a cutoff inside a segment makes HIQ rebuild that segment's tree
    # (``_drop_older``) and STVII prune its tree (``_prune``)
    rng = random.Random(83)
    images = random_images(rng, 500, domain, t_lo=0, t_hi=40_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, window=4, capacity=4))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    queries = [random_query(rng, images, domain) for _ in range(10)]

    def inner_nodes():
        return sum(1 for node in walk(index.roots()) if node.children is not None)

    assert inner_nodes() > 1
    for q in queries:
        assert nesting_violations(q, index) == 0
    for cutoff in (5_000, 22_500, 31_234):
        assert index.expire(cutoff) > 0
        assert inner_nodes() > 1
        for q in queries:
            assert nesting_violations(q, index) == 0


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_nesting_check_counts_a_child_above_its_parent(cls, domain):
    rng = random.Random(84)
    images = random_images(rng, 200, domain, t_lo=0, t_hi=5_000)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, window=4, capacity=4))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    q = random_query(rng, images, domain)
    assert nesting_violations(q, index) == 0
    parent = next(node for node in walk(index.roots()) if node.children is not None)
    child = next(c for c in parent.children if c.t_max is not None)
    child.t_max = parent.t_max + 1
    assert nesting_violations(q, index) > 0
    child.t_max = parent.t_max
    word = next(iter(child.max_freq))
    child.max_freq[word] = parent.max_freq[word] * 2.0
    assert nesting_violations(q, index) > 0


# the search's counts on two fixed streams, recorded when the tree search
# last changed shape while its decisions stayed the same: a move here is a
# change in what the search does, found without a benchmark run.
# ``images_scored`` was recorded again when it came to count the images
# admitted to the running top k
PINNED = {
    "hiq": dict(nodes_visited=3349, images_scored=2758, nodes_pruned=1597,
                bounds_evaluated=3506, heap_peak=1626, bound=45, exhausted=5),
    "stvii": dict(nodes_visited=2638, images_scored=2771, nodes_pruned=1990,
                  bounds_evaluated=2794, heap_peak=1837, bound=45, exhausted=5),
}


@pytest.mark.parametrize("cls", [HiqIndex, StviiIndex], ids=lambda c: c.kind)
def test_search_counts_are_pinned(cls, domain):
    # three HIQ segment trees and one STVII tree, several levels deep, over
    # a stream longer than the window; every tenth query asks for more
    # images than are live, so it ends exhausted
    rng = random.Random(91)
    images = random_images(rng, 1_200, domain, t_lo=0, t_hi=39_999)
    index = cls(HiqConfig(domain=domain, segment_span=10_000, window=3, capacity=6))
    for img in sorted(images, key=lambda im: im.t_c):
        index.insert(img)
    assert index.image_count() < len(images)
    totals = dict.fromkeys(PINNED[cls.kind], 0)
    for i in range(50):
        q = random_query(rng, images, domain)
        if i % 10 == 0:
            q = dataclasses.replace(q, k=1_000)
        _, stats = top_k_search(q, index)
        for name in ("nodes_visited", "images_scored", "nodes_pruned", "bounds_evaluated",
                     "heap_peak"):
            totals[name] += getattr(stats, name)
        totals[stats.stop] += 1
    assert totals == PINNED[cls.kind]
