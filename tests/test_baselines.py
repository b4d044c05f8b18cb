import math
import random

import numpy as np
import pytest

from geostream.baselines import (
    IfaIndex,
    RTree3DNode,
    StviiIndex,
    _box_volume,
    _quadratic_split,
)
from geostream.engine import ExpiredArrivalError, brute_force_oracle, top_k_search, walk
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import (
    ConfigError,
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


# a segment holding every timestamp of ``random_images`` (0..100_000), for
# tests that insert a shuffled stream: the window rejects an arrival older
# than its start
ONE_SEGMENT = 200_000


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
    index.insert(img(1, t_c=later))         # the window rolls segment 0 out here
    index.insert(img(0, t_c=later))
    assert sorted(im.id for im in index.live_images()) == [0, 1]


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_arrival_older_than_an_expire_cutoff_is_refused(cls, domain):
    # the window stays on the segment grid at 2000, but 2600 is older than
    # the cutoff the window was expired to
    index = cls(make_config(domain, segment_span=1000, window=3))
    index.insert(img(0, t_c=2500))
    index.insert(img(1, t_c=4500))
    assert index.expire(3500) == 1
    assert index.window_start() == 2000

    def state():
        return (index.window_start(), index.stats.version,
                [im.id for im in index.live_images()])

    before = state()
    with pytest.raises(ExpiredArrivalError, match="older than"):
        index.insert(img(2, t_c=2600))
    assert state() == before
    index.insert(img(3, t_c=3500))          # at the cutoff
    assert [im.id for im in index.live_images()] == [1, 3]
    # a cutoff past the head's end (5000) refuses an arrival that would
    # move the head, before the head moves
    assert index.expire(7500) == 2
    before = state()
    with pytest.raises(ExpiredArrivalError, match="older than"):
        index.insert(img(4, t_c=6000))
    assert state() == before
    index.insert(img(5, t_c=7500))
    assert index.window_start() == 5000
    assert [im.id for im in index.live_images()] == [5]


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_query_outside_domain_rejected(cls, domain):
    index = cls(make_config(domain))

    def rejected(words):
        q = Query(psi=words, loc=(150.0, 10.0), t=200, k=1, weights=(0.2, 0.6, 0.2))
        with pytest.raises(DomainError, match="query location"):
            index.search(q)

    rejected((1,))          # an empty index
    index.insert(img(0))
    rejected((1,))          # a word of the corpus
    rejected((7,))          # a word absent from it


def oracle_over_live_set(q, index):
    """The oracle over a fresh recount of the live set, so it shares no
    cached scoring state with the index."""
    live = list(index.live_images())
    stats = CorpusStats(index.config.segment_span)
    for im in live:
        stats.add_image(im)
    p = index.params
    params = ScoreParams(domain=p.domain, stats=stats, xi=p.xi,
                         decay_base=p.decay_base, time_unit=p.time_unit)
    return brute_force_oracle(q, live, params)


@pytest.mark.parametrize("change", ["insert", "expire", "slide"])
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_reused_query_sees_corpus_changes(cls, change, domain):
    # expire: a segment roll moves the window past the old images; slide:
    # expire, then insert as many images as left, which brings the stats
    # back to as many images as before
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
        index.roll_segment(2 * span)
        assert index.image_count() == len(new)
        if change == "slide":
            for im in random_images(rng, len(old), domain, vocab=10, t_lo=2 * span,
                                    t_hi=3 * span - 1, id_base=200):
                index.insert(im)
    assert results_match(index.search(q)[0], oracle_over_live_set(q, index))


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_off_grid_expire_matches_recount(cls, domain):
    # cutoffs inside a segment, after late arrivals into older segments;
    # then arrivals into the segment a cutoff split
    config = make_config(domain, segment_span=1000, window=10)
    index = cls(config)
    rng = random.Random(47)
    images = sorted(random_images(rng, 300, domain, vocab=20, t_hi=5999), key=lambda im: im.t_c)
    late = images[1::7]
    for im in [im for im in images if im not in late] + late:
        index.insert(im)
    live = images
    more = random_images(rng, 40, domain, vocab=20, t_lo=3500, t_hi=3999, id_base=1000)
    for cutoff in (2500, 2500, 3500, 3999):
        removed = index.expire(cutoff)
        assert removed == sum(1 for im in live if im.t_c < cutoff)
        live = [im for im in live if im.t_c >= cutoff]
        if cutoff == 3500:
            for im in more:
                index.insert(im)
            live += more
        assert sorted(im.id for im in index.live_images()) == sorted(im.id for im in live)
        fresh = CorpusStats(index.config.segment_span)
        for im in live:
            fresh.add_image(im)
        assert index.stats.total_word_count == fresh.total_word_count
        assert index.stats.word_corpus_tf == fresh.word_corpus_tf
        for w in range(20):
            assert index.stats.max_freq(w) == fresh.max_freq(w)
        for _ in range(5):
            q = random_query(rng, live, domain, vocab=22, max_words=6)
            assert results_match(index.search(q)[0], oracle_over_live_set(q, index))


class TestIfa:
    def test_one_list_per_word(self, domain):
        index = IfaIndex(make_config(domain))
        index.insert(img(0, psi=((1, 2), (4, 1), (9, 3))))
        assert sorted(index.postings) == [1, 4, 9]
        assert {w: (list(slots), list(f)) for w, (slots, f) in index.postings.items()} == {
            1: ([0], [2 / 6]), 4: ([0], [1 / 6]), 9: ([0], [3 / 6])}

    def test_append_preserves_order(self, domain):
        index = IfaIndex(make_config(domain))
        index.insert(img(0, t_c=100))
        index.insert(img(1, t_c=200))
        assert list(index.postings[1][0]) == [0, 1]
        assert list(index.ids) == [0, 1]
        assert list(index.t_c) == [100, 200]

    def test_postings_audit_after_random_inserts(self, domain):
        # each live image sits once in each of its words' postings, dead
        # slots stay out of every answer, before and after a rebuild
        rng = random.Random(31)
        index = IfaIndex(make_config(domain, segment_span=ONE_SEGMENT))
        images = random_images(rng, 1000, domain)
        rng.shuffle(images)  # deliberately out of time order
        for im in images:
            index.insert(im)
        for cutoff in (0, 30_000, 60_000):
            index.expire(cutoff)
            live = {im.id: im for im in index.live_images()}
            alive = [bool(a) for a in index.alive]
            assert len(alive) == len(index.ids) == len(index.t_c) \
                == len(index.lat) == len(index.lon)
            assert sorted(index.ids[s] for s, a in enumerate(alive) if a) == sorted(live)
            for word, (slots, freqs) in index.postings.items():
                assert list(slots) == sorted(set(slots))
                held = sorted((index.ids[s], f) for s, f in zip(slots, freqs) if alive[s])
                assert held == sorted((iid, tf / im.total_tf)
                                      for iid, im in live.items() for w, tf in im.psi if w == word)
            assert {w for im in live.values() for w, _tf in im.psi} <= set(index.postings)
            for _ in range(10):
                q = random_query(rng, list(live.values()), domain, max_words=5)
                q = Query(psi=q.psi, loc=q.loc, t=q.t, k=50, weights=q.weights)
                got, _ = index.search(q)
                assert {e.image_id for e in got} <= set(live)
                assert results_match(got, oracle_over_live_set(q, index))

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
            index = IfaIndex(make_config(domain, segment_span=ONE_SEGMENT))
            for im in images:
                index.insert(im)
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, images, index.params)
            got, stats = index.search(q)
            assert results_match(got, expected)
            qwords = set(q.psi)
            n_common = sum(1 for im in images if not qwords.isdisjoint(im.freq))
            assert stats.images_scored == n_common
            assert stats.roots == 0

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

        fresh = CorpusStats(index.config.segment_span)
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
        assert len(index.ids) == 0 and len(index.alive) == 0

    @pytest.mark.parametrize("field", ["id", "t_c"])
    def test_int64_overflow_admits_nothing(self, field, domain):
        index = IfaIndex(make_config(domain))
        kw = {"id": 2 ** 63} if field == "id" else {"id": 0, "t_c": 2 ** 63}
        with pytest.raises(OverflowError):
            index.insert(img(**kw))
        assert index.image_count() == 0 and index.stats.total_word_count == 0
        assert len(index.ids) == len(index.t_c) == len(index.alive) == 0
        assert index.postings == {}


@pytest.mark.parametrize("xi", [0.0, 0.35, 0.5])
def test_ifa_columns_match_oracle(xi, domain):
    # a stream many windows long, each segment's arrivals shuffled (late
    # arrivals); query words outside the corpus; at xi = 0 every floor is
    # zero, so an image missing a live query word costs 1.0
    config = make_config(domain, segment_span=1000, window=4, xi=xi)
    index = IfaIndex(config)
    rng = random.Random(43)
    rebuilds = 0
    for seg in range(30):
        batch = random_images(rng, 25, domain, vocab=20, t_lo=seg * 1000,
                              t_hi=seg * 1000 + 999, id_base=seg * 25)
        rng.shuffle(batch)
        for im in batch:
            slots = len(index.ids)
            index.insert(im)
            rebuilds += len(index.ids) <= slots
            assert len(index.ids) <= 2 * index.image_count()
        live = index.live_images()
        for _ in range(4):
            q = random_query(rng, live, domain, vocab=26, max_words=8)
            got, stats = index.search(q)
            assert results_match(got, oracle_over_live_set(q, index))
            qwords = set(q.psi)
            assert stats.images_scored == sum(
                1 for im in live if not qwords.isdisjoint(im.freq))
            # the column pass gives every live candidate the scalar visual cost
            ctx = index.params.context(q)
            f_v, held = ctx.visual_columns(index.postings, len(index.ids))
            by_id = {im.id: im for im in live}
            for s, iid in enumerate(index.ids):
                if index.alive[s] and held[s]:
                    assert abs(f_v[s] - ctx.mind_visual(by_id[iid].freq)) <= 1e-12
    assert rebuilds >= 2


def _per_word_visual_columns(ctx, postings, n):
    """The visual columns one numpy pass per query word, in query order,
    the reference for the one-pass ``QueryContext.visual_columns``."""
    log_num = np.zeros(n)
    log_diff = np.zeros(n)
    held = np.zeros(n, dtype=np.intp)
    zero_held = np.zeros(n, dtype=np.intp)
    for v, (floor, lf) in ctx._floors.items():
        cols = postings.get(v)
        if cols is None:
            continue
        slots = np.frombuffer(cols[0], dtype=np.int64)
        lw = np.log(ctx._scale * np.frombuffer(cols[1]) + floor)
        log_num[slots] += lw
        log_diff[slots] += lw - lf
        held[slots] += 1
        if floor == 0.0:
            zero_held[slots] += 1
    log_ratio = np.where(held == len(ctx._floors),
                         log_num - ctx._log_den, log_diff + ctx._log_const)
    cost = 1.0 - np.minimum(np.exp(log_ratio), 1.0)
    cost[zero_held < sum(1 for floor, _lf in ctx._floors.values() if floor == 0.0)] = 1.0
    return cost, held


def _assert_columns_match_reference(ctx, postings, n):
    cost, held = ctx.visual_columns(postings, n)
    ref_cost, ref_held = _per_word_visual_columns(ctx, postings, n)
    assert len(cost) == n
    assert held.tolist() == ref_held.tolist()
    assert np.all(np.abs(cost - ref_cost)[held > 0] <= 1e-12)
    return held


@pytest.mark.parametrize("xi", [0.0, 0.35])
def test_visual_columns_match_per_word_reference(xi, domain):
    # at xi = 0 every floor is zero, so the zero-floor rule decides; a
    # table without some query words' postings, a table just compacted
    # (renumbered slots), and an empty one
    index = IfaIndex(make_config(domain, segment_span=1000, window=3, xi=xi))
    rng = random.Random(47)

    def check(live):
        q = random_query(rng, live, domain, vocab=26, max_words=8)
        ctx = index.params.context(q)
        n = len(index.ids)
        held = _assert_columns_match_reference(ctx, index.postings, n)
        assert held.any()
        some = {w: cols for w, cols in index.postings.items() if w % 3}
        _assert_columns_match_reference(ctx, some, n)
        assert not _assert_columns_match_reference(ctx, {}, n).any()
        return ctx

    compactions = 0
    for seg in range(10):
        batch = random_images(rng, 30, domain, vocab=20, t_lo=seg * 1000,
                              t_hi=seg * 1000 + 999, id_base=seg * 30)
        for im in batch:
            slots = len(index.ids)
            index.insert(im)
            if len(index.ids) <= slots:
                compactions += 1
                check(index.live_images())
        for _ in range(4):
            ctx = check(index.live_images())
    assert compactions >= 2
    # no query word in the live corpus: no slot holds one
    outside = Query(psi=(100, 101), loc=(50.0, 50.0), t=10_000, k=5, weights=(0.3, 0.4, 0.3))
    held = _assert_columns_match_reference(index.params.context(outside), index.postings,
                                           len(index.ids))
    assert len(held) == len(index.ids) and not held.any()
    # everything expired: an empty table, scored with the last context too
    index.expire(100_000)
    assert len(index.ids) == 0 and index.postings == {}
    for c in (ctx, index.params.context(outside)):
        assert len(_assert_columns_match_reference(c, index.postings, 0)) == 0


@pytest.mark.parametrize("tied", [6, 2, 3], ids=["tie-at-kth", "fewer-than-k", "exactly-k"])
def test_ifa_ties_at_the_kth_cost(tied, domain):
    # k = 3 with one better image: the k-th place is a tie among identical
    # images inserted under shuffled ids, and only the smallest ids win
    rng = random.Random(tied)
    config = make_config(domain)
    indexes = [IfaIndex(config), HiqIndex(config), StviiIndex(config)]
    twin_ids = rng.sample(range(10, 100), tied)
    images = [img(iid, lat=20.0, lon=20.0) for iid in twin_ids]
    if tied > 3:
        images += [img(200, lat=10.0, lon=10.0), img(201, lat=60.0, lon=60.0),
                   img(202, lat=80.0, lon=5.0)]
    rng.shuffle(images)
    for index in indexes:
        for im in images:
            index.insert(im)
    q = Query(psi=(1,), loc=(10.0, 10.0), t=100, k=3, weights=(0.5, 0.3, 0.2))
    got, stats = indexes[0].search(q)
    assert stats.images_scored == len(images)
    expected = brute_force_oracle(q, images, indexes[0].params)
    assert results_match(got, expected)
    assert results_match(got, top_k_search(q, indexes[1])[0])
    assert results_match(got, top_k_search(q, indexes[2])[0])
    if tied > 3:
        assert [e.image_id for e in got] == [200] + sorted(twin_ids)[:2]
    else:
        assert [e.image_id for e in got] == sorted(twin_ids)


@pytest.mark.parametrize("base", [0, 2**53, 1_700_000_000_000_000_000])
def test_large_timestamps_match_oracle(base, domain):
    # float64 spacing is 2 at 2**53 and 256 at nanosecond-scale epochs, so
    # an age taken from float timestamps is off by up to that many seconds
    config = make_config(domain, segment_span=1000, window=3)
    indexes = [cls(config) for cls in INDEX_CLASSES]
    rng = random.Random(44)
    for seg in range(8):
        batch = random_images(rng, 20, domain, vocab=20, t_lo=base + seg * 1000,
                              t_hi=base + seg * 1000 + 999, id_base=seg * 20)
        for im in sorted(batch, key=lambda im: im.t_c):
            for index in indexes:
                index.insert(im)
        live = indexes[0].live_images()
        for _ in range(5):
            q = random_query(rng, live, domain, vocab=22, max_words=6)
            for index in indexes:
                assert results_match(index.search(q)[0], oracle_over_live_set(q, index))
    assert indexes[0].window_start() >= base + 4000     # the window rolled


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, 12.5, None, True, "5",
                                 2 ** 63, -2 ** 63 - 1])
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_roll_segment_rejects_non_finite_now(cls, now, domain):
    # int() would truncate 12.5, convert True and "5", and refuse None
    # with an untyped TypeError; a now outside int64 would open a window
    # no int64 arrival can enter
    index = cls(make_config(domain))
    if type(now) is int:
        error, match = OverflowError, "roll_segment now outside int64"
    else:
        error, match = ConfigError, "roll_segment now must be an integer"
    with pytest.raises(error, match=match):
        index.roll_segment(now)
    assert index.window_start() is None


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, None, "5", True])
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_expire_rejects_non_finite_cutoff(cls, cutoff, domain):
    index = cls(make_config(domain, segment_span=100))
    for i in range(6):
        index.insert(img(i, t_c=50 * i, psi=((i % 3, 1), (7, i + 1))))
    stats = index.stats

    def state():
        return ([im.id for im in index.live_images()], index.window_start(), stats.version,
                stats.total_word_count, dict(stats.word_corpus_tf),
                [stats.max_freq(w) for w in range(8)])

    before = state()
    with pytest.raises(ConfigError, match="expire cutoff must be finite"):
        index.expire(cutoff)
    assert state() == before


@pytest.mark.parametrize("bad", [dict(id=2 ** 63), dict(id=2, t_c=2 ** 63),
                                 dict(id=-2 ** 63 - 1)], ids=["id", "t_c", "negative-id"])
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_int64_overflow_changes_nothing(cls, bad, domain):
    # an arrival 10 spans on would roll the window past image 1 first
    index = cls(make_config(domain, segment_span=10, window=2))
    index.insert(img(1, t_c=0))
    before = ([im.id for im in index.live_images()], index.window_start(),
              index.stats.version)
    with pytest.raises(OverflowError):
        index.insert(img(**{"t_c": 100, **bad}))
    assert ([im.id for im in index.live_images()], index.window_start(),
            index.stats.version) == before


@pytest.mark.parametrize("base", [0, 2 ** 54], ids=["small", "2**54"])
@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_float_cutoff_is_exact(cls, base, domain):
    # base + 3.5 is 3.5 near 0, not truncated to 3; near 2**54 floats are
    # 4 apart, so it is base + 4, and base + 3 must not round up to it
    index = cls(make_config(domain, segment_span=100))
    for i, t in enumerate((0, 3, 4, 50)):
        index.insert(img(i, t_c=base + t))
    assert index.expire(base + 3.5) == 2
    assert [im.id for im in index.live_images()] == [2, 3]
    assert index.stats.total_word_count == 2
    q = Query(psi=(1,), loc=(10.0, 10.0), t=base + 60, k=5, weights=(0.2, 0.6, 0.2))
    assert sorted(e.image_id for e in index.search(q)[0]) == [2, 3]


@pytest.mark.parametrize("cls", INDEX_CLASSES, ids=lambda c: c.kind)
def test_numpy_int_cutoff_is_exact(cls, domain):
    # float(2**54 + 3) rounds to 2**54 + 4, which would expire image 1 too
    base = 2 ** 54
    index = cls(make_config(domain, segment_span=100))
    for i, t in enumerate((0, 3, 50)):
        index.insert(img(i, t_c=base + t))
    assert index.expire(np.int64(base + 3)) == 1
    assert [im.id for im in index.live_images()] == [1, 2]


def _subtree_images(node):
    out = []
    for n in walk([node]):
        if n.children is None:
            out.extend(n.images)
    return out


def audit_stvii(index):
    """Checks every node of a STVII tree: it is not empty, its box is the
    bounding box of the (lat, lon, t_c) points below it, its ``t_max``
    and ``max_freq`` equal those recomputed from its images, and none of
    them is older than the window start."""
    for node in walk(index.roots()):
        subtree = _subtree_images(node)
        assert subtree
        points = [(im.lat, im.lon, im.t_c) for im in subtree]
        assert list(node.mbr) == [min(p[d] for p in points) for d in range(3)] + \
            [max(p[d] for p in points) for d in range(3)]
        expected = {}
        for im in subtree:
            for w, tf in im.psi:
                f = tf / im.total_tf
                expected[w] = max(expected.get(w, 0.0), f)
        assert node.max_freq == expected
        assert node.t_max == max(im.t_c for im in subtree)
        assert min(im.t_c for im in subtree) >= index.window_start()


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
        assert root.children is not None and len(root.children) == 2
        for child in root.children:
            assert len(child.images) >= index.min_fill

    def test_domain_violation(self, domain):
        index = StviiIndex(make_config(domain))
        with pytest.raises(DomainError):
            index.insert(img(0, -5.0, 10.0, 0))

    def test_structural_audit_after_1000_inserts(self, domain):
        rng = random.Random(35)
        index = StviiIndex(make_config(domain, capacity=6, segment_span=ONE_SEGMENT))
        images = random_images(rng, 1000, domain)
        for im in images:
            index.insert(im)
        assert sorted(im.id for im in index.live_images()) == list(range(1000))
        audit_stvii(index)

    def test_mind_zero_inside_fresh_covering_node(self, domain):
        index = StviiIndex(make_config(domain))
        index.insert(img(0, 50.0, 50.0, 5000, psi=((1, 1), (2, 2))))
        from geostream.model import Query

        q = Query(psi=(1, 2), loc=(50.0, 50.0), t=4000, k=1, weights=(1 / 3, 1 / 3, 1 / 3))
        assert index.mind(q, index.root) == 0.0

    def test_mind_dominance(self, domain):
        rng = random.Random(36)
        index = StviiIndex(make_config(domain, capacity=5, segment_span=ONE_SEGMENT))
        images = random_images(rng, 400, domain)
        for im in images:
            index.insert(im)
        for _ in range(20):
            q = random_query(rng, images, domain)
            for node in walk([index.root]):
                subtree = _subtree_images(node)
                bound = index.mind(q, node)
                low = min(combined_score(q, im, index.params).f_stv for im in subtree)
                assert bound <= low + 1e-9

    def test_search_matches_oracle(self, domain):
        rng = random.Random(37)
        for _ in range(20):
            images = random_images(rng, rng.randint(10, 200), domain)
            index = StviiIndex(make_config(domain, capacity=6, segment_span=ONE_SEGMENT))
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
        audit_stvii(index)
        # four more expiries, each after arrivals no older than the last cutoff
        live = {im.id: im for im in images if im.t_c >= 6000}
        cutoffs = (6000, 7000, 8000, 9000, 9500)
        for step, (last, cutoff) in enumerate(zip(cutoffs, cutoffs[1:])):
            batch = random_images(rng, 60, domain, t_lo=last, t_hi=10_000,
                                  id_base=1000 * (step + 1))
            for im in batch:
                index.insert(im)
                live[im.id] = im
            removed = index.expire(cutoff)
            assert removed == sum(1 for im in live.values() if im.t_c < cutoff)
            live = {i: im for i, im in live.items() if im.t_c >= cutoff}
            assert {im.id for im in index.live_images()} == set(live)
            audit_stvii(index)
            for _ in range(5):
                q = random_query(rng, list(live.values()), domain)
                assert results_match(index.search(q)[0], oracle_over_live_set(q, index))

    @pytest.mark.parametrize("ticks", [1, 3])
    def test_splits_space_on_shared_timestamps(self, ticks, domain):
        # a stream puts many images on one second: the leaves must still
        # cut the domain, not each span it as a time slice
        rng = random.Random(42)
        images = [GeoTemporalImage(im.id, im.lat, im.lon, 50_000 + im.id % ticks, im.psi)
                  for im in random_images(rng, 1000, domain)]
        index = StviiIndex(make_config(domain, capacity=20))
        for im in images:
            index.insert(im)
        audit_stvii(index)
        area = sum((n.mbr[3] - n.mbr[0]) * (n.mbr[4] - n.mbr[1])
                   for n in walk(index.roots()) if n.children is None)
        domain_area = (domain.max_lat - domain.min_lat) * (domain.max_lon - domain.min_lon)
        assert area <= 4 * domain_area
        q = Query(psi=tuple(range(0, 60, 3)), loc=(rng.uniform(0, 100), rng.uniform(0, 100)),
                  t=50_010, k=10, weights=(1 / 3, 1 / 3, 1 / 3))
        got, stats = top_k_search(q, index)
        assert results_match(got, brute_force_oracle(q, images, index.params))
        assert stats.images_scored < len(images) / 4

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


def test_box_volume_counts_ticks():
    # a box within one tick measures its lat/lon area; a point measures 0
    assert _box_volume((1.0, 2.0, 7, 3.0, 5.0, 7)) == 6.0
    assert _box_volume((1.0, 2.0, 7, 3.0, 5.0, 9)) == 18.0
    assert _box_volume((1.0, 2.0, 7, 1.0, 2.0, 7)) == 0.0
    assert _box_volume((1.0, 2.0, 7, 1.0, 2.0, 9)) == 0.0


def _reference_choose_subtree(node, ebox):
    """The least volume enlargement, ties by smaller volume then fewer
    members, over ``_box_volume`` of a built union box: the reference for
    the inline ``StviiIndex._choose_subtree``."""
    def key(child):
        m = child.mbr
        union = [min(m[k], ebox[k]) for k in range(3)] + [max(m[k], ebox[k]) for k in range(3, 6)]
        n = len(child.images if child.children is None else child.children)
        return (_box_volume(union) - _box_volume(m), _box_volume(m), n)
    return min(node.children, key=key)


@pytest.mark.parametrize("t0", [0, 1_700_000_000, 1_700_000_000_000_000_000])
def test_choose_subtree_matches_reference(t0, domain):
    index = StviiIndex(make_config(domain))
    rng = random.Random(t0 % 1000 + 43)

    def corner(grid, one_tick):
        t = t0 if one_tick else t0 + rng.randint(0, 4)
        if grid:
            return (rng.randint(0, 3) * 0.5, rng.randint(0, 3) * 0.25, t)
        return (rng.uniform(0, 100), rng.uniform(0, 100), t)

    for trial in range(300):
        grid, one_tick, points = trial % 2 == 0, trial % 3 == 0, trial % 5 == 0
        node = RTree3DNode(leaf=False)
        for _ in range(rng.randint(1, 20)):
            corners = [corner(grid, one_tick) for _ in range(1 if points else 2)]
            child = RTree3DNode(leaf=rng.random() < 0.5)
            child.mbr = [min(c[k] for c in corners) for k in range(3)] + \
                [max(c[k] for c in corners) for k in range(3)]
            members = child.images if child.children is None else child.children
            members.extend([None] * rng.randint(1, 4))
            node.children.append(child)
        ebox = corner(grid, one_tick) * 2
        assert index._choose_subtree(node, ebox) is _reference_choose_subtree(node, ebox)


def _scalar_quadratic_split(boxes, min_fill):
    """Guttman's PickSeeds/PickNext one box at a time, the reference for
    the column-wise ``_quadratic_split``."""
    def union(a, b):
        return [min(a[k], b[k]) for k in range(3)] + [max(a[k], b[k]) for k in range(3, 6)]

    def grow(box, item):
        return _box_volume(union(box, item)) - _box_volume(box)

    n = len(boxes)
    best, seeds = None, None
    for i in range(n):
        for j in range(i + 1, n):
            d = _box_volume(union(boxes[i], boxes[j])) \
                - _box_volume(boxes[i]) - _box_volume(boxes[j])
            if best is None or d > best:
                best, seeds = d, (i, j)
    g1, g2 = [seeds[0]], [seeds[1]]
    mbr1, mbr2 = list(boxes[seeds[0]]), list(boxes[seeds[1]])
    remaining = [i for i in range(n) if i not in seeds]
    while remaining:
        if len(g1) + len(remaining) == min_fill:
            g1.extend(remaining)
            break
        if len(g2) + len(remaining) == min_fill:
            g2.extend(remaining)
            break
        pick, pref = None, -1.0
        for idx, i in enumerate(remaining):
            if abs(grow(mbr1, boxes[i]) - grow(mbr2, boxes[i])) > pref:
                pick, pref = idx, abs(grow(mbr1, boxes[i]) - grow(mbr2, boxes[i]))
        i = remaining.pop(pick)
        d1, d2 = grow(mbr1, boxes[i]), grow(mbr2, boxes[i])
        if (d1, _box_volume(mbr1), len(g1)) <= (d2, _box_volume(mbr2), len(g2)):
            g1.append(i)
            mbr1 = union(mbr1, boxes[i])
        else:
            g2.append(i)
            mbr2 = union(mbr2, boxes[i])
    return g1, g2


@pytest.mark.parametrize("t0", [0, 1_700_000_000, 1_700_000_000_000_000_000])
def test_quadratic_split_matches_scalar_reference(t0):
    # points and boxes with exact int times, off a coarse grid too so that
    # the seeds and picks tie and the tie-breaks decide
    # (trials from 60 on put every box on the one tick t0)
    rng = random.Random(t0 % 1000 + 41)
    for trial in range(90):
        n = rng.choice([2, 3, 7, 20, 101])
        grid = trial % 2 == 0
        one_tick = trial >= 60
        boxes = []
        for _ in range(n):
            corners = []
            for _ in range(1 if trial % 3 else 2):
                if grid:
                    corners.append((rng.randint(0, 3) * 0.5, rng.randint(0, 3) * 0.25,
                                    t0 if one_tick else t0 + rng.randint(0, 4)))
                else:
                    corners.append((rng.uniform(-90, 90), rng.uniform(-180, 180),
                                    t0 if one_tick else t0 + rng.randint(0, 36)))
            boxes.append(tuple(min(c[k] for c in corners) for k in range(3))
                         + tuple(max(c[k] for c in corners) for k in range(3)))
        m = rng.randint(1, max(1, n // 2))
        assert _quadratic_split(boxes, m) == _scalar_quadratic_split(boxes, m)


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
