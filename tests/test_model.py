import math
import random
from bisect import bisect_right
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import stats_snapshot

from geostream import kernels, model
from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import brute_force_oracle, walk
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import (
    ConfigError,
    CorpusStats,
    DomainError,
    GeoTemporalImage,
    InvalidStateError,
    Query,
    QueryContext,
    ScoreBreakdown,
    ScoreParams,
    UNDERFLOW,
    SpatialDomain,
    _whole,
    combined_score,
    mind_visual,
    spatial_proximity,
    temporal_recency,
    visual_relevance,
    visual_weight,
)
from geostream.verify import (
    build_all,
    random_images,
    random_query,
    results_match,
    stats_violations,
)


def img(id=0, lat=50.0, lon=50.0, t_c=1000, psi=((1, 1),)):
    return GeoTemporalImage(id, lat, lon, t_c, psi)


def query(psi=(1,), loc=(50.0, 50.0), t=1000, k=1, weights=(1 / 3, 1 / 3, 1 / 3)):
    return Query(psi=psi, loc=loc, t=t, k=k, weights=weights)


def params_for(domain, images, **kw):
    stats = CorpusStats(3600)
    for i in images:
        stats.add_image(i)
    return ScoreParams(domain=domain, stats=stats, **kw)


class TestSpatialProximity:
    def test_identity(self, domain):
        assert spatial_proximity(query(loc=(0.0, 0.0)), (0.0, 0.0), domain) == 0.0

    def test_diagonal_endpoints(self, domain):
        assert spatial_proximity(query(loc=(0.0, 0.0)), (100.0, 100.0), domain) == 1.0

    def test_hand_computed(self, domain):
        # distance 5 over a diagonal of sqrt(20000)
        got = spatial_proximity(query(loc=(0.0, 0.0)), (3.0, 4.0), domain)
        assert got == pytest.approx(0.0353553, abs=1e-6)
        assert got == pytest.approx(5.0 / math.sqrt(20000.0), abs=1e-12)

    def test_outside_domain_raises(self, domain):
        with pytest.raises(DomainError):
            spatial_proximity(query(loc=(0.0, 0.0)), (200.0, 0.0), domain)
        with pytest.raises(DomainError):
            spatial_proximity(query(loc=(-5.0, 0.0)), (10.0, 10.0), domain)


class TestVisualWeight:
    def test_no_smoothing(self, domain):
        image = img(psi=((1, 5), (2, 5)))
        p = params_for(domain, [image], xi=0.0)
        assert visual_weight(1, image, p) == 0.5

    def test_full_smoothing_is_corpus_frequency(self, domain):
        # xi -> 1 is outside [0,1); use xi close to 1 and check the trend,
        # plus the exact xi=0.2 arithmetic below
        corpus = [img(id=i, psi=((1, 1), (2, 9))) for i in range(10)]
        image = img(id=99, psi=((3, 1),))
        p = params_for(domain, corpus + [image], xi=0.9)
        w = visual_weight(1, image, p)
        assert w == pytest.approx(0.9 * (10 / 101), rel=1e-12)

    def test_direct_evaluation(self, domain):
        # xi=0.2, tf=2, |I.psi|=10, corpus tf=100, corpus total=1000 -> 0.18
        stats = CorpusStats(3600)
        image = img(psi=((1, 2), (2, 8)))
        stats.add_image(image)
        filler_tf = 1000 - image.total_tf
        stats.add_image(img(id=1, psi=((1, 98), (3, filler_tf - 98))))
        p = ScoreParams(domain=domain, stats=stats, xi=0.2)
        assert stats.total_word_count == 1000
        assert stats.corpus_tf(1) == 100
        assert visual_weight(1, image, p) == pytest.approx(0.18, abs=1e-12)

    def test_monotone_in_tf(self, domain):
        stats = CorpusStats(3600)
        imgs = [img(id=i, psi=((1, tf), (2, 10 - tf))) for i, tf in enumerate((1, 3, 5, 7))]
        for i in imgs:
            stats.add_image(i)
        p = ScoreParams(domain=domain, stats=stats, xi=0.3)
        weights = [visual_weight(1, i, p) for i in imgs]
        assert weights == sorted(weights)

    def test_empty_corpus_raises(self, domain, empty_stats):
        p = ScoreParams(domain=domain, stats=empty_stats)
        with pytest.raises(InvalidStateError):
            visual_weight(1, img(), p)
        # the public paths that build their own query context
        with pytest.raises(InvalidStateError, match="empty corpus"):
            visual_relevance(query(), img(), p)
        with pytest.raises(InvalidStateError, match="empty corpus"):
            combined_score(query(), img(), p)


class TestVisualRelevance:
    def test_corpus_max_image_scores_zero(self, domain):
        best = img(id=0, psi=((1, 9), (2, 1)))
        other = img(id=1, psi=((1, 1), (2, 9)))
        p = params_for(domain, [best, other], xi=0.3)
        assert visual_relevance(query(psi=(1,)), best, p) == 0.0

    def test_two_word_ratio(self, domain):
        # engineered weights 0.5/0.2 against maxima 0.5/0.4 -> 1 - 0.1/0.2
        from geostream import kernels

        assert kernels.relevance_cost([0.5, 0.2], [0.5, 0.4]) == pytest.approx(0.5, abs=1e-12)

    def test_floor_only_image_in_open_interval(self, domain):
        # image lacking both query words scores via smoothing floors only
        holder = img(id=0, psi=((1, 3), (2, 4)))
        empty = img(id=1, psi=((5, 7),))
        p = params_for(domain, [holder, empty], xi=0.4)
        got = visual_relevance(query(psi=(1, 2)), empty, p)
        # brute-force recomputation of the same formula
        num = 1.0
        den = 1.0
        for v in (1, 2):
            floor = 0.4 * p.stats.corpus_tf(v) / p.stats.total_word_count
            num *= floor
            den *= (1 - 0.4) * max_freq_of([holder, empty])[v] + floor
        assert got == pytest.approx(1.0 - num / den, abs=1e-12)
        assert 0.0 < got < 1.0

    def test_weakly_decreasing_in_weight(self):
        from geostream import kernels

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 10)
            maxima = [rng.uniform(0.2, 1.0) for _ in range(n)]
            weights = [rng.uniform(0.01, m) for m in maxima]
            base = kernels.relevance_cost(weights, maxima)
            i = rng.randrange(n)
            bumped = list(weights)
            bumped[i] = min(maxima[i], bumped[i] * 1.5)
            assert kernels.relevance_cost(bumped, maxima) <= base + 1e-12

    def test_absent_query_word_uses_floor(self, domain):
        image = img(id=0, psi=((1, 1),))
        p = params_for(domain, [image], xi=0.5)
        # word 42 occurs nowhere: zero floor on both sides, no error
        got = visual_relevance(query(psi=(1, 42)), image, p)
        assert 0.0 <= got <= 1.0


class TestTemporalRecency:
    def test_zero_age(self, domain, empty_stats):
        p = ScoreParams(domain=domain, stats=empty_stats)
        assert temporal_recency(query(t=500), 500, p) == 0.0

    def test_one_unit_half_life(self, domain, empty_stats):
        p = ScoreParams(domain=domain, stats=empty_stats, decay_base=2.0, time_unit=3600.0)
        assert temporal_recency(query(t=3600), 0, p) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_and_bounded(self, domain, empty_stats):
        p = ScoreParams(domain=domain, stats=empty_stats)
        ages = [0, 10, 3600, 100_000, 10_000_000]
        costs = [temporal_recency(query(t=a), 0, p) for a in ages]
        assert costs == sorted(costs)
        # approaches 1 from below; underflow pins extreme ages at exactly 1
        assert all(0.0 <= c <= 1.0 for c in costs)
        assert costs[2] < 1.0

    def test_future_image_clamps_to_zero(self, domain, empty_stats):
        p = ScoreParams(domain=domain, stats=empty_stats)
        assert temporal_recency(query(t=100), 5000, p) == 0.0


class TestCombinedScore:
    def test_all_components_zero(self, domain):
        image = img(id=0, lat=10.0, lon=20.0, t_c=999, psi=((1, 3),))
        p = params_for(domain, [image, img(id=1, psi=((1, 1), (2, 5)))])
        q = query(psi=(1,), loc=(10.0, 20.0), t=999)
        sb = combined_score(q, image, p)
        assert sb.f_s == 0.0 and sb.f_v == 0.0 and sb.f_t == 0.0
        assert sb.f_stv == 0.0

    def test_derived_arithmetic(self, domain, empty_stats):
        from geostream import kernels

        got = kernels.combine(1 / 3, 1 / 3, 1 / 3, 0.0353553, 0.5, 0.5)
        assert got == pytest.approx(0.3451184, abs=1e-6)

    def test_weight_dominance_limit(self, domain):
        image = img(id=0, lat=80.0, lon=80.0, t_c=0, psi=((1, 1),))
        p = params_for(domain, [image])
        eps = 1e-9
        q = query(psi=(1,), loc=(10.0, 10.0), t=100_000,
                  weights=(1 - 2 * eps, eps, eps))
        sb = combined_score(q, image, p)
        assert sb.f_stv == pytest.approx(sb.f_s, abs=1e-6)

    def test_linearity_in_components(self):
        from geostream import kernels

        rng = random.Random(3)
        for _ in range(100):
            w = [rng.random() + 0.01 for _ in range(3)]
            s = sum(w)
            w = [x / s for x in w]
            f = [rng.random() for _ in range(3)]
            base = kernels.combine(*w, *f)
            delta = rng.random() * 0.1
            i = rng.randrange(3)
            g = list(f)
            g[i] += delta
            assert kernels.combine(*w, *g) - base == pytest.approx(w[i] * delta, abs=1e-12)

    def test_pure_function(self, domain):
        image = img(id=0, lat=12.0, lon=34.0, t_c=10, psi=((1, 2), (5, 3)))
        p = params_for(domain, [image, img(id=1, psi=((1, 7), (9, 1)))])
        q = query(psi=(1, 5, 9), loc=(40.0, 60.0), t=5000, weights=(0.2, 0.5, 0.3))
        a = combined_score(q, image, p)
        b = combined_score(q, image, p)
        assert a == b  # bit-identical

    def test_component_ranges_random(self, domain):
        rng = random.Random(11)
        images = []
        for i in range(50):
            psi = sorted((w, rng.randint(1, 4)) for w in rng.sample(range(30), rng.randint(1, 6)))
            images.append(img(id=i, lat=rng.uniform(0, 100), lon=rng.uniform(0, 100),
                              t_c=rng.randint(0, 10_000), psi=psi))
        p = params_for(domain, images)
        for _ in range(100):
            anchor = rng.choice(images)
            q = query(psi=tuple(sorted(rng.sample(range(30), rng.randint(1, 5)))),
                      loc=(rng.uniform(0, 100), rng.uniform(0, 100)),
                      t=rng.randint(0, 20_000))
            sb = combined_score(q, anchor, p)
            for c in (sb.f_s, sb.f_v, sb.f_t, sb.f_stv):
                assert 0.0 <= c <= 1.0
            expected = sum(w * f for w, f in zip(q.weights, (sb.f_s, sb.f_v, sb.f_t)))
            assert sb.f_stv == pytest.approx(expected, abs=1e-12)


class TestValidation:
    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            query(weights=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            query(weights=(1.0, 0.0, 0.0))

    def test_bad_k(self):
        with pytest.raises(ConfigError):
            query(k=0)

    @pytest.mark.parametrize("t", [2 ** 63, -2 ** 63 - 1, 10 ** 400])
    def test_query_time_outside_int64(self, t):
        # an index admits only int64 timestamps; a query time past them
        # would end every search in an untyped OverflowError
        with pytest.raises(ConfigError, match="query time t must be within int64"):
            query(t=t)
        assert query(t=2 ** 63 - 1).t == 2 ** 63 - 1
        assert query(t=-2 ** 63).t == -2 ** 63

    def test_empty_query_words(self):
        with pytest.raises(ConfigError):
            query(psi=())

    def test_image_invariants(self):
        with pytest.raises(ValueError):
            GeoTemporalImage(0, 0, 0, 0, [])
        with pytest.raises(ValueError):
            GeoTemporalImage(0, 0, 0, 0, [(2, 1), (1, 1)])
        with pytest.raises(ValueError):
            GeoTemporalImage(0, 0, 0, 0, [(1, 0)])

    @pytest.mark.parametrize("psi", [
        [(1.5, 2)],
        [(1, 2.7)],
        [(1, 0.5)],
        [(1, 1), (math.nan, 1)],
        [(1, math.inf)],
        [(None, 1)],
        [(1, None)],
        [(True, 1)],
        [("7", 1)],
    ], ids=["word-1.5", "tf-2.7", "tf-0.5", "nan-word", "inf-tf", "none-word", "none-tf",
            "bool-word", "str-word"])
    def test_non_integral_posting(self, psi):
        # int() would truncate these (word 1.5 -> 1, tf 2.7 -> 2, tf 0.5 -> 0),
        # convert a bool or a string, or refuse None with a TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            img(psi=psi)

    @pytest.mark.parametrize("kw", [
        {"psi": (2.9, 3)},
        {"k": 1.9},
        {"k": math.nan},
        {"k": math.inf},
        {"k": True},
        {"k": None},
        {"psi": (None,)},
    ], ids=["word-2.9", "k-1.9", "nan-k", "inf-k", "bool-k", "none-k", "none-word"])
    def test_non_integral_query(self, kw):
        with pytest.raises(ConfigError, match="must be an integer"):
            query(**kw)

    @pytest.mark.parametrize("id", [1.5, "7", None, True], ids=["1.5", "str", "none", "bool"])
    def test_non_integral_image_id(self, id):
        # int() would truncate 1.5, convert a string or a bool, and refuse
        # None with a TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            img(id=id)

    @pytest.mark.parametrize("value", ["50", True, None, math.nan, math.inf],
                             ids=["str", "bool", "none", "nan", "inf"])
    @pytest.mark.parametrize("axis", ["lat", "lon"])
    def test_non_finite_location(self, axis, value):
        # float() would convert a string or a bool and refuse None with a
        # TypeError; NaN and infinity are no place
        with pytest.raises(ValueError, match=f"{axis} must be finite and real"):
            img(**{axis: value})

    def test_freq_is_each_ratio_in_word_order(self, domain):
        images = random_images(random.Random(67), 200, domain) + [img(psi=[(1.0, 2.0), [3, 6]])]
        for image in images:
            total = sum(tf for _, tf in image.psi)
            assert image.freq == {w: tf / total for w, tf in image.psi}
            assert list(image.freq) == [w for w, _ in image.psi] == sorted(image.freq)

    def test_whole_floats_and_list_pairs_accepted(self):
        assert img(psi=[(1.0, 2.0), [3, 1]]).psi == ((1, 2), (3, 1))
        q = query(psi=(3.0, 2), k=2.0, t=7.0)
        assert q.psi == (2, 3) and q.k == 2 and q.t == 7
        image = img(id=4.0, t_c=9.0)
        assert (image.id, image.t_c) == (4, 9)
        assert type(image.id) is int and type(image.t_c) is int
        # the integer rule itself: an exact int comes back unchanged, also
        # beyond int64 (its callers check the range); a numpy integer and
        # a whole float become the int they equal
        assert _whole(2**70, "n", ConfigError) == 2**70
        for value in (np.int64(3), 3.0):
            n = _whole(value, "n", ConfigError)
            assert n == 3 and type(n) is int
        for value in (True, False, np.bool_(True), 3.5, "3", None):
            with pytest.raises(ConfigError, match="n must be an integer"):
                _whole(value, "n", ConfigError)

    def test_bad_params(self, domain, empty_stats):
        with pytest.raises(ConfigError):
            ScoreParams(domain=domain, stats=empty_stats, xi=1.0)
        with pytest.raises(ConfigError):
            ScoreParams(domain=domain, stats=empty_stats, decay_base=1.0)
        with pytest.raises(ConfigError, match="time unit must be positive"):
            ScoreParams(domain=domain, stats=empty_stats, time_unit=0)

    @pytest.mark.parametrize("bad", [None, (0.0, 1.0, 0.0, 1.0), "0,1,0,1"],
                             ids=["none", "tuple", "string"])
    def test_domain_must_be_a_spatial_domain(self, empty_stats, bad):
        with pytest.raises(ConfigError, match="domain"):
            ScoreParams(domain=bad, stats=empty_stats)
        # each index builds its ScoreParams when it is made, before any insert
        for cls in (HiqIndex, IfaIndex, StviiIndex):
            with pytest.raises(ConfigError, match="domain"):
                cls(HiqConfig(domain=bad))

    def test_degenerate_domain(self):
        with pytest.raises(ConfigError):
            SpatialDomain(0, 0, 0, 10)

    @pytest.mark.parametrize("kw", [
        {"weights": (math.nan, 0.5, 0.5)},
        {"loc": (math.nan, 50.0)},
        {"loc": (50.0, math.inf)},
        {"loc": None},
        {"loc": "ab"},
        {"loc": (1, 2, 3)},
        {"weights": ("a", 0.3, 0.5)},
    ], ids=["nan-weight", "nan-lat", "inf-lon", "none-loc", "str-loc", "three-loc",
            "str-weight"])
    def test_non_finite_query(self, kw):
        with pytest.raises(ConfigError):
            query(**kw)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 2.7, None, True, "5"],
                             ids=["nan", "inf", "-inf", "2.7", "none", "bool", "str"])
    def test_non_finite_timestamps(self, t):
        # int() would truncate 2.7, convert True and "5", and refuse None
        # with a TypeError
        with pytest.raises(ConfigError):
            query(t=t)
        with pytest.raises(ConfigError):
            img(t_c=t)

    @pytest.mark.parametrize("kw", [
        {"decay_base": math.nan},
        {"decay_base": math.inf},
        {"time_unit": math.nan},
        {"time_unit": math.inf},
        {"xi": "0.5"},
        {"xi": 10 ** 400},      # float() raises OverflowError: read as an infinity
    ], ids=["nan-decay-base", "inf-decay-base", "nan-time-unit", "inf-time-unit", "str-xi",
            "int-beyond-float-xi"])
    def test_non_finite_params(self, domain, empty_stats, kw):
        with pytest.raises(ConfigError):
            ScoreParams(domain=domain, stats=empty_stats, **kw)

    @pytest.mark.parametrize("bounds", [
        (0.0, math.inf, 0.0, 10.0),
        (-math.inf, 10.0, 0.0, 10.0),
        (0.0, 10.0, 0.0, math.inf),
        ("a", 1, 0, 1),
        # every spatial cost divides by the diagonal: an overflowing square
        # raised an untyped OverflowError, an infinite diagonal made every
        # cost 0.0 and a zero one divided by zero in the searches
        (0.0, 1e200, 0.0, 1.0),
        (-1e308, 1e308, 0.0, 1.0),
        (0.0, 1e-200, 0.0, 1e-200),
    ], ids=["inf-max-lat", "inf-min-lat", "inf-max-lon", "str-min-lat",
            "diagonal-squares-overflow", "diagonal-extent-overflows", "diagonal-underflows"])
    def test_non_finite_domain(self, bounds):
        with pytest.raises(ConfigError):
            SpatialDomain(*bounds)


class TestCorpusStats:
    @pytest.mark.parametrize("span", [None, 0, -100, 1.5, "100", True, math.inf])
    def test_segment_span_is_a_whole_number_of_at_least_one(self, span):
        with pytest.raises(ConfigError, match="segment_span"):
            CorpusStats(span)

    @pytest.mark.parametrize("cls", [HiqIndex, IfaIndex, StviiIndex], ids=lambda c: c.kind)
    def test_remove_image_raises_and_changes_nothing(self, domain, cls):
        # images leave only by expire: dropping one, held or not, is refused,
        # and a HIQ index keeps its trees and answers as the oracle does
        rng = random.Random(8)
        index = cls(HiqConfig(domain=domain, segment_span=20_000, window=5, capacity=8))
        images = sorted(random_images(rng, 60, domain), key=lambda i: i.t_c)
        for i in images:
            index.insert(i)
        stats = index.stats
        snapshot, buckets = stats_snapshot(stats), dict(stats.buckets)
        held = {key: (list(b.images), b.tree) for key, b in buckets.items()}
        for i in (images[17], img(id=10**6, t_c=images[-1].t_c)):
            with pytest.raises(InvalidStateError):
                stats.remove_image(i)
        assert stats_snapshot(stats) == snapshot and stats.buckets == buckets
        assert {key: (list(b.images), b.tree) for key, b in buckets.items()} == held
        assert stats_violations(stats, images) == []
        assert all((b.tree is not None) == (cls is HiqIndex) for b in buckets.values())
        for _ in range(10):
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, index.live_images(), index.params)
            assert results_match(index.search(q)[0], expected)

    def test_whole_drop_reads_no_image(self):
        # a bucket leaves with its own counts: no expired image's words
        # or counts are read
        class Counted(GeoTemporalImage):
            reads = 0

            def __getattribute__(self, name):
                if name in ("psi", "freq", "total_tf"):
                    Counted.reads += 1
                return super().__getattribute__(name)

        rng = random.Random(41)
        images = [Counted(i, 50.0, 50.0, rng.randint(0, 299),
                          sorted((w, rng.randint(1, 3)) for w in rng.sample(range(8), 3)))
                  for i in range(60)]
        stats = CorpusStats(100)
        for i in images:
            stats.add_image(i)
        Counted.reads = 0
        gone = stats.expire(200)
        assert Counted.reads == 0
        assert sorted(i.id for i in gone) == sorted(i.id for i in images if i.t_c < 200)
        assert stats_violations(stats, [i for i in images if i.t_c >= 200]) == []

    def test_counts_equal_a_recount_after_each_change(self):
        # whole drops, a cutoff inside a bucket and a late arrival into an
        # older bucket, each checked against a recount
        rng = random.Random(43)
        images = []
        for i in range(150):
            psi = sorted((w, rng.randint(1, 4)) for w in rng.sample(range(12), rng.randint(1, 5)))
            images.append(img(id=i, t_c=rng.randint(0, 499), psi=psi))
        stats = CorpusStats(100)
        for i in images:
            stats.add_image(i)
        assert stats_violations(stats, images) == []
        stats.expire(200)                       # two whole buckets
        images = [i for i in images if i.t_c >= 200]
        assert stats_violations(stats, images) == []
        stats.expire(250)                       # inside the bucket [200, 300)
        images = [i for i in images if i.t_c >= 250]
        assert stats_violations(stats, images) == []
        late = img(id=500, t_c=260, psi=((3, 2), (12, 1)))
        stats.add_image(late)                   # into the oldest live bucket
        images.append(late)
        assert stats_violations(stats, images) == []

    def test_dropped_bucket_takes_its_maximum(self):
        # word 1's only maximum (1.0) sits in the bucket [0, 100); the
        # bucket [100, 200) holds word 1 at 1/4 and 1/2
        stats = CorpusStats(100)
        first = [img(id=0, t_c=10, psi=((1, 1),)), img(id=1, t_c=99, psi=((1, 1), (2, 1)))]
        second = [img(id=2, t_c=100, psi=((1, 1), (3, 3))), img(id=3, t_c=150, psi=((1, 2), (3, 2)))]
        for i in first + second:
            stats.add_image(i)
        assert stats.weight_range(1, 0.0) == (0.0, 1.0)
        before = stats_snapshot(stats)
        assert sorted(i.id for i in stats.expire(100)) == [0, 1]
        assert stats_snapshot(stats) != before
        assert stats.weight_range(1, 0.0) == (0.0, 0.5)
        assert stats.weight_range(2, 0.0) == (0.0, 0.0)
        assert stats_violations(stats, second) == []
        assert stats.expire(100) == []          # nothing left before it
        assert sorted(i.id for i in stats.expire(200)) == [2, 3]
        assert stats_violations(stats, []) == []

    def test_late_arrival_leaves_with_its_segment(self):
        # arrivals run ahead of time order: each segment gets images after
        # a newer segment has opened, and leaves with them
        rng = random.Random(17)
        images = []
        for i in range(120):
            psi = sorted((w, rng.randint(1, 4)) for w in rng.sample(range(12), rng.randint(1, 4)))
            images.append(img(id=i, t_c=rng.randint(0, 599), psi=psi))
        stats = CorpusStats(100)
        for i in images:
            stats.add_image(i)
        assert stats_violations(stats, images) == []
        for cutoff in (100, 300, 600):
            gone = stats.expire(cutoff)
            assert sorted(i.id for i in gone) == sorted(i.id for i in images if i.t_c < cutoff)
            images = [i for i in images if i.t_c >= cutoff]
            assert stats_violations(stats, images) == []
            # a late arrival into the oldest live bucket, which holds word
            # 13's only maximum until that bucket leaves
            late = img(id=1000 + cutoff, t_c=cutoff + 1, psi=((13, 1),))
            stats.add_image(late)
            images.append(late)
            assert stats.weight_range(13, 0.0) == (0.0, 1.0)
            assert stats_violations(stats, images) == []

    def test_cutoff_inside_a_bucket(self):
        # the cutoff 150 splits the bucket [100, 200): its images before
        # 150 leave, and the bucket is rebuilt from the rest
        rng = random.Random(23)
        images = []
        for i in range(90):
            psi = sorted((w, rng.randint(1, 4)) for w in rng.sample(range(10), rng.randint(1, 4)))
            images.append(img(id=i, t_c=rng.randint(0, 299), psi=psi))
        # word 11's maximum is before the cutoff, a lower ratio after it
        images.append(img(id=90, t_c=120, psi=((11, 1),)))
        images.append(img(id=91, t_c=180, psi=((2, 1), (11, 1))))
        stats = CorpusStats(100)
        for i in images:
            stats.add_image(i)
        assert stats.weight_range(11, 0.0) == (0.0, 1.0)
        for cutoff in (150, 150, 199, 201):
            gone = stats.expire(cutoff)
            assert sorted(i.id for i in gone) == sorted(i.id for i in images if i.t_c < cutoff)
            images = [i for i in images if i.t_c >= cutoff]
            assert stats_violations(stats, images) == []
        # one bucket holding every image: the cutoff falls inside it
        whole = CorpusStats(1000)
        for i in images:
            whole.add_image(i)
        whole.expire(250)
        assert stats_violations(whole, [i for i in images if i.t_c >= 250]) == []

    def test_bucket_aggregates_equal_a_recount(self, domain):
        # after each add_image and an expire whose cutoff splits the bucket
        # [100, 200)
        images = random_images(random.Random(71), 120, domain, vocab=10, t_lo=0, t_hi=399)
        stats = CorpusStats(100)
        for n, i in enumerate(images, 1):
            stats.add_image(i)
            assert stats_violations(stats, images[:n]) == []
        gone = stats.expire(150)
        assert sorted(i.id for i in gone) == sorted(i.id for i in images if i.t_c < 150)
        images = [i for i in images if i.t_c >= 150]
        assert stats_violations(stats, images) == []

    def test_max_weight_matches_per_image_max(self, domain):
        rng = random.Random(9)
        images = []
        for i in range(40):
            psi = sorted((w, rng.randint(1, 6)) for w in rng.sample(range(10), rng.randint(1, 4)))
            images.append(img(id=i, psi=psi))
        p = params_for(domain, images, xi=0.35)
        for w in range(10):
            expected = max(visual_weight(w, i, p) for i in images)
            assert p.stats.weight_range(w, 0.35)[1] == expected


def test_long_query_does_not_underflow():
    # both products underflow to 0.0 over 200 words; their ratio must not
    got = kernels.relevance_cost([0.999e-6] * 200, [1e-6] * 200)
    assert got == pytest.approx(1.0 - 0.999 ** 200, rel=1e-9)
    got = kernels.relevance_cost([1e-6] * 200, [2e-6] * 200)
    assert 0.0 <= got <= 1.0
    # ratio (1/2)^200 is tiny but nonzero in log space
    assert got == pytest.approx(1.0, abs=1e-12)


def test_mind_visual_lower_bounds_images(domain):
    rng = random.Random(13)
    images = []
    for i in range(30):
        psi = sorted((w, rng.randint(1, 4)) for w in rng.sample(range(15), rng.randint(1, 5)))
        images.append(img(id=i, psi=psi))
    p = params_for(domain, images, xi=0.4)
    node_max = {}
    for i in images:
        for w, tf in i.psi:
            f = tf / i.total_tf
            node_max[w] = max(node_max.get(w, 0.0), f)
    for _ in range(50):
        q = query(psi=tuple(sorted(rng.sample(range(15), rng.randint(1, 6)))))
        bound = mind_visual(q, node_max, p)
        for i in images:
            assert bound <= visual_relevance(q, i, p) + 1e-12


def reference_visual(q, image, p):
    """Visual relevance from one weight and one live maximum per query
    word, by the reference kernels."""
    stats, xi = p.stats, p.xi
    weights = [kernels.visual_weight(image.freq.get(v, 0.0),
                                     stats.corpus_tf(v), stats.total_word_count, xi)
               for v in q.psi]
    maxima = [stats.weight_range(v, xi)[1] for v in q.psi]
    return kernels.relevance_cost(weights, maxima)


def reference_mind(q, node_max_freq, p):
    stats, xi = p.stats, p.xi
    weights = [(1.0 - xi) * node_max_freq.get(v, 0.0) + stats.weight_range(v, xi)[0]
               for v in q.psi]
    maxima = [stats.weight_range(v, xi)[1] for v in q.psi]
    return kernels.relevance_cost(weights, maxima)


def scalar_visual(ctx, image):
    """The visual cost of one image from one pass over ``image.psi``, the
    ratio recomputed from the counts and summed in word order: the
    reference that ``mind_visual`` of the image's ``freq`` equals bit for
    bit."""
    word_tf = dict(image.psi)
    for v in zero_floor_words(ctx):
        if v not in word_tf:
            return 1.0
    log_num = 0.0
    log_diff = 0.0
    held = 0
    for v, tf in image.psi:
        fl = ctx._floors.get(v)
        if fl is not None:
            lw = math.log(ctx._scale * (tf / image.total_tf) + fl[0])
            log_num += lw
            log_diff += lw - fl[1]
            held += 1
    return formula_cost(ctx, log_num, log_diff, held)


def zero_floor_words(ctx):
    """The live query words whose smoothing floor is 0.0, read from the
    context's floors: an image lacking one has a ratio of 0."""
    return [v for v, (floor, _lf) in ctx._floors.items() if floor == 0.0]


def floor_const(ctx):
    """``sum(log floor_v) - sum(log m_v)`` over the live query words, the
    log floors of the positive floors summed in query order: the
    formula's constant for a map lacking a word. The context's own
    ``_log_const`` is ``-inf`` when a floor is zero."""
    log_floors = 0.0
    for floor, lf in ctx._floors.values():
        if floor > 0.0:
            log_floors += lf
    return log_floors - ctx._log_den


def formula_cost(ctx, log_num, log_diff, held):
    """The visual cost from an image's or node's log sums over its
    ``held`` query words."""
    if held == len(ctx._floors):
        ratio = math.exp(log_num - ctx._log_den)
    else:
        ratio = math.exp(log_diff + floor_const(ctx))
    return 1.0 - min(ratio, 1.0)


@pytest.mark.parametrize("xi", [0.0, 0.35, 0.5])
def test_mind_visual_of_freq_is_the_scalar_visual_loop(domain, xi):
    # half the queries are one image's words, which that image holds
    # every one of; the rest add words, two of them outside the corpus.
    # At xi = 0 every floor is zero, so an image lacking a word costs 1.0
    rng = random.Random(int(xi * 100) + 73)
    images = random_images(rng, 150, domain, vocab=12)
    p = params_for(domain, images, xi=xi)
    holds_all = lacks_zero_word = 0
    for n in range(60):
        words = {w for w, _ in rng.choice(images).psi}
        if n % 2:
            words |= set(rng.sample(range(14), rng.randint(1, 4)))
        ctx = QueryContext(query(psi=tuple(sorted(words))), p)
        for image in images:
            assert ctx.mind_visual(image.freq) == scalar_visual(ctx, image)
            assert visual_relevance(ctx.q, image, p) == scalar_visual(ctx, image)
            holds_all += ctx._floors.keys() <= image.freq.keys()
            lacks_zero_word += any(v not in image.freq for v in zero_floor_words(ctx))
    assert holds_all
    assert bool(lacks_zero_word) == (xi == 0.0)


def max_freq_of(images):
    mf = {}
    for i in images:
        for w, tf in i.psi:
            mf[w] = max(mf.get(w, 0.0), tf / i.total_tf)
    return mf


class TestQueryContext:
    @pytest.mark.parametrize("xi", [0.0, 0.35, 0.5])
    def test_matches_per_word_definition(self, domain, xi):
        rng = random.Random(int(xi * 100) + 21)

        def psi(words):
            return sorted((w, rng.randint(1, 6)) for w in set(words))

        for _ in range(60):
            corpus = [img(id=i, psi=psi(rng.sample(range(25), rng.randint(1, 6))))
                      for i in range(rng.randint(1, 40))]
            # words 25..34 occur in no corpus image unless a probe adds them
            qwords = rng.sample(range(35), rng.randint(1, 12))
            q = query(psi=qwords)
            extra = rng.sample(range(35, 45), 2)
            probes = [
                img(id=1000, psi=psi(qwords + extra)),                          # all
                img(id=1001, psi=psi(rng.sample(qwords, (len(qwords) + 1) // 2) + extra)),
                img(id=1002, psi=psi(extra)),                                   # none
            ]
            if rng.random() < 0.5:
                corpus += probes
            p = params_for(domain, corpus, xi=xi)
            for image in corpus + probes:
                assert visual_relevance(q, image, p) == pytest.approx(
                    reference_visual(q, image, p), abs=1e-12)
            nodes = [corpus, [], *([image] for image in probes)]
            nodes += [rng.sample(corpus, rng.randint(1, len(corpus))) for _ in range(5)]
            for node in nodes:
                mf = max_freq_of(node)
                assert mind_visual(q, mf, p) == pytest.approx(reference_mind(q, mf, p), abs=1e-12)

    @pytest.mark.parametrize("xi", [0.0, 0.35, 0.5])
    def test_best_image_costs_exactly_zero(self, domain, xi):
        rng = random.Random(8)
        for _ in range(50):
            qwords = sorted(rng.sample(range(50), rng.randint(1, 8)))
            # every query word at frequency >= 1/24 in the best image and
            # at most 1/31 in the others
            best = img(id=0, psi=[(w, rng.randint(1, 3)) for w in qwords])
            others = [
                img(id=i, psi=sorted([(w, 1) for w in rng.sample(qwords, rng.randint(1, len(qwords)))]
                                     + [(100 + i, 30)]))
                for i in range(1, rng.randint(2, 20))
            ]
            p = params_for(domain, others + [best], xi=xi)
            q = query(psi=qwords)
            assert visual_relevance(q, best, p) == 0.0
            assert mind_visual(q, max_freq_of([best]), p) == 0.0
            assert mind_visual(q, max_freq_of(others + [best]), p) == 0.0

    @pytest.mark.parametrize("xi", [0.0, 0.35])
    def test_score_leaf_is_combined_score_bit_for_bit(self, domain, xi):
        rng = random.Random(31 + int(xi * 100))
        newer = lacking = absent = 0
        for trial in range(80):
            # words 60..69 occur in no corpus image
            corpus = random_images(rng, rng.randint(1, 30), domain, t_lo=0, t_hi=10_000)
            p = params_for(domain, corpus, xi=xi, decay_base=rng.uniform(1.1, 4.0),
                           time_unit=rng.choice((1.0, 600.0, 3600.0)))
            if trial % 4 == 0:
                words = rng.sample(range(70), 50)
            elif trial % 2:
                # one image's words and two more: images that hold three or
                # more query words at a visual cost below 1.0, where the
                # order of the arithmetic shows in the last bit
                words = [w for w, _tf in rng.choice(corpus).psi] + rng.sample(range(70), 2)
            else:
                words = rng.sample(range(70), rng.randint(1, 12))
            w1 = rng.uniform(0.05, 0.6)
            w2 = rng.uniform(0.05, 0.95 - w1)
            # k covers the whole leaf, so every image with a query word
            # is admitted to the empty running top k
            q = Query(psi=words,
                      loc=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                      t=rng.randint(0, 10_000), k=30, weights=(w1, w2, 1.0 - w1 - w2))
            absent += any(v >= 60 for v in q.psi)
            leaf = SimpleNamespace(images=corpus)
            worst = []
            ctx = QueryContext(q, p)
            scored = sorted(ctx.score_leaf(leaf, worst), key=lambda pair: pair[1].id)
            # each heap entry: (-f_stv, -id, image, f_s, f_v, f_t)
            entries = {-nid: (-nf, image, (f_s, f_v, f_t))
                       for nf, nid, image, f_s, f_v, f_t in worst}
            assert sorted(entries) == [image.id for _f, image in scored]
            assert [image for _f, image in scored] == \
                [image for image in corpus if set(q.psi) & set(image.freq)]
            # the reference builds its own context and scores through the
            # kernels, so a fault in the leaf scorer cannot show in both sides
            for f, image in scored:
                newer += image.t_c > q.t
                lacking += not set(q.psi) <= set(image.freq)
                expected = combined_score(q, image, p)
                assert f == expected.f_stv
                assert entries[image.id] == (f, image, expected[:3])
                assert combined_score(q, image, p, entries[image.id][2]) == expected
                assert combined_score(q, image, p, ctx.terms(image)) == expected
        assert newer and lacking and absent

    def test_breakdown_computes_its_terms_unless_given_them(self, domain, monkeypatch):
        rng = random.Random(57)
        corpus = random_images(rng, 40, domain, vocab=8, t_lo=0, t_hi=5000)
        p = params_for(domain, corpus, xi=0.35)
        q = query(psi=(1, 2, 3), loc=(30.0, 70.0), t=5000, k=3)
        worst = []
        ctx = QueryContext(q, p)
        admitted = {image.id for _f, image in ctx.score_leaf(SimpleNamespace(images=corpus), worst)}
        # the scorer admitted images that later ones pushed out of the top 3
        assert len(worst) == 3 < len(admitted) < len(corpus)
        spatial = []
        spatial_cost = kernels.spatial_cost
        monkeypatch.setattr(kernels, "spatial_cost",
                            lambda *a: spatial.append(a) or spatial_cost(*a))
        # with no terms, right after a search of the same query object,
        # every breakdown is computed afresh, an admitted image's included,
        # and equals the one from the search's context's terms
        for image in corpus:
            spatial.clear()
            got = combined_score(q, image, p)
            assert len(spatial) == 1
            assert got == combined_score(q, image, p, ctx.terms(image))
        # with terms, exactly the ones given are combined, with no kernel:
        # the heap's own, and ones that are no image's
        w1, w2, w3 = q.weights
        want = [combined_score(q, image, p) for _nf, _nid, image, *_terms in worst]
        spatial.clear()
        assert [combined_score(q, image, p, terms)
                for _nf, _nid, image, *terms in worst] == want
        for terms in ((0.25, 0.5, 0.125), (1.0, 0.0, 1.0)):
            assert combined_score(q, corpus[0], p, terms) == \
                ScoreBreakdown(*terms, kernels.combine(w1, w2, w3, *terms))
        assert spatial == []


def full_visual(ctx, ratios):
    """The visual cost of a word -> ratio map by the whole formula: every
    held word's log, summed in query order, and no count of missing words
    consulted. The reference ``mind_visual`` equals bit for bit."""
    for v in zero_floor_words(ctx):
        if not ratios.get(v):
            return 1.0
    log_num = 0.0
    log_diff = 0.0
    held = 0
    for v, (floor, lf) in ctx._floors.items():
        f = ratios.get(v)
        if f:
            lw = math.log(ctx._scale * f + floor)
            log_num += lw
            log_diff += lw - lf
            held += 1
    return formula_cost(ctx, log_num, log_diff, held)


def full_columns(ctx, postings, n, base):
    """``visual_columns`` by the whole numpy pass: the logs of every
    posting of every query word, with no count of missing words
    consulted."""
    slot_cols, freq_cols, floors, log_floors, zero_cols = [], [], [], [], []
    for v, (floor, lf) in ctx._floors.items():
        cols = postings.get(v)
        if cols is None:
            continue
        slot_cols.append(cols[0])
        freq_cols.append(cols[1])
        floors.append(floor)
        log_floors.append(lf)
        if floor == 0.0:
            zero_cols.append(cols[0])
    counts = np.array([len(s) for s in slot_cols], dtype=np.intp)
    slots = np.frombuffer(b"".join(slot_cols), dtype=np.int64) - base
    lw = np.log(ctx._scale * np.frombuffer(b"".join(freq_cols)) + np.repeat(floors, counts))
    log_num = np.bincount(slots, weights=lw, minlength=n)
    log_diff = np.bincount(slots, weights=lw - np.repeat(log_floors, counts), minlength=n)
    held = np.bincount(slots, minlength=n)
    log_ratio = np.where(held == len(ctx._floors),
                         log_num - ctx._log_den, log_diff + floor_const(ctx))
    cost = 1.0 - np.minimum(np.exp(log_ratio), 1.0)
    zero_words = zero_floor_words(ctx)
    if zero_words:
        zero_held = np.bincount(np.frombuffer(b"".join(zero_cols), dtype=np.int64) - base,
                                minlength=n)
        cost[zero_held < len(zero_words)] = 1.0
    return cost, held


def gains_of(ctx, p):
    """Each live query word with its gain ``log m_v - log floor_v``,
    smallest first, from the statistics."""
    return sorted(((math.log(p.stats.weight_range(v, p.xi)[1]) - lf, v)
                   for v, (_floor, lf) in ctx._floors.items()))


def misses_to_underflow(ctx, p):
    """The fewest missing query words whose smallest gains sum past
    ``UNDERFLOW``; one more than the live query words when no count does,
    and 1 when a query word has a zero floor."""
    n = len(ctx._floors)
    if zero_floor_words(ctx):
        return 1
    total = 0.0
    for c, (g, _v) in enumerate(gains_of(ctx, p), 1):
        total += g
        if total > UNDERFLOW:
            return c
    return n + 1


def assert_scorers_equal_the_formula(p, trees, ifa, corpus, q, monkeypatch, seen):
    """Every node of ``trees``, every image, every leaf admission and
    every IFA slot costs what the whole formula gives for ``q``, bit for
    bit; where the miss count decides, that is exactly 1.0 and the leaf
    and column scorers take no log. ``mind_visual`` counts the missing
    words of each map first (``misses_decide``) exactly when ``2 * c <=
    n``, and the count decides a map exactly when it lacks ``c`` words.
    ``seen`` counts the nodes, images and column passes the count
    decided, the maps decided by the count taken first, the queries that
    take no count first, and the nodes one miss short of it that cost
    below 1.0. Returns the query's context."""
    ctx = QueryContext(q, p)
    reference = QueryContext(q, p)
    n = len(ctx._floors)
    c = ctx._misses
    assert c == misses_to_underflow(ctx, p)
    nodes = list(walk(trees))
    kinds = ["nodes"] * len(nodes) + ["images"] * len(corpus)
    maps = [node.max_freq for node in nodes] + [image.freq for image in corpus]
    counts = []

    def counted(ctx, ratios, decide=QueryContext.misses_decide):
        counts.append(decide(ctx, ratios))
        return counts[-1]

    with monkeypatch.context() as m:
        m.setattr(QueryContext, "misses_decide", counted)
        got = [ctx.mind_visual(ratios) for ratios in maps]
    lacking = [n - len(ctx._floors.keys() & ratios.keys()) >= c for ratios in maps]
    assert counts == (lacking if 2 * c <= n else [])
    seen["count_first"] += sum(counts)
    seen["walk_only"] += 2 * c > n
    for kind, ratios, cost, decided in zip(kinds, maps, got, lacking):
        want = full_visual(reference, ratios)
        assert cost == want
        if decided:
            assert want == 1.0
            seen[kind] += 1
    # the k of the query covers the corpus, so the leaf scorer admits
    # every image that holds a query word
    w1, w2, w3 = q.weights
    worst = []
    admitted = ctx.score_leaf(SimpleNamespace(images=corpus), worst)
    assert len(admitted) == len(worst) == \
        sum(1 for image in corpus if set(q.psi) & image.freq.keys())
    terms = {image.id: (f_s, f_v, f_t) for _nf, _nid, image, f_s, f_v, f_t in worst}
    for f, image in admitted:
        f_s, f_v, f_t = terms[image.id]
        assert f_s == kernels.spatial_cost(*q.loc, image.lat, image.lon, p.domain.delta_max)
        assert f_v == full_visual(reference, image.freq)
        assert f_t == kernels.recency_cost(q.t - image.t_c, p.decay_base, p.time_unit)
        assert f == kernels.combine(w1, w2, w3, f_s, f_v, f_t)
    slots = len(ifa.ids)
    got, held = ctx.visual_columns(ifa.postings, slots, ifa._base)
    want, want_held = full_columns(reference, ifa.postings, slots, ifa._base)
    assert np.array_equal(held, want_held)
    # a slot holding no query word gets a meaningless cost, which IFA drops
    assert got[held > 0].tobytes() == want[held > 0].tobytes()
    assert (want[held <= n - c] == 1.0).all()
    # what the count decides costs no log
    few = [image for image in corpus
           if 0 < len(ctx._floors.keys() & image.freq.keys()) <= n - c]
    logs = []
    with monkeypatch.context() as m:
        m.setattr(math, "log", lambda x, log=math.log: logs.append(x) or log(x))
        m.setattr(np, "log", lambda x, log=np.log: logs.append(x) or log(x))
        worst = []
        ctx.score_leaf(SimpleNamespace(images=few), worst)
        assert len(worst) == len(few)
        assert all(f_v == 1.0 for _nf, _nid, _image, _f_s, f_v, _f_t in worst)
        if n - c > 0 and not (held > n - c).any():
            ctx.visual_columns(ifa.postings, slots, ifa._base)
            seen["columns"] += 1
    assert logs == []
    # a node holding every word at its live maximum but the c - 1 of
    # smallest gain takes the full path, and one that also lacks the c-th
    # is 1.0 at once
    if c <= n:
        live_max = max_freq_of(corpus)
        top = {v: live_max[v] for v in ctx._floors}
        smallest = [v for _g, v in gains_of(ctx, p)[:c]]
        near = {v: f for v, f in top.items() if v not in smallest[:-1]}
        far = {v: f for v, f in top.items() if v not in smallest}
        exps = []
        with monkeypatch.context() as m:
            m.setattr(math, "exp", lambda x, exp=math.exp: exps.append(x) or exp(x))
            got_near, got_far = ctx.mind_visual(near), ctx.mind_visual(far)
        assert len(exps) == 1       # near's; far returns before its exp
        assert got_near == full_visual(reference, near)
        assert got_far == full_visual(reference, far) == 1.0
        seen["below_one"] += got_near < 1.0
    return ctx


def tally():
    return dict.fromkeys(("nodes", "images", "columns", "count_first", "walk_only",
                          "below_one"), 0)


class TestMissBound:
    @pytest.mark.parametrize("xi", [0.0, 0.2, 0.5, 0.9])
    def test_every_scorer_equals_the_full_formula(self, domain, xi, monkeypatch):
        # at xi = 0 every floor is zero, so the first miss decides
        rng = random.Random(int(xi * 10) + 401)
        config = HiqConfig(domain=domain, segment_span=10**6, capacity=4, max_depth=6, xi=xi)
        seen = tally()
        for trial in range(24):
            vocab = (8, 60, 500, 5000)[trial % 4]
            corpus = random_images(rng, rng.randint(1, 80), domain, vocab=vocab,
                                   t_lo=0, t_hi=10_000)
            hiq, ifa, stvii = build_all(corpus, config)
            live = sorted({w for image in corpus for w in image.freq})
            for _ in range(4):
                words = rng.sample(live, min(rng.randint(1, 60), len(live)))
                words += rng.sample(range(vocab, vocab + 10), rng.randint(0, 2))
                w1 = rng.uniform(0.05, 0.6)
                w2 = rng.uniform(0.05, 0.95 - w1)
                q = Query(psi=words, loc=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                          t=rng.randint(0, 10_000), k=len(corpus),
                          weights=(w1, w2, 1.0 - w1 - w2))
                ctx = assert_scorers_equal_the_formula(hiq.params, hiq.roots() + stvii.roots(),
                                                       ifa, corpus, q, monkeypatch, seen)
                if xi == 0.0:
                    assert ctx._misses == 1
        # the rule decides some of every kind of cost, and some held counts
        # one short of it still cost below 1.0
        assert all(seen.values()), seen

    @pytest.mark.parametrize("xi", [3e-322, 1e-321])
    def test_mixed_floors_equal_the_full_formula(self, domain, xi, monkeypatch):
        # words 0-7 fill half the corpus and keep a positive floor at these
        # subnormal xi, while a word of 8-4999 with a corpus tf of 1 gets a
        # floor of 0.0. Every query has both kinds, so the first miss
        # decides, also of a word whose floor is positive
        rng = random.Random(repr(xi))
        config = HiqConfig(domain=domain, segment_span=10**6, capacity=4, max_depth=6, xi=xi)
        seen = tally()
        for _ in range(12):
            corpus = (random_images(rng, 40, domain, vocab=8, t_lo=0, t_hi=10_000)
                      + random_images(rng, 40, domain, vocab=5000, t_lo=0, t_hi=10_000,
                                      id_base=40))
            hiq, ifa, stvii = build_all(corpus, config)
            rare = sorted({w for image in corpus for w in image.freq if w >= 8})
            once = [w for w in rare if hiq.params.stats.corpus_tf(w) == 1]
            for _ in range(4):
                words = sorted(set(rng.sample(range(8), rng.randint(1, 4)) + rng.sample(rare, 2)
                                   + [rng.choice(once)]))
                w1 = rng.uniform(0.05, 0.6)
                w2 = rng.uniform(0.05, 0.95 - w1)
                q = Query(psi=words, loc=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                          t=rng.randint(0, 10_000), k=len(corpus),
                          weights=(w1, w2, 1.0 - w1 - w2))
                ctx = assert_scorers_equal_the_formula(hiq.params, hiq.roots() + stvii.roots(),
                                                       ifa, corpus, q, monkeypatch, seen)
                floors = [floor for floor, _lf in ctx._floors.values()]
                assert min(floors) == 0.0 < max(floors)
                assert ctx._misses == 1
        # each query has three words or more, so the count always comes first
        assert seen.pop("walk_only") == 0
        assert all(seen.values()), seen

    def test_first_miss_decides_with_a_zero_floor(self, domain, monkeypatch):
        # at the smallest subnormal xi a word over half the corpus's terms
        # has a floor of 5e-324, whose gain is about 744, and the others a
        # floor of 0.0: a map lacking any query word costs 1.0 before an
        # exp, and every cost is the formula's
        corpus = [img(id=i, psi=((1, 9), (2 + i, 1))) for i in range(6)]
        p = params_for(domain, corpus, xi=5e-324)
        q = query(psi=(1, 2, 3))
        ctx = QueryContext(q, p)
        assert zero_floor_words(ctx) == [2, 3] and ctx._floors[1][0] > 0.0
        assert ctx._misses == 1
        reference = QueryContext(q, p)
        holding_all = {1: 0.9, 2: 0.1, 3: 0.1}
        for ratios in [image.freq for image in corpus] + [{2: 0.1, 3: 0.1}, {1: 0.9}, holding_all]:
            exps = []
            with monkeypatch.context() as m:
                m.setattr(math, "exp", lambda x, exp=math.exp: exps.append(x) or exp(x))
                got = ctx.mind_visual(ratios)
            assert got == full_visual(reference, ratios)
            assert len(exps) == (ratios is holding_all)
            assert (got == 1.0) == (ratios is not holding_all)


def reference_constants(q, params):
    """The query context's constants from their definitions, as ``(floors,
    log_den, log_const, misses, live_words, count_first, gains)``: each
    live word's ``(floor, max weight)`` from ``CorpusStats.weight_range``,
    the logs summed in query order, and ``misses`` from a bisection of the
    prefix sums of the sorted gains, under ``model.UNDERFLOW`` as it is
    when called."""
    stats, xi = params.stats, params.xi
    floors, gains = {}, []
    log_den = log_floors = 0.0
    zero_floor = False
    for v in q.psi:
        floor, m = stats.weight_range(v, xi)
        if m <= 0.0:
            continue
        log_den += math.log(m)
        lf = math.log(floor) if floor > 0.0 else 0.0
        log_floors += lf
        zero_floor |= floor == 0.0
        floors[v] = (floor, lf)
        gains.append(math.log(m) - lf)
    log_const = log_floors - log_den
    misses = len(floors) + 1
    if zero_floor:
        misses, log_const = 1, -math.inf
    elif -log_const > model.UNDERFLOW:
        misses = bisect_right(list(accumulate(sorted(gains))), model.UNDERFLOW) + 1
    return (list(floors.items()), log_den, log_const, misses, frozenset(floors),
            2 * misses <= len(floors), gains)


def context_constants(ctx):
    return (list(ctx._floors.items()), ctx._log_den, ctx._log_const, ctx._misses,
            ctx._live_words, ctx._count_first)


def assert_context_is_its_reference(q, params):
    """``QueryContext(q, params)`` and ``reference_constants`` agree bit
    for bit: the floats by ``repr``, which tells -0.0 from 0.0."""
    got, want = context_constants(QueryContext(q, params)), reference_constants(q, params)
    assert repr(got[:4]) == repr(want[:4])
    assert got[4:] == want[4:6]
    return want


def twin_corpora(rng, domain):
    """``(name, stats)`` of the corpora the context twin test reads: one
    segment, thirteen segments as a rolling stream keeps them, the same
    after an expiry off the segment grid, and an empty corpus."""
    span = 3_600
    one = CorpusStats(span)
    for image in random_images(rng, 200, domain, t_lo=0, t_hi=span - 1):
        one.add_image(image)
    assert len(one.buckets) == 1
    yield "one bucket", one
    rolling = CorpusStats(span)
    for image in sorted(random_images(rng, 400, domain, t_lo=0, t_hi=13 * span - 1),
                        key=lambda im: im.t_c):
        rolling.add_image(image)
    assert len(rolling.buckets) == 13
    yield "13 buckets", rolling
    cutoff = 5 * span + 1_234
    old = rolling.expire(cutoff)
    assert old and max(image.t_c for image in old) < cutoff
    assert min(image.t_c for image in rolling.buckets[5].images) >= cutoff
    yield "rebuilt after an expiry", rolling
    yield "empty", CorpusStats(span)


@pytest.mark.parametrize("xi", [0.0, 0.5, 0.9])
def test_context_constants_equal_the_weight_range_reference(domain, xi):
    # the query words are drawn from 90 ids, of which the images use 60;
    # the long queries' gains sum past UNDERFLOW, so ``_misses`` lies
    # between 1 and n + 1
    rng = random.Random(51)
    middle = 0
    for name, stats in twin_corpora(rng, domain):
        params = ScoreParams(domain=domain, stats=stats, xi=xi)
        for _ in range(40):
            q = query(psi=rng.sample(range(90), rng.randint(1, 60)),
                      loc=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)))
            floors, _, log_const, misses, *_ = assert_context_is_its_reference(q, params)
            if name == "empty":
                assert floors == [] and misses == 1 and log_const == 0.0
            elif xi == 0.0 and floors:
                assert {floor for _, (floor, _lf) in floors} == {0.0}
                assert misses == 1 and log_const == -math.inf
            middle += 1 < misses < len(floors) + 1
    assert middle > 0 if xi > 0.0 else middle == 0


def test_context_misses_when_no_sorted_prefix_passes(domain, monkeypatch):
    # ``-_log_const`` and the sum of the sorted gains are the same sum
    # taken in two orders; where rounding leaves the first above the
    # second, an UNDERFLOW equal to the second lets the count run and no
    # prefix pass it, so ``_misses`` is n + 1, as the bisection gives
    rng = random.Random(52)
    stats = next(stats for name, stats in twin_corpora(rng, domain) if name == "13 buckets")
    params = ScoreParams(domain=domain, stats=stats, xi=0.5)
    found = 0
    for _ in range(60):
        q = query(psi=rng.sample(range(60), rng.randint(30, 60)))
        ctx = QueryContext(q, params)
        total = 0.0
        for gain in sorted(reference_constants(q, params)[-1]):
            total += gain
        if -ctx._log_const <= total:
            continue
        with monkeypatch.context() as m:
            m.setattr(model, "UNDERFLOW", total)
            _, _, _, misses, *_ = assert_context_is_its_reference(q, params)
            assert misses == len(ctx._floors) + 1
        found += 1
    assert found > 0
