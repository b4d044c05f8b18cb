import math
import random

import pytest

from geostream import kernels
from geostream.model import (
    ConfigError,
    CorpusStats,
    DomainError,
    GeoTemporalImage,
    InvalidStateError,
    Query,
    ScoreParams,
    SpatialDomain,
    combined_score,
    mind_visual,
    spatial_proximity,
    temporal_recency,
    visual_relevance,
    visual_weight,
)
from geostream.verify import random_images


def img(id=0, lat=50.0, lon=50.0, t_c=1000, psi=((1, 1),)):
    return GeoTemporalImage(id, lat, lon, t_c, psi)


def query(psi=(1,), loc=(50.0, 50.0), t=1000, k=1, weights=(1 / 3, 1 / 3, 1 / 3)):
    return Query(psi=psi, loc=loc, t=t, k=k, weights=weights)


def params_for(domain, images, **kw):
    stats = CorpusStats()
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
        stats = CorpusStats()
        image = img(psi=((1, 2), (2, 8)))
        stats.add_image(image)
        filler_tf = 1000 - image.total_tf
        stats.add_image(img(id=1, psi=((1, 98), (3, filler_tf - 98))))
        p = ScoreParams(domain=domain, stats=stats, xi=0.2)
        assert stats.total_word_count == 1000
        assert stats.corpus_tf(1) == 100
        assert visual_weight(1, image, p) == pytest.approx(0.18, abs=1e-12)

    def test_monotone_in_tf(self, domain):
        stats = CorpusStats()
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
            den *= (1 - 0.4) * p.stats.max_freq(v) + floor
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

    def test_bad_params(self, domain, empty_stats):
        with pytest.raises(ConfigError):
            ScoreParams(domain=domain, stats=empty_stats, xi=1.0)
        with pytest.raises(ConfigError):
            ScoreParams(domain=domain, stats=empty_stats, decay_base=1.0)

    def test_degenerate_domain(self):
        with pytest.raises(ConfigError):
            SpatialDomain(0, 0, 0, 10)

    @pytest.mark.parametrize("kw", [
        {"weights": (math.nan, 0.5, 0.5)},
        {"loc": (math.nan, 50.0)},
        {"loc": (50.0, math.inf)},
    ], ids=["nan-weight", "nan-lat", "inf-lon"])
    def test_non_finite_query(self, kw):
        with pytest.raises(ConfigError):
            query(**kw)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_timestamps(self, t):
        with pytest.raises(ConfigError):
            query(t=t)
        with pytest.raises(ConfigError):
            img(t_c=t)

    @pytest.mark.parametrize("kw", [
        {"decay_base": math.nan},
        {"decay_base": math.inf},
        {"time_unit": math.nan},
        {"time_unit": math.inf},
    ], ids=["nan-decay-base", "inf-decay-base", "nan-time-unit", "inf-time-unit"])
    def test_non_finite_params(self, domain, empty_stats, kw):
        with pytest.raises(ConfigError):
            ScoreParams(domain=domain, stats=empty_stats, **kw)

    @pytest.mark.parametrize("bounds", [
        (0.0, math.inf, 0.0, 10.0),
        (-math.inf, 10.0, 0.0, 10.0),
        (0.0, 10.0, 0.0, math.inf),
    ], ids=["inf-max-lat", "inf-min-lat", "inf-max-lon"])
    def test_non_finite_domain(self, bounds):
        with pytest.raises(ConfigError):
            SpatialDomain(*bounds)


class TestCorpusStats:
    def test_add_remove_roundtrip(self):
        rng = random.Random(5)
        stats = CorpusStats()
        images = []
        for i in range(100):
            psi = sorted((w, rng.randint(1, 3)) for w in rng.sample(range(20), rng.randint(1, 5)))
            images.append(img(id=i, psi=psi))
        for i in images:
            stats.add_image(i)
        removed = images[:60]
        for i in removed:
            stats.remove_image(i)
        fresh = CorpusStats()
        for i in images[60:]:
            fresh.add_image(i)
        assert stats.total_word_count == fresh.total_word_count
        assert stats.word_corpus_tf == fresh.word_corpus_tf
        for w in range(20):
            assert stats.max_freq(w) == fresh.max_freq(w)

    @pytest.mark.parametrize("stranger", [
        img(id=7, t_c=150, psi=((1, 5),)),      # an id its bucket does not hold
        img(id=0, t_c=950, psi=((1, 5),)),      # a held id, in a bucket that is not there
    ], ids=["unknown-id", "no-bucket"])
    def test_remove_image_not_held(self, stranger):
        stats = CorpusStats(100)
        for i, t in enumerate((120, 180, 250)):
            stats.add_image(img(id=i, t_c=t, psi=((1, i + 1), (2, 1))))

        def state():
            return (stats.version, stats.total_word_count, dict(stats.word_corpus_tf),
                    [stats.max_freq(w) for w in range(4)])

        before = state()
        with pytest.raises(KeyError):
            stats.remove_image(stranger)
        assert state() == before

    @staticmethod
    def assert_recount(stats, survivors, vocab):
        fresh = CorpusStats()
        for i in survivors:
            fresh.add_image(i)
        assert stats.total_word_count == fresh.total_word_count
        assert stats.word_corpus_tf == fresh.word_corpus_tf
        for w in range(vocab):
            assert stats.max_freq(w) == fresh.max_freq(w)

    def test_dropped_bucket_takes_its_maximum(self):
        # word 1's only maximum (1.0) sits in the bucket [0, 100); the
        # bucket [100, 200) holds word 1 at 1/4 and 1/2
        stats = CorpusStats(100)
        first = [img(id=0, t_c=10, psi=((1, 1),)), img(id=1, t_c=99, psi=((1, 1), (2, 1)))]
        second = [img(id=2, t_c=100, psi=((1, 1), (3, 3))), img(id=3, t_c=150, psi=((1, 2), (3, 2)))]
        for i in first + second:
            stats.add_image(i)
        assert stats.max_freq(1) == 1.0
        version = stats.version
        assert sorted(i.id for i in stats.expire(100)) == [0, 1]
        assert stats.version > version
        assert stats.max_freq(1) == 0.5 and stats.max_freq(2) == 0.0
        self.assert_recount(stats, second, 5)
        assert stats.expire(100) == []          # nothing left before it
        assert sorted(i.id for i in stats.expire(200)) == [2, 3]
        self.assert_recount(stats, [], 5)

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
        self.assert_recount(stats, images, 14)
        for cutoff in (100, 300, 600):
            gone = stats.expire(cutoff)
            assert sorted(i.id for i in gone) == sorted(i.id for i in images if i.t_c < cutoff)
            images = [i for i in images if i.t_c >= cutoff]
            self.assert_recount(stats, images, 14)
            # a late arrival into the oldest live bucket, which holds word
            # 13's only maximum until that bucket leaves
            late = img(id=1000 + cutoff, t_c=cutoff + 1, psi=((13, 1),))
            stats.add_image(late)
            images.append(late)
            assert stats.max_freq(13) == 1.0
            self.assert_recount(stats, images, 14)

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
        assert stats.max_freq(11) == 1.0
        for cutoff in (150, 150, 199, 201):
            gone = stats.expire(cutoff)
            assert sorted(i.id for i in gone) == sorted(i.id for i in images if i.t_c < cutoff)
            images = [i for i in images if i.t_c >= cutoff]
            self.assert_recount(stats, images, 12)
        # a standalone stats object is one bucket: every cutoff falls inside
        whole = CorpusStats()
        for i in images:
            whole.add_image(i)
        whole.expire(250)
        self.assert_recount(whole, [i for i in images if i.t_c >= 250], 12)

    def test_max_weight_matches_per_image_max(self, domain):
        rng = random.Random(9)
        images = []
        for i in range(40):
            psi = sorted((w, rng.randint(1, 6)) for w in rng.sample(range(10), rng.randint(1, 4)))
            images.append(img(id=i, psi=psi))
        p = params_for(domain, images, xi=0.35)
        for w in range(10):
            expected = max(visual_weight(w, i, p) for i in images)
            assert p.stats.max_weight(w, 0.35) == expected


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
    weights = [kernels.visual_weight(image.word_tf.get(v, 0), image.total_tf,
                                     stats.corpus_tf(v), stats.total_word_count, xi)
               for v in q.psi]
    maxima = [stats.max_weight(v, xi) for v in q.psi]
    return kernels.relevance_cost(weights, maxima)


def reference_mind(q, node_max_freq, p):
    stats, xi = p.stats, p.xi
    weights = [(1.0 - xi) * node_max_freq.get(v, 0.0) + stats.smoothing_floor(v, xi)
               for v in q.psi]
    maxima = [stats.max_weight(v, xi) for v in q.psi]
    return kernels.relevance_cost(weights, maxima)


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

    def test_cached_until_the_corpus_changes(self, domain):
        first = img(id=0, psi=((1, 2), (2, 1)))
        p = params_for(domain, [first])
        q = query(psi=(1, 2))
        ctx = p.context(q)
        assert p.context(q) is ctx
        assert p.context(query(psi=(1, 2))) is not ctx      # an equal query, another object
        ctx = p.context(q)
        p.stats.add_image(img(id=1, psi=((1, 1),)))
        assert p.context(q) is not ctx
        ctx = p.context(q)
        p.stats.remove_image(first)
        assert p.context(q) is not ctx
        ctx = p.context(q)
        p.stats = CorpusStats()
        assert p.context(q) is not ctx

    @pytest.mark.parametrize("xi", [0.0, 0.35])
    def test_f_stv_is_combined_score_bit_for_bit(self, domain, xi):
        rng = random.Random(31 + int(xi * 100))
        newer = lacking = absent = 0
        for trial in range(40):
            # words 60..69 occur in no corpus image
            corpus = random_images(rng, rng.randint(1, 30), domain, t_lo=0, t_hi=10_000)
            p = params_for(domain, corpus, xi=xi, decay_base=rng.uniform(1.1, 4.0),
                           time_unit=rng.choice((1.0, 600.0, 3600.0)))
            l = 50 if trial % 4 == 0 else rng.randint(1, 12)
            w1 = rng.uniform(0.05, 0.6)
            w2 = rng.uniform(0.05, 0.95 - w1)
            q = Query(psi=rng.sample(range(70), l),
                      loc=(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                      t=rng.randint(0, 10_000), k=1, weights=(w1, w2, 1.0 - w1 - w2))
            absent += any(v >= 60 for v in q.psi)
            ctx = p.context(q)
            for image in corpus:
                newer += image.t_c > q.t
                lacking += not set(q.psi) <= set(image.word_tf)
                assert ctx.f_stv(image) == combined_score(q, image, p).f_stv
        assert newer and lacking and absent
