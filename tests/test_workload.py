import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostream import workload
from geostream.model import ConfigError, GeoTemporalImage, Query
from geostream.workload import (
    DataFormatError,
    GeneratorConfig,
    QueryConfig,
    generate_images,
    generate_queries,
    parse_dataset,
    parse_queries,
    write_dataset,
    write_queries,
)


# -- references: the generators as they were before chunked draws ----------
# A seeded stream must stay the same across commits, so these per-image
# loops pin generate_images and generate_queries value for value. The
# image reference keeps the unpinned Zipf table; it differs from
# generate_images only for a draw in the gap below 1.0 that the pin closes.


def reference_images(cfg):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.image_count
    if n == 0:
        return []
    ranks = np.arange(1, cfg.vocab_size + 1, dtype=np.float64)
    probs = ranks ** (-cfg.zipf_exponent)
    probs /= probs.sum()
    cum = np.cumsum(probs)

    times = cfg.start_time + np.floor(
        np.cumsum(rng.exponential(1.0 / cfg.rate, n))
    ).astype(np.int64)

    d = cfg.domain
    if cfg.spatial_mode == "uniform":
        lats = rng.uniform(d.min_lat, d.max_lat, n)
        lons = rng.uniform(d.min_lon, d.max_lon, n)
    else:
        centers_lat = rng.uniform(d.min_lat, d.max_lat, cfg.cluster_count)
        centers_lon = rng.uniform(d.min_lon, d.max_lon, cfg.cluster_count)
        which = rng.integers(0, cfg.cluster_count, n)
        lats = np.clip(
            rng.normal(centers_lat[which], cfg.cluster_sigma), d.min_lat, d.max_lat
        )
        lons = np.clip(
            rng.normal(centers_lon[which], cfg.cluster_sigma), d.min_lon, d.max_lon
        )

    word_counts = np.maximum(1, rng.poisson(cfg.mean_words, n))
    images = []
    for i in range(n):
        draws = np.searchsorted(cum, rng.random(word_counts[i]), side="right")
        words, tfs = np.unique(draws, return_counts=True)
        psi = list(zip(words.tolist(), tfs.tolist()))
        images.append(
            GeoTemporalImage(i, float(lats[i]), float(lons[i]), int(times[i]), psi)
        )
    return images


def reference_queries(cfg, images):
    rng = np.random.default_rng(cfg.seed)
    vocab = sorted({w for img in images for w in img.freq})
    t = max(img.t_c for img in images)
    queries = []
    for _ in range(cfg.count):
        anchor = images[int(rng.integers(0, len(images)))]
        want = cfg.words_per_query
        n_anchor = min(len(anchor.freq), max(1, round(want * cfg.anchor_word_fraction)))
        anchor_words = list(anchor.freq)
        picked = set(
            anchor_words[i] for i in rng.choice(len(anchor_words), n_anchor, replace=False)
        )
        while len(picked) < want and len(picked) < len(vocab):
            picked.add(vocab[int(rng.integers(0, len(vocab)))])
        queries.append(
            Query(psi=tuple(sorted(picked)), loc=(anchor.lat, anchor.lon), t=t,
                  k=cfg.k, weights=cfg.weights)
        )
    return queries


def bits(x):
    return struct.pack("<d", x)


def assert_same_images(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, bits(a.lat), bits(a.lon), a.t_c, a.psi) == \
            (b.id, bits(b.lat), bits(b.lon), b.t_c, b.psi)
        assert all(type(v) is int for v in (a.id, a.t_c, *(x for p in a.psi for x in p)))


generator_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 2**32),
    vocab_size=st.sampled_from([1, 2, 50, 5000]),
    mean_words=st.sampled_from([0.0, 1.5, 15.0, 120.0]),
    zipf_exponent=st.sampled_from([-0.5, 0.0, 1.0, 1.5]),
    spatial_mode=st.sampled_from(["uniform", "clusters"]),
    cluster_count=st.integers(1, 12),
    rate=st.sampled_from([0.5, 10.0, 500.0]),
)


class TestGenerateImages:
    def test_zero_count(self):
        assert generate_images(GeneratorConfig(image_count=0)) == []

    @pytest.mark.parametrize("start_time", [2 ** 63, -2 ** 63 - 1, 2 ** 70])
    def test_start_time_outside_int64_is_config_error(self, start_time):
        with pytest.raises(ConfigError, match="start_time must be within int64"):
            GeneratorConfig(start_time=start_time)

    @pytest.mark.parametrize("kw", [dict(start_time=2 ** 63 - 1, rate=0.5), dict(rate=1e-300)],
                             ids=["start-at-the-last-second", "rate-1e-300"])
    def test_stream_past_int64_is_config_error(self, kw):
        # an int64 add would wrap these to negative timestamps
        with pytest.raises(ConfigError, match="last timestamp.*outside int64"):
            generate_images(GeneratorConfig(image_count=3, **kw))

    def test_stream_may_end_at_int64s_last_second(self):
        # seed 0 at rate 0.5 draws the offsets 1, 3 and 3
        cfg = GeneratorConfig(image_count=3, rate=0.5, start_time=2 ** 63 - 4)
        images = generate_images(cfg)
        assert [im.t_c for im in images] == [2 ** 63 - 3, 2 ** 63 - 1, 2 ** 63 - 1]
        assert_same_images(images, reference_images(cfg))
        with pytest.raises(ConfigError, match="outside int64"):
            generate_images(GeneratorConfig(image_count=3, rate=0.5, start_time=2 ** 63 - 3))

    @pytest.mark.parametrize("kw", [
        dict(rate=0.0), dict(image_count=-1), dict(vocab_size=0), dict(spatial_mode="grid"),
        dict(image_count=2.5), dict(cluster_count=2.5), dict(vocab_size=2.5),
        dict(start_time=1.5), dict(cluster_count=0), dict(image_count=None),
        dict(rate="5"), dict(seed=1.5), dict(seed=-1), dict(seed=None),
    ], ids=["rate", "image_count", "vocab_size", "spatial_mode", "image_count-2.5",
            "cluster_count-2.5", "vocab_size-2.5", "start_time-1.5", "cluster_count",
            "image_count-none", "rate-str", "seed-1.5", "seed-negative", "seed-none"])
    def test_bad_parameter_is_config_error(self, kw):
        with pytest.raises(ConfigError, match="must be"):
            GeneratorConfig(**kw)

    @pytest.mark.parametrize("bad", [None, (0.0, 1.0, 0.0, 1.0), "0,1,0,1"],
                             ids=["none", "tuple", "string"])
    def test_domain_must_be_a_spatial_domain(self, bad):
        with pytest.raises(ConfigError, match="domain"):
            GeneratorConfig(domain=bad)

    def test_seed_determinism(self, tmp_path):
        cfg = GeneratorConfig(seed=7, image_count=200, vocab_size=100, mean_words=10)
        a = generate_images(cfg)
        b = generate_images(cfg)
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_dataset(a, pa)
        write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_timestamps_non_decreasing(self):
        images = generate_images(GeneratorConfig(seed=1, image_count=500, mean_words=5))
        times = [im.t_c for im in images]
        assert times == sorted(times)

    def test_mean_words_within_tolerance(self):
        cfg = GeneratorConfig(seed=2, image_count=10_000, vocab_size=2000, mean_words=40.0)
        images = generate_images(cfg)
        mean = sum(im.total_tf for im in images) / len(images)
        assert abs(mean - 40.0) / 40.0 < 0.05

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=generator_configs, chunk=st.sampled_from([1, 3, 16]),
           count=st.sampled_from([0, 1, 2, 5, 40]))
    def test_stream_equals_per_image_loop(self, cfg, chunk, count):
        # small chunks put counts of 0, 1 and more than two chunks in reach
        cfg.image_count = count
        with mock.patch.object(workload, "_CHUNK", chunk):
            assert_same_images(generate_images(cfg), reference_images(cfg))

    @pytest.mark.parametrize("spatial_mode", ["uniform", "clusters"])
    def test_stream_across_chunks_equals_per_image_loop(self, spatial_mode):
        cfg = GeneratorConfig(seed=11, image_count=2 * workload._CHUNK + 5, vocab_size=5000,
                              mean_words=15.0, spatial_mode=spatial_mode)
        assert_same_images(generate_images(cfg), reference_images(cfg))

    @pytest.mark.parametrize("vocab_size, exponent", [(2000, 1.0), (50, 1.5), (100, 0.5)])
    def test_zipf_table_ends_at_one(self, vocab_size, exponent):
        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        probs = ranks ** -exponent
        assert np.cumsum(probs / probs.sum())[-1] < 1.0     # the gap is real
        cdf = workload._zipf_cdf(vocab_size, exponent)
        assert cdf[-1] == 1.0
        # the largest draw of Generator.random, 1 - 2**-53, gets the last word
        top = np.nextafter(1.0, 0.0)
        assert np.searchsorted(cdf, top, side="right") == vocab_size - 1

    def test_invariants_hold(self):
        cfg = GeneratorConfig(seed=3, image_count=300, vocab_size=50, mean_words=8,
                              spatial_mode="clusters", cluster_count=4, cluster_sigma=1.5)
        for im in generate_images(cfg):
            words = [w for w, _ in im.psi]
            assert words == sorted(set(words))
            assert all(tf > 0 for _, tf in im.psi)
            assert cfg.domain.contains(im.lat, im.lon)
            assert all(0 <= w < 50 for w in words)


class TestDatasetRoundTrip:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        assert list(parse_dataset(p)) == []

    def test_single_line(self, tmp_path):
        images = generate_images(GeneratorConfig(seed=4, image_count=1, mean_words=5))
        p = tmp_path / "one.tsv"
        write_dataset(images, p)
        assert list(parse_dataset(p)) == images

    def test_1000_random_records(self, tmp_path):
        images = generate_images(GeneratorConfig(seed=5, image_count=1000, mean_words=12))
        p = tmp_path / "data.tsv"
        write_dataset(images, p)
        parsed = list(parse_dataset(p))
        assert parsed == images
        # byte-stable: writing the parsed stream reproduces the file
        p2 = tmp_path / "data2.tsv"
        write_dataset(parsed, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t1.0\t1.0\t5\t1:1\nnot-a-record\n")
        with pytest.raises(DataFormatError, match="line 2"):
            list(parse_dataset(p))

    def test_blank_line_is_skipped(self, tmp_path):
        p = tmp_path / "gap.tsv"
        p.write_text("0\t1.0\t1.0\t5\t1:1\n\n1\t2.0\t2.0\t6\t2:3\n")
        assert [im.id for im in parse_dataset(p)] == [0, 1]

    @pytest.mark.parametrize("record", ["1\t2.0\t2.0\tsix\t1:1", "1\t2.0\t2.0\t6\t1-1",
                                        "1\t2.0\t2.0\t6\t2:1,1:1"],
                             ids=["timestamp", "pair", "order"])
    def test_malformed_field_names_its_line(self, tmp_path, record):
        # five fields, but one the record cannot take
        p = tmp_path / "bad.tsv"
        p.write_text(f"0\t1.0\t1.0\t5\t1:1\n\n{record}\n")
        with pytest.raises(DataFormatError, match="^line 3: "):
            list(parse_dataset(p))

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text("0\t1.0\t1.0\t5\t1:1\n0\t2.0\t2.0\t6\t1:1\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            list(parse_dataset(p))


class TestQueries:
    @pytest.fixture
    def images(self):
        return generate_images(GeneratorConfig(seed=6, image_count=400, vocab_size=200,
                                               mean_words=15))

    @pytest.mark.parametrize("kw", [
        dict(count=-1), dict(count=2.5), dict(words_per_query=0), dict(words_per_query=1.5),
        dict(k=0), dict(k=None), dict(anchor_word_fraction=2.0),
        dict(anchor_word_fraction=-0.1), dict(anchor_word_fraction=math.nan),
        dict(anchor_word_fraction="x"), dict(seed=1.5), dict(seed=-1), dict(seed=None),
    ], ids=["count", "count-2.5", "words_per_query", "words_per_query-1.5", "k",
            "k-none", "anchor-2.0", "anchor-negative", "anchor-nan", "anchor-str",
            "seed-1.5", "seed-negative", "seed-none"])
    def test_bad_parameter_is_config_error(self, kw):
        with pytest.raises(ConfigError, match="must be"):
            QueryConfig(**kw)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            generate_queries(QueryConfig(), [])

    def test_minimal_single_word_query(self, images):
        wl = generate_queries(QueryConfig(seed=1, count=5, words_per_query=1), images)
        assert all(len(q.psi) == 1 for q in wl.queries)

    def test_seed_determinism(self, images):
        a = generate_queries(QueryConfig(seed=2, count=20), images)
        b = generate_queries(QueryConfig(seed=2, count=20), images)
        assert a.queries == b.queries

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32), words=st.sampled_from([10, 50]),
           fraction=st.sampled_from([0.0, 0.3, 1.0]), vocab_size=st.sampled_from([1, 40, 5000]))
    def test_queries_equal_per_query_loop(self, seed, words, fraction, vocab_size):
        images = generate_images(GeneratorConfig(seed=seed, image_count=60,
                                                 vocab_size=vocab_size, mean_words=15))
        cfg = QueryConfig(seed=seed + 1, count=25, words_per_query=words,
                          anchor_word_fraction=fraction)
        got = generate_queries(cfg, images).queries
        want = reference_queries(cfg, images)
        assert got == want
        assert [[bits(x) for x in q.loc] for q in got] == [[bits(x) for x in q.loc] for q in want]

    def test_anchor_word_drawn_at_fraction_zero(self, images):
        wl = generate_queries(QueryConfig(seed=8, count=30, anchor_word_fraction=0.0), images)
        locs = {(im.lat, im.lon): set(im.freq) for im in images}
        assert all(set(q.psi) & locs[q.loc] for q in wl.queries)

    def test_locations_from_dataset(self, images):
        locs = {(im.lat, im.lon) for im in images}
        wl = generate_queries(QueryConfig(seed=3, count=100), images)
        assert all(q.loc in locs for q in wl.queries)

    def test_words_from_dataset_vocabulary(self, images):
        vocab = {w for im in images for w in im.freq}
        wl = generate_queries(QueryConfig(seed=4, count=50), images)
        assert all(set(q.psi) <= vocab for q in wl.queries)

    def test_default_workload_size(self, images):
        assert len(generate_queries(QueryConfig(seed=5), images).queries) == 100

    def test_query_file_round_trip(self, images, tmp_path):
        wl = generate_queries(QueryConfig(seed=6, count=100, k=7,
                                          weights=(0.2, 0.5, 0.3)), images)
        p = tmp_path / "queries.tsv"
        write_queries(wl.queries, p)
        assert parse_queries(p) == wl.queries

    def test_malformed_query_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t1.0\t1.0\t5\t3\t0.3,0.3,0.4\tx,y\n")
        with pytest.raises(DataFormatError, match="line 1"):
            parse_queries(p)
