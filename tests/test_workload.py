import math
import random

import pytest

from geostream.model import ConfigError, SpatialDomain
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


class TestGenerateImages:
    def test_zero_count(self):
        assert generate_images(GeneratorConfig(image_count=0)) == []

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
