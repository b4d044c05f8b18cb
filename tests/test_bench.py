import csv

import pytest

from geostream import bench
from geostream.hiq import HiqConfig
from geostream.model import SpatialDomain
from geostream.workload import GeneratorConfig, QueryConfig

DOMAIN = SpatialDomain(0.0, 100.0, 0.0, 100.0)


def small_gen(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("image_count", 300)
    kw.setdefault("vocab_size", 80)
    kw.setdefault("mean_words", 10.0)
    kw.setdefault("domain", DOMAIN)
    return GeneratorConfig(**kw)


def small_index(**kw):
    kw.setdefault("segment_span", 600)
    kw.setdefault("window", 24)
    kw.setdefault("capacity", 16)
    return HiqConfig(domain=DOMAIN, **kw)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestQueryBench:
    def test_one_query_one_axis_point(self, tmp_path):
        rows = bench.run_query_bench(
            small_gen(), small_index(), "k", values=(5,),
            query_cfg=QueryConfig(seed=1, count=1), kinds=("hiq",),
        )
        response = [r for r in rows if r.metric == "response_ms"]
        assert len(response) == 1
        assert response[0].axis == "k" and response[0].value == 5

    def test_empty_workload_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        bench.write_csv([], out)
        rows = read_rows(out)
        assert rows == [list(bench.CSV_HEADER)]

    def test_schema(self, tmp_path):
        rows = bench.run_query_bench(
            small_gen(), small_index(), "l", values=(5, 10),
            query_cfg=QueryConfig(seed=1, count=4), kinds=("hiq", "ifa"),
        )
        out = tmp_path / "bench.csv"
        bench.write_csv(rows, out)
        parsed = read_rows(out)
        assert parsed[0] == list(bench.CSV_HEADER)
        for row in parsed[1:]:
            assert len(row) == 7
            assert row[2] in ("hiq", "ifa", "stvii")
            assert row[3] in ("insert_us", "delete_us", "response_ms", "nodes",
                              "images_scored", "bytes")
            float(row[1]), float(row[4]), float(row[5]), float(row[6])

    def test_pruning_on_clustered_data(self):
        gen = small_gen(image_count=2000, spatial_mode="clusters",
                        cluster_count=5, cluster_sigma=1.0)
        rows = bench.run_query_bench(
            gen, small_index(segment_span=10_000), "k", values=(10,),
            query_cfg=QueryConfig(seed=2, count=20), kinds=("hiq", "ifa"),
        )
        scored = {r.index: r.mean for r in rows if r.metric == "images_scored"}
        assert scored["hiq"] <= scored["ifa"]


class TestMaintenanceBench:
    def test_insertion_rows(self):
        rows = bench.run_insertion_bench(
            small_gen(image_count=100), small_index(), rates=(200, 400), kinds=("hiq", "ifa")
        )
        assert len(rows) == 4
        assert {r.value for r in rows} == {200, 400}
        assert all(r.metric == "insert_us" and r.mean >= 0 for r in rows)

    def test_deletion_rows(self):
        rows = bench.run_deletion_bench(
            small_gen(image_count=100), small_index(window=2), rates=(200,), kinds=("hiq", "ifa")
        )
        assert len(rows) == 2
        assert all(r.metric == "delete_us" for r in rows)


class TestStorage:
    def test_estimates_positive_and_grow(self):
        cfg = small_index(segment_span=10_000)
        small_rows = bench.storage_rows(small_gen(image_count=100), cfg)
        big_rows = bench.storage_rows(small_gen(image_count=400), cfg)
        small_sizes = {r.index: r.mean for r in small_rows}
        big_sizes = {r.index: r.mean for r in big_rows}
        for kind in ("hiq", "ifa", "stvii"):
            assert 0 < small_sizes[kind] < big_sizes[kind]

