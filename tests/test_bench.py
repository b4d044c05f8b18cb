import csv
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from geostream import bench
from geostream.baselines import IfaIndex
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import SpatialDomain
from geostream.workload import GeneratorConfig, QueryConfig, generate_images, generate_queries

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
        rows = bench.sweep(
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
        rows = bench.sweep(
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
        rows = bench.sweep(
            gen, small_index(segment_span=10_000), "k", values=(10,),
            query_cfg=QueryConfig(seed=2, count=20), kinds=("hiq", "ifa"),
        )
        scored = {r.index: r.mean for r in rows if r.metric == "images_scored"}
        assert scored["hiq"] <= scored["ifa"]


class TestMaintenanceBench:
    def test_insertion_rows(self):
        rows = bench.sweep(
            small_gen(image_count=100), small_index(), "arrival_rate", values=(200, 400),
            kinds=("hiq", "ifa"),
        )
        rows = [r for r in rows if r.metric != "delete_us"]
        assert len(rows) == 4
        assert {r.value for r in rows} == {200, 400}
        assert all(r.metric == "insert_us" and r.mean >= 0 for r in rows)

    def test_deletion_rows(self):
        rows = bench.sweep(
            small_gen(image_count=100), small_index(window=2), "arrival_rate", values=(200,),
            kinds=("hiq", "ifa"),
        )
        rows = [r for r in rows if r.metric != "insert_us"]
        assert len(rows) == 2
        assert all(r.metric == "delete_us" for r in rows)


class TestStorage:
    def test_estimates_positive_and_grow(self):
        cfg = small_index(segment_span=10_000)
        small_rows = bench.sweep(small_gen(image_count=100), cfg, "storage")
        big_rows = bench.sweep(small_gen(image_count=400), cfg, "storage")
        small_sizes = {r.index: r.mean for r in small_rows}
        big_sizes = {r.index: r.mean for r in big_rows}
        for kind in ("hiq", "ifa", "stvii"):
            assert 0 < small_sizes[kind] < big_sizes[kind]

    @pytest.mark.parametrize("kind", ["hiq", "stvii"])
    def test_tree_storage_unchanged_by_queries(self, kind):
        # a tree leaf keeps no inverted file, so a search leaves the
        # modelled bytes as the build left them
        cfg = small_index(segment_span=10_000)
        gen = small_gen(image_count=200)
        images = generate_images(gen)
        index = bench.build_index(kind, cfg)
        for img in images:
            index.insert(img)
        built = bench.estimate_storage(index)
        scored = sum(index.search(q)[1].images_scored
                     for q in generate_queries(QueryConfig(seed=1, count=3), images).queries)
        assert scored
        assert bench.estimate_storage(index) == built
        rows = bench.sweep(gen, cfg, "storage", values=(200,), kinds=(kind,))
        assert [r.mean for r in rows] == [built]


AXIS_METRICS = {"arrival_rate": ("insert_us", "delete_us"), "storage": ("bytes",)}


@pytest.mark.parametrize("axis", bench.AXES)
def test_every_axis_gives_its_row_keys(axis):
    gen = small_gen(image_count=60, vocab_size=40, mean_words=5.0)
    rows = bench.sweep(gen, small_index(), axis, query_cfg=QueryConfig(seed=1, count=2))
    values = bench.AXES[axis] or (12, 24, 36, 48, 60)
    metrics = AXIS_METRICS.get(axis, ("response_ms", "nodes", "images_scored"))
    label = "n" if axis == "storage" else axis
    keys = [(r.axis, r.value, r.index, r.metric) for r in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(itertools.product((label,), values, bench.INDEX_KINDS, metrics))


def drop_last_result(monkeypatch, cls, after=0):
    """Makes ``cls.search`` drop its last result from the ``after``-th
    call on."""
    real, calls = cls.search, itertools.count()

    def search(self, q):
        results, stats = real(self, q)
        return (results[:-1] if next(calls) >= after else results), stats

    monkeypatch.setattr(cls, "search", search)


class TestAnswerChecks:
    def test_one_wrong_index_raises(self, monkeypatch):
        drop_last_result(monkeypatch, IfaIndex)
        with pytest.raises(bench.AnswerMismatchError, match="k=10: ifa"):
            bench.sweep(small_gen(), small_index(), "k", values=(10,),
                        query_cfg=QueryConfig(seed=1, count=4))

    def test_indexes_must_agree_past_the_first_query(self, monkeypatch):
        # the oracle sees only query 0, so only the cross-index check can fail
        drop_last_result(monkeypatch, IfaIndex, after=1)
        with pytest.raises(bench.AnswerMismatchError,
                           match="l=10: ifa answers differ from hiq's on query 1"):
            bench.sweep(small_gen(), small_index(), "l", values=(10,),
                        query_cfg=QueryConfig(seed=1, count=4))

    def test_lone_index_checked_against_the_oracle(self, monkeypatch):
        drop_last_result(monkeypatch, HiqIndex)
        with pytest.raises(bench.AnswerMismatchError,
                           match="node_capacity=16: hiq differs from the oracle"):
            bench.sweep(small_gen(), small_index(), "node_capacity", values=(16,),
                        query_cfg=QueryConfig(seed=1, count=4), kinds=("hiq",))


def load_bench_record():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_names_each_moved_count():
    record = load_bench_record()
    old = {"a": {"x": 1, "y": 2}, "b": {"x": 5}}
    new = {"a": {"x": 1, "y": 3, "z": 0}, "c": {"x": 5}}
    assert record.moved(old, new) == [
        ("a", "y", 2, 3), ("a", "z", None, 0), ("b", "x", 5, None), ("c", "x", None, 5)]
    assert record.moved(new, new) == []
    newest = json.loads(record.newest().read_text())["counts"]
    assert sorted(newest) == sorted(record.WORKLOADS)
    assert all("engine.images_scored" in counts for counts in newest.values())


def test_newest_bench_record_lists_and_reads_the_zero_counts():
    # a count that falls to 0 goes on ZERO with the record that shows it,
    # and one that no longer reads 0 comes off
    record = load_bench_record()
    data = json.loads(record.newest().read_text())
    assert data["zero_counts"] == record.ZERO
    for counts in data["counts"].values():
        assert {name: counts.get(name) for name in record.ZERO} == dict.fromkeys(record.ZERO, 0)


def load_bench_pairs():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarises_each_metric_over_the_pairs():
    pairs_tool = load_bench_pairs()

    def result(ms, per_s, correct=True):
        return {"correct": correct, "metrics": {"q_ms": {"value": ms, "unit": "ms"},
                                                "ingest": {"value": per_s, "unit": "1/s"}}}

    metrics = [{"name": "q_ms", "unit": "ms", "better": "lower"},
               {"name": "ingest", "unit": "1/s", "better": "higher"},
               {"name": "absent", "unit": "ms", "better": "lower"}]
    # the change is 0.1 ms faster in nine pairs and ties in the tenth;
    # its ingest is lower in every pair
    pairs = [(result(1.0 + i / 100, 100.0), result(0.9 + i / 100, 90.0)) for i in range(9)]
    pairs.append((result(2.0, 100.0), result(2.0, 90.0)))
    q_ms, ingest = pairs_tool.summarise(pairs, metrics)
    assert (q_ms["name"], q_ms["wins"], q_ms["pairs"]) == ("q_ms", 9, 10)
    assert q_ms["parent"] == pytest.approx((1.0225, 1.045, 1.0675))
    assert q_ms["change"] == pytest.approx((0.9225, 0.945, 0.9675))
    assert q_ms["delta"] == pytest.approx(-0.1 / 1.045)
    assert q_ms["gain"]             # 9 of 10, and a gap of 0.1 beyond the IQR 0.045
    assert (ingest["wins"], ingest["delta"], ingest["gain"]) == (0, -0.1, False)
    # a pair a run failed in leaves the rows; it still counts as not correct
    failed = pairs + [(result(1.0, 100.0), None)]
    assert pairs_tool.summarise(failed, metrics) == [q_ms, ingest]
    assert pairs_tool.not_correct(failed) == 1
    assert pairs_tool.not_correct(pairs + [(result(1.0, 1.0, correct=False), None)]) == 2
    # a gap within the parent's quartiles is no gain, however many wins
    close = [(result(1.0 + i / 10, 1.0), result(0.99 + i / 10, 1.0)) for i in range(10)]
    assert not pairs_tool.summarise(close, metrics[:1])[0]["gain"]
    assert pairs_tool.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert len(pairs_tool.format_rows([q_ms, ingest])) == 3
    assert pairs_tool.format_pairs([q_ms])[0].split()[1:3] == ["1.0000/0.9000", "1.0100/0.9100"]


def test_bench_pairs_marks_a_median_worse_than_its_bound():
    pairs_tool = load_bench_pairs()

    def result(ms, per_s):
        return {"correct": True, "metrics": {"q_ms": {"value": ms, "unit": "ms"},
                                             "ingest": {"value": per_s, "unit": "1/s"}}}

    def rows(parent_ms, change_ms, parent_per_s, change_per_s, bound):
        metrics = [{"name": "q_ms", "unit": "ms", "better": "lower", "bound": bound},
                   {"name": "ingest", "unit": "1/s", "better": "higher", "bound": bound}]
        pairs = [(result(parent_ms + i / 1000, parent_per_s + i),
                  result(change_ms + i / 1000, change_per_s + i)) for i in range(5)]
        return {r["name"]: r for r in pairs_tool.summarise(pairs, metrics)}

    # medians 1.002 and 100 at the parent; a bound of 0.25 allows 1.2525 ms
    # and 75 images/s
    within = rows(1.0, 1.25, 98.0, 73.5, 0.25)
    assert not within["q_ms"]["worse"] and not within["ingest"]["worse"]
    beyond = rows(1.0, 1.26, 98.0, 72.0, 0.25)
    assert beyond["q_ms"]["worse"] and beyond["ingest"]["worse"]
    assert not beyond["q_ms"]["gain"]
    # better is never worse, however tight the bound
    better = rows(1.0, 0.5, 98.0, 200.0, 0.0)
    assert not better["q_ms"]["worse"] and not better["ingest"]["worse"]
    assert better["q_ms"]["gain"] and better["ingest"]["gain"]
    # a metric with no bound is never marked
    unbounded = pairs_tool.summarise(
        [(result(1.0, 100.0), result(9.0, 1.0))],
        [{"name": "q_ms", "unit": "ms", "better": "lower"}])
    assert not unbounded[0]["worse"]
    lines = pairs_tool.format_rows(list(beyond.values()) + list(better.values()))
    assert [line.endswith("WORSE THAN BOUND") for line in lines[1:]] == [True, True, False, False]
