import csv
import gc
import importlib.util
import itertools
import json
import subprocess
import sys
import tracemalloc
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
            assert row[3] in ("insert_us", "delete_us", "response_ms", "nodes", "bounds",
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
        bounds = {r.index: r.mean for r in rows if r.metric == "bounds"}
        assert bounds["hiq"] > 0 and bounds["ifa"] == 0


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

    @pytest.mark.parametrize("span, window", [(3600, 24), (1, 2)],
                             ids=["one-segment-stream", "many-segment-stream"])
    def test_every_delete_row_times_rolls_that_expire(self, monkeypatch, span, window):
        # each arrival rate's delete_us row of each index comes from at
        # least one roll, and each roll drops the window's oldest segment
        # with its images
        rolls, real = [], bench._roll_half

        def roll_half(index, mid):
            roll, dropped = index.roll_segment, []

            def counted(now):
                held = index.image_count()
                assert roll(now) == 1
                dropped.append(held - index.image_count())

            index.roll_segment = counted
            samples = real(index, mid)
            rolls.append((index.kind, dropped))
            assert len(samples) == len(dropped)
            return samples

        monkeypatch.setattr(bench, "_roll_half", roll_half)
        rows = bench.sweep(small_gen(image_count=2000), small_index(segment_span=span,
                                                                    window=window),
                           "arrival_rate")
        deletes = [r for r in rows if r.metric == "delete_us"]
        assert [(r.value, r.index) for r in deletes] == list(
            itertools.product(bench.AXES["arrival_rate"], bench.INDEX_KINDS))
        assert [kind for kind, _ in rolls] == [r.index for r in deletes]
        assert all(dropped and min(dropped) > 0 for _, dropped in rolls)
        if span == 3600:
            # the whole stream lies in one segment: one roll drops it all
            assert all(dropped == [2000] for _, dropped in rolls)


class TestStorage:
    def test_estimates_positive_and_grow(self):
        cfg = small_index(segment_span=10_000)
        small_rows = bench.sweep(small_gen(image_count=100), cfg, "n", values=(100,))
        big_rows = bench.sweep(small_gen(image_count=400), cfg, "n", values=(400,))
        small_sizes = {r.index: r.mean for r in small_rows if r.metric == "bytes"}
        big_sizes = {r.index: r.mean for r in big_rows if r.metric == "bytes"}
        for kind in ("hiq", "ifa", "stvii"):
            assert 0 < small_sizes[kind] < big_sizes[kind]

    @pytest.mark.parametrize("kind", ["hiq", "stvii"])
    def test_tree_storage_unchanged_by_queries(self, kind):
        # a tree leaf keeps no inverted file, so a search leaves the
        # measured bytes as the build left them
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
        # the n point that built the index writes its bytes after its queries
        rows = bench.sweep(gen, cfg, "n", values=(200,), kinds=(kind,))
        assert [r.mean for r in rows if r.metric == "bytes"] == [built]

    @pytest.mark.parametrize("kind", bench.INDEX_KINDS)
    def test_bytes_beyond_the_records_equal_tracemalloc(self, kind):
        # perfbench's clustered shape, one segment: what the build leaves
        # allocated, as tracemalloc traces it, is the walk of the index less
        # that of its records
        record_bytes = load_tool("record_bytes")
        images = generate_images(GeneratorConfig(
            seed=record_bytes.SEED, image_count=1000,
            **record_bytes.SHAPES["perfbench clustered"]))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            index = bench.build_index(kind, record_bytes.CONFIG)
            for img in images:
                index.insert(img)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        walked = bench.estimate_storage(index) - bench.object_bytes(images)
        assert walked == pytest.approx(retained, rel=0.01)

    @pytest.mark.parametrize("kind", bench.INDEX_KINDS)
    def test_bytes_skip_functions_and_searches(self, kind):
        # a function set on the instance, as perfbench's traced run sets
        # its span wrappers, adds nothing, and neither do searches, which
        # leave nothing on the index
        gen = small_gen(image_count=200)
        images = generate_images(gen)
        index = bench.build_index(kind, small_index(segment_span=10_000))
        for img in images:
            index.insert(img)
        built = bench.estimate_storage(index)
        search = index.search
        index.search = lambda q: search(q)
        for q in generate_queries(QueryConfig(seed=1, count=3), images).queries:
            assert index.search(q)[0]
        assert bench.estimate_storage(index) == built


AXIS_METRICS = {"arrival_rate": ("insert_us", "delete_us"),
                "n": ("response_ms", "nodes", "bounds", "images_scored", "bytes"),
                "storage": ("bytes",)}


@pytest.mark.parametrize("axis", [*bench.AXES, "storage"])
def test_every_axis_gives_its_row_keys(axis):
    # storage has no axis of its own: its bytes rows come from the n points
    swept = "n" if axis == "storage" else axis
    gen = small_gen(image_count=60, vocab_size=40, mean_words=5.0)
    rows = bench.sweep(gen, small_index(), swept, query_cfg=QueryConfig(seed=1, count=2))
    if axis == "storage":
        rows = [r for r in rows if r.metric == "bytes"]
        assert all(r.mean > 0 for r in rows)
    values = bench.AXES[swept] or (12, 24, 36, 48, 60)
    metrics = AXIS_METRICS.get(axis, ("response_ms", "nodes", "bounds", "images_scored"))
    keys = [(r.axis, r.value, r.index, r.metric) for r in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(itertools.product((swept,), values, bench.INDEX_KINDS, metrics))


def drop_last_result(monkeypatch, cls, after=0):
    """Makes ``cls.search`` drop its last result from the ``after``-th
    call on."""
    real, calls = cls.search, itertools.count()

    def search(self, q):
        results, stats = real(self, q)
        return (results[:-1] if next(calls) >= after else results), stats

    monkeypatch.setattr(cls, "search", search)


def test_row_of_no_samples_reads_zero():
    assert bench._row("k", 10, "ifa", "nodes", []) == \
        bench.BenchRow("k", 10, "ifa", "nodes", 0.0, 0.0, 0.0)


def test_unknown_kind_and_axis_raise():
    with pytest.raises(ValueError, match="unknown index kind 'rtree'"):
        bench.build_index("rtree", small_index())
    with pytest.raises(ValueError, match="unknown axis 'z'"):
        bench.sweep(small_gen(), small_index(), "z")


@pytest.mark.parametrize("n, p50, p95", [(20, 10, 19), (100, 50, 95), (1, 1, 1), (5, 3, 5)])
def test_row_percentiles_take_the_nearest_rank(n, p50, p95):
    # the ceil(p * n)-th smallest sample, as perfbench's ``percentile``
    # takes it: of 20 samples the 19th is the p95, not the largest
    samples = [float(i) for i in range(n, 0, -1)]     # sorted by the row
    row = bench._row("k", 10, "hiq", "nodes", samples)
    assert (row.p50, row.p95) == (p50, p95)
    assert row.mean == (n + 1) / 2


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


def load_tool(name):
    """The module of ``tools/<name>.py``."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_names_each_moved_count():
    record = load_tool("bench_record")
    old = {"a": {"x": 1, "y": 2}, "b": {"x": 5}}
    new = {"a": {"x": 1, "y": 3, "z": 0}, "c": {"x": 5}}
    assert record.moved(old, new) == [
        ("a", "y", 2, 3), ("a", "z", None, 0), ("b", "x", 5, None), ("c", "x", None, 5)]
    assert record.moved(new, new) == []
    newest = json.loads(record.newest().read_text())["counts"]
    assert sorted(newest) == sorted(record.WORKLOADS)
    assert all("engine.images_scored" in counts for counts in newest.values())


def test_bench_record_runs_every_workload_of_the_benchmark():
    # a workload added to BENCHMARK.json is recorded and checked with no
    # edit to the tool
    record = load_tool("bench_record")
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert record.WORKLOADS == tuple(w["name"] for w in bench["workloads"])


def test_newest_bench_record_lists_and_reads_the_zero_counts():
    # a count that falls to 0 goes on ZERO with the record that shows it,
    # and one that no longer reads 0 comes off
    record = load_tool("bench_record")
    data = json.loads(record.newest().read_text())
    assert data["zero_counts"] == record.ZERO
    for counts in data["counts"].values():
        assert {name: counts.get(name) for name in record.ZERO} == dict.fromkeys(record.ZERO, 0)


def test_bench_pairs_summarises_each_metric_over_the_pairs():
    pairs_tool = load_tool("bench_pairs")

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
    pairs_tool = load_tool("bench_pairs")

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


def test_bench_pairs_marks_a_metric_whose_parent_spreads_wider_than_its_bound():
    pairs_tool = load_tool("bench_pairs")

    def rows(parent, change, bound=0.25):
        metrics = [{"name": "q_ms", "unit": "ms", "better": "lower", "bound": bound},
                   {"name": "ingest", "unit": "1/s", "better": "higher", "bound": bound}]
        pairs = [({"correct": True, "metrics": {"q_ms": {"value": a, "unit": "ms"},
                                                "ingest": {"value": 1.0 / a, "unit": "1/s"}}},
                  {"correct": True, "metrics": {"q_ms": {"value": b, "unit": "ms"},
                                                "ingest": {"value": 1.0 / b, "unit": "1/s"}}})
                 for a, b in zip(parent, change)]
        return pairs_tool.summarise(pairs, metrics)

    # a bimodal parent: two slow runs of five give quartiles 0.65 and 3.7
    # about a median of 0.70, a spread of 4.4 medians
    bimodal = [0.63, 3.95, 0.65, 0.70, 3.7]
    overlap = rows(bimodal, [0.62, 0.66, 0.71, 0.68, 4.1])
    assert [r["unresolved"] for r in overlap] == [True, True]
    assert not any(r["worse"] or r["gain"] for r in overlap)
    # every run of the change better than every run of the parent resolves
    # it, in either direction, though it is no gain within that spread
    faster = rows(bimodal, [0.5, 0.55, 0.6, 0.58, 0.52])
    assert [(r["unresolved"], r["gain"]) for r in faster] == [(False, False)] * 2
    slower = rows(bimodal, [4.0, 4.2, 4.5, 4.1, 4.3])
    assert [(r["unresolved"], r["worse"]) for r in slower] == [(True, True)] * 2
    # a spread of 4% is within a bound of 0.25, not within one of 0.01;
    # a metric with no bound is never unresolved
    narrow = [1.0, 1.02, 1.04, 1.06, 1.08]
    assert not any(r["unresolved"] for r in rows(narrow, narrow))
    assert all(r["unresolved"] for r in rows(narrow, narrow, bound=0.01))
    assert not any(r["unresolved"] for r in rows(bimodal, bimodal, bound=None))
    # each mark stands beside the others on the metric's line
    gain = rows(narrow, [0.5, 0.52, 0.54, 0.56, 0.58])[0]
    marked = pairs_tool.format_rows([gain, overlap[0], slower[0]])
    assert [line.split("  ")[-1] for line in marked[1:]] == ["gain", "unresolved", "unresolved"]
    assert marked[3].endswith("  WORSE THAN BOUND  unresolved")


def test_bench_pairs_lists_the_roll_stalls_unmarked():
    pairs_tool = load_tool("bench_pairs")
    printed = [
        "# geostream benchmark: workload=rolling-stream seed=1 seconds=8 trace=0",
        "hiq.ingest_images_per_s        69423.848417 1/s    960 images; unscaled 69134",
        "hiq.roll_stall_ms                  0.056276 ms     median of 32 rolls; unscaled 0.0613",
        "stvii.roll_stall_ms                1.096662 ms     median of 32 rolls; unscaled 1.0367",
        "stvii.query_p90_ms                        -        not reported: 9 of 96 queries",
        "ifa.roll_stall_ms                         -        not reported",
    ]
    assert pairs_tool.roll_stalls(printed) == {"hiq.roll_stall_ms": 0.056276,
                                               "stvii.roll_stall_ms": 1.096662}

    def result(hiq, stvii=None):
        stalls = {"hiq.roll_stall_ms": hiq}
        if stvii is not None:
            stalls["stvii.roll_stall_ms"] = stvii
        return {"correct": True, "metrics": {}, "roll_stalls": stalls}

    # the change's STVII stall is half the parent's; a pair whose change run
    # lacks it, or that failed, leaves that row
    pairs = [(result(0.06, 1.0), result(0.05, 0.5)), (result(0.08, 1.2), result(0.07, 0.6)),
             (result(0.07, 1.1), result(0.06)), (result(0.07, 1.1), None)]
    hiq, stvii = pairs_tool.summarise_stalls(pairs)
    assert (hiq["name"], hiq["parent"], hiq["change"]) == ("hiq.roll_stall_ms", 0.07, 0.06)
    assert (stvii["parent"], stvii["change"]) == (1.1, 0.55)
    assert stvii["values"] == [(1.0, 0.5), (1.2, 0.6)]
    lines = pairs_tool.format_stalls([hiq, stvii])
    assert lines[2].split() == ["stvii.roll_stall_ms", "ms", "1.1000", "0.5500", "-50.0%"]
    assert lines[4].split()[1:] == ["1.0000/0.5000", "1.2000/0.6000"]
    # no row takes a mark of the gated metrics
    assert not any(mark in line for line in lines
                   for mark in ("gain", "WORSE THAN BOUND", "unresolved"))


def test_code_lines_skips_blank_comment_and_docstring_lines(tmp_path, capsys):
    source = '''"""A module docstring
over two lines."""
import os  # a comment after code counts


class A:
    """A class docstring."""

    def f(self):
        # a comment line
        """A method docstring, after a comment."""
        y = """a string
        over two lines"""
        return y


async def g():
    "An async function's docstring."
    x = 1; """a string after code, not first in its body"""
'''
    code_lines = load_tool("code_lines")
    # import, class, def, y over 2 lines, return, async def, x
    assert code_lines.code_lines(source) == 8
    (tmp_path / "m.py").write_text(source)
    (tmp_path / "empty.py").write_text("# only a comment\n\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "other.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 8
    assert capsys.readouterr().out.split("\n") == [
        "     0  empty.py", "     8  m.py", "     8  total", ""]


def test_record_bytes_measures_each_shape():
    record_bytes = load_tool("record_bytes")
    for kw in record_bytes.SHAPES.values():
        words, out = record_bytes.measure(
            GeneratorConfig(seed=record_bytes.SEED, image_count=60, **kw))
        assert words >= 1
        assert list(out) == ["record", *bench.INDEX_CLASSES]
        assert all(b > 0 for b in out.values()), out


def test_scale_gives_each_build_its_row_keys(monkeypatch):
    # scale.py imports record_bytes from beside it, as a script does
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    scale = load_tool("scale")
    # 120 images split HIQ's root
    rows = [scale.row(kind, [scale.one_build(kind, 120) for _ in range(scale.REPEATS)])
            for kind in bench.INDEX_KINDS]
    for row in rows:
        assert list(row) == ["kind", "images", "us_per_image", "us_min", "us_max", "sixths",
                             "mean_depth", "max_depth", "nodes"]
        assert row["images"] == 120 and len(row["sixths"]) == 6
        assert all(v > 0 for v in row["sixths"])
        assert 0 < row["us_min"] <= row["us_per_image"] <= row["us_max"]
    hiq, ifa, stvii = rows
    assert hiq["max_depth"] == 1 and hiq["nodes"] == 5 and hiq["mean_depth"] == 1.0
    assert ifa["mean_depth"] is ifa["max_depth"] is ifa["nodes"] is None
    assert stvii["nodes"] > 1
    # each round starts the kinds one further on, so each kind leads one
    kinds = list(bench.INDEX_KINDS)
    order = scale.schedule(kinds, [120, 240])
    assert len(order) == scale.REPEATS * len(kinds) * 2
    rounds = [order[i:i + 2 * len(kinds)] for i in range(0, len(order), 2 * len(kinds))]
    assert [r[0][0] for r in rounds] == kinds[:scale.REPEATS]
    assert all(sorted(r) == sorted(rounds[0]) for r in rounds)
    # the table: its header, then a row per kind from builds in processes
    # of their own
    out = subprocess.run([sys.executable, str(Path(scale.__file__)), "--counts", "120"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == scale.HEADER
    assert [line.split()[:2] for line in out[1:]] == [[k, "120"] for k in bench.INDEX_KINDS]
    assert out[1].split()[5:8] == ["1.0", "1", "5"] and out[2].split()[5:8] == ["-"] * 3
