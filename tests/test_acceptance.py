"""Acceptance suite: one test per criterion, each printing a PASS line.

Counter-based and equivalence checks only; wall-clock timings are never
asserted.
"""

import random

import pytest

from geostream import bench
from geostream.baselines import IfaIndex
from geostream.engine import brute_force_oracle, top_k_search
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import SpatialDomain
from geostream.verify import (
    check_dominance,
    check_oracle_equivalence,
    random_images,
    random_query,
    results_match,
    structure_violations,
)
from geostream.workload import (
    GeneratorConfig,
    QueryConfig,
    generate_images,
    generate_queries,
    parse_dataset,
    parse_queries,
    write_dataset,
    write_queries,
)

DOMAIN = SpatialDomain(0.0, 100.0, 0.0, 100.0)


def test_oracle_equivalence_1000_instances():
    mismatches, faults, counts = check_oracle_equivalence(
        seed=101, instances=1000, domain=DOMAIN,
        max_images=500, queries_per_dataset=20, capacity=8,
    )
    assert mismatches == 0
    assert faults == []
    assert all(counts.values()), counts
    print("\nPASS oracle equivalence: 1000 instances, HIQ/IFA/STVII == oracle @1e-9,"
          " each index's structure sound")


def test_bound_dominance_200_pairs():
    violations = check_dominance(seed=202, pairs=200, domain=DOMAIN, tol=1e-9)
    assert violations == 0
    print("\nPASS bound dominance: 200 (index, query) pairs, HIQ and 3D R-tree bounds")


def test_scoring_unit_examples():
    from geostream import kernels

    assert kernels.spatial_cost(0.0, 0.0, 3.0, 4.0, DOMAIN.delta_max) == \
        pytest.approx(0.0353553, abs=1e-6)
    assert kernels.visual_weight(2 / 10, 100, 1000, 0.2) == pytest.approx(0.18, abs=1e-6)
    assert kernels.recency_cost(3600.0, 2.0, 3600.0) == pytest.approx(0.5, abs=1e-6)
    assert kernels.combine(1 / 3, 1 / 3, 1 / 3, 0.0353553, 0.5, 0.5) == \
        pytest.approx(0.3451184, abs=1e-6)
    print("\nPASS scoring unit examples: 0.0353553 / 0.18 / 0.5 / 0.3451184 @1e-6")


@pytest.mark.parametrize("window", (1, 3, 24))
def test_streaming_consistency(window):
    rng = random.Random(300 + window)
    span = 1000
    config = HiqConfig(domain=DOMAIN, segment_span=span, window=window,
                       capacity=8, max_depth=8)
    index = HiqIndex(config)
    # a stream covering > 50 segments, inserted in time order with
    # explicit rolls sprinkled in
    images = random_images(rng, 1200, DOMAIN, t_lo=0, t_hi=60 * span)
    images.sort(key=lambda im: im.t_c)
    for img in images:
        # roll explicitly at span boundaries, otherwise let insert do it
        if index.segments and img.t_c >= index.segments[-1].end:
            index.roll_segment(img.t_c)
        index.insert(img)
    assert len(index.segments) <= window
    assert index.segments[-1].start // span >= 50  # stream crossed 50+ segments

    live = list(index.live_images())
    cutoff = index.segments[0].start
    assert all(img.t_c >= cutoff for img in live)

    # stats and trees equal a recount of the live window
    assert structure_violations(index) == []

    # queries equal the oracle over exactly the live window
    checked = 0
    for _ in range(30):
        q = random_query(rng, images, DOMAIN)
        expected = brute_force_oracle(q, live, index.params)
        got, _ = top_k_search(q, index)
        assert results_match(got, expected, tol=1e-9)
        checked += 1
    assert checked == 30
    print(f"\nPASS streaming consistency: W={window}, >=50 segments rolled, "
          "results == oracle over the live window")


def test_pruning_on_clustered_stream():
    gen = GeneratorConfig(
        seed=404, image_count=100_000, vocab_size=5000, mean_words=15.0,
        zipf_exponent=1.0, spatial_mode="clusters", cluster_count=12,
        cluster_sigma=1.5, rate=500.0, domain=DOMAIN,
    )
    images = generate_images(gen)
    config = HiqConfig(domain=DOMAIN, segment_span=10_000_000, window=24,
                       capacity=100, max_depth=16)
    hiq = HiqIndex(config)
    ifa = IfaIndex(config)
    for img in images:
        hiq.insert(img)
        ifa.insert(img)

    workload = generate_queries(
        QueryConfig(seed=405, count=40, words_per_query=10, k=10,
                    anchor_word_fraction=1.0),
        images,
    )
    total_nodes = hiq.node_count()
    never_more = 0
    pruned = 0
    for q in workload.queries:
        _, hiq_stats = top_k_search(q, hiq)
        _, ifa_stats = ifa.search(q)
        if hiq_stats.images_scored <= ifa_stats.images_scored:
            never_more += 1
        if hiq_stats.nodes_visited < total_nodes:
            pruned += 1
    n = len(workload.queries)
    assert never_more == n                # 100% of queries
    assert pruned / n > 0.95              # >95% visit fewer than all nodes
    print(f"\nPASS pruning: {gen.image_count} clustered images, "
          f"images_scored<=IFA on {never_more}/{n}, "
          f"node pruning on {pruned}/{n} (tree has {total_nodes} nodes)")


def test_bench_harness_axes(tmp_path):
    gen = GeneratorConfig(seed=506, image_count=400, vocab_size=100,
                          mean_words=8.0, spatial_mode="clusters", domain=DOMAIN)
    index_cfg = HiqConfig(domain=DOMAIN, segment_span=600, window=24,
                          capacity=100, max_depth=16)
    qc = QueryConfig(seed=507, count=5)
    rows = []
    rows += bench.sweep(gen, index_cfg, "arrival_rate", values=(200, 400, 800, 1600, 3200))
    rows += bench.sweep(gen, index_cfg, "node_capacity",
                        values=(100, 200, 300, 400, 500), query_cfg=qc)
    rows += bench.sweep(gen, index_cfg, "l", values=(10, 50, 100, 150, 200), query_cfg=qc)
    rows += bench.sweep(gen, index_cfg, "k", values=(10, 25, 50, 75, 100), query_cfg=qc)
    rows += bench.sweep(gen, index_cfg, "omega1", values=bench.AXES["omega1"], query_cfg=qc)
    out = tmp_path / "bench.csv"
    bench.write_csv(rows, out)

    import csv as csvmod

    with open(out) as fh:
        parsed = list(csvmod.reader(fh))
    assert parsed[0] == list(bench.CSV_HEADER)
    body = parsed[1:]
    for row in body:
        assert len(row) == 7
        assert row[2] in ("hiq", "ifa", "stvii")
        assert row[3] in ("insert_us", "delete_us", "response_ms", "nodes", "bounds",
                          "images_scored", "bytes")
        float(row[1]); float(row[4]); float(row[5]); float(row[6])
    # one row per axis point per index for every swept metric
    for axis, values, metric in (
        ("arrival_rate", (200, 400, 800, 1600, 3200), "insert_us"),
        ("arrival_rate", (200, 400, 800, 1600, 3200), "delete_us"),
        ("node_capacity", (100, 200, 300, 400, 500), "response_ms"),
        ("l", (10, 50, 100, 150, 200), "response_ms"),
        ("k", (10, 25, 50, 75, 100), "response_ms"),
        ("k", (10, 25, 50, 75, 100), "bounds"),
        ("omega1", bench.AXES["omega1"], "response_ms"),
    ):
        for value in values:
            for kind in ("hiq", "ifa", "stvii"):
                matches = [r for r in body
                           if r[0] == axis and float(r[1]) == pytest.approx(float(value))
                           and r[2] == kind and r[3] == metric]
                assert len(matches) == 1, (axis, value, kind, metric)
    # every answer is checked inside the sweep: each index against the
    # first on every query at 1e-9, and each against the oracle on the
    # first query of a point (it raises AnswerMismatchError), so reaching
    # this point covers it
    print(f"\nPASS bench harness: {len(body)} schema-valid rows over the five axes, "
          "answers checked across indexes and against the oracle")


def test_format_round_trip(tmp_path):
    images = generate_images(GeneratorConfig(seed=608, image_count=1000,
                                             vocab_size=300, mean_words=12.0,
                                             domain=DOMAIN))
    dpath = tmp_path / "data.tsv"
    write_dataset(images, dpath)
    assert list(parse_dataset(dpath)) == images

    workload = generate_queries(QueryConfig(seed=609, count=1000, k=7,
                                            weights=(0.25, 0.5, 0.25)), images)
    qpath = tmp_path / "queries.tsv"
    write_queries(workload.queries, qpath)
    assert parse_queries(qpath) == workload.queries
    print("\nPASS format round-trip: 1000 dataset records and 1000 queries")
