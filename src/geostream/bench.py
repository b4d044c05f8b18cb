"""Benchmark harness: insertion/expiry latency vs arrival rate and node
capacity, response time vs query-word count, k, dataset size and weight
sweeps; node-access counting and storage estimation.

Timings are reported but never asserted; only counter metrics (node
accesses, images scored) are stable across machines. Arrival rates are
simulated in virtual time: timestamps are synthesized at the target
rate, no wall-clock waiting.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
import time
from dataclasses import dataclass, replace

from .baselines import IfaIndex, StviiIndex
from .engine import walk
from .hiq import HiqConfig, HiqIndex
from .workload import GeneratorConfig, QueryConfig, generate_images, generate_queries

CSV_HEADER = ("axis", "value", "index", "metric", "mean", "p50", "p95")

ARRIVAL_RATES = (200, 400, 800, 1600, 3200)
CAPACITIES = (100, 200, 300, 400, 500)
QUERY_WORD_COUNTS = (10, 50, 100, 150, 200)
K_VALUES = (10, 25, 50, 75, 100)
OMEGA1_VALUES = (1 / 7, 2 / 7, 3 / 7, 4 / 7, 5 / 7)

INDEX_CLASSES = {cls.kind: cls for cls in (HiqIndex, IfaIndex, StviiIndex)}
INDEX_KINDS = tuple(INDEX_CLASSES)

# per-type footprint model for storage estimation (bytes)
NODE_BYTES = 64            # rectangle/MBR + t_max + pointers
POSTING_BYTES = 16         # (image id, weight) pair
AGG_ENTRY_BYTES = 16       # (word, max weight) at a node
RECORD_BYTES = 40          # id + location + timestamp
RECORD_WORD_BYTES = 8      # per (word, tf) pair


@dataclass
class BenchRow:
    axis: str
    value: float
    index: str
    metric: str
    mean: float
    p50: float
    p95: float


def build_index(kind, config):
    cls = INDEX_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown index kind {kind!r}")
    return cls(config)


def _percentiles(samples):
    if not samples:
        return 0.0, 0.0, 0.0
    mean = statistics.fmean(samples)
    ordered = sorted(samples)
    p50 = ordered[len(ordered) // 2]
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return mean, p50, p95


def _retime(images, rate, start):
    """Respace the stream's timestamps at the target arrival rate."""
    out = []
    for i, img in enumerate(images):
        clone = type(img)(img.id, img.lat, img.lon, start + int(i / rate), img.psi)
        out.append(clone)
    return out


def run_insertion_bench(gen_cfg, index_cfg, rates=ARRIVAL_RATES, kinds=INDEX_KINDS):
    """Mean per-image insert latency at each simulated arrival rate."""
    base = generate_images(gen_cfg)
    rows = []
    for rate in rates:
        images = _retime(base, rate, gen_cfg.start_time)
        for kind in kinds:
            index = build_index(kind, index_cfg)
            samples = []
            for img in images:
                t0 = time.perf_counter()
                index.insert(img)
                samples.append((time.perf_counter() - t0) * 1e6)
            mean, p50, p95 = _percentiles(samples)
            rows.append(BenchRow("arrival_rate", rate, kind, "insert_us", mean, p50, p95))
    return rows


def run_deletion_bench(gen_cfg, index_cfg, rates=ARRIVAL_RATES, kinds=INDEX_KINDS):
    """Latency of a segment roll, which slides the window by one span and
    expires what leaves it, after ingesting a stream at each rate."""
    base = generate_images(gen_cfg)
    rows = []
    for rate in rates:
        images = _retime(base, rate, gen_cfg.start_time)
        horizon = images[-1].t_c if images else gen_cfg.start_time
        for kind in kinds:
            index = build_index(kind, index_cfg)
            for img in images:
                index.insert(img)
            samples = []
            # roll over roughly half the stream, one span at a time
            cutoff = gen_cfg.start_time
            mid = (gen_cfg.start_time + horizon) // 2
            while cutoff < mid:
                cutoff += index_cfg.segment_span
                t0 = time.perf_counter()
                index.roll_segment(cutoff)
                samples.append((time.perf_counter() - t0) * 1e6)
            mean, p50, p95 = _percentiles(samples)
            rows.append(BenchRow("arrival_rate", rate, kind, "delete_us", mean, p50, p95))
    return rows


def _result_checksum(results):
    ids = ",".join(str(e.image_id) for e in results)
    return hashlib.sha1(ids.encode()).hexdigest()


def _run_queries(index, queries):
    """Returns (response times in ms, stats list, checksums)."""
    times, stats, sums = [], [], []
    for q in queries:
        t0 = time.perf_counter()
        results, st = index.search(q)
        times.append((time.perf_counter() - t0) * 1e3)
        stats.append(st)
        sums.append(_result_checksum(results))
    return times, stats, sums


def _query_rows(axis, value, kind, index, queries):
    times, stats, sums = _run_queries(index, queries)
    # instrumentation must not change the answers
    _, _, again = _run_queries(index, queries)
    if sums != again:
        raise RuntimeError("instrumented run changed query results")
    rows = []
    mean, p50, p95 = _percentiles(times)
    rows.append(BenchRow(axis, value, kind, "response_ms", mean, p50, p95))
    mean, p50, p95 = _percentiles([s.nodes_visited for s in stats])
    rows.append(BenchRow(axis, value, kind, "nodes", mean, p50, p95))
    mean, p50, p95 = _percentiles([s.images_scored for s in stats])
    rows.append(BenchRow(axis, value, kind, "images_scored", mean, p50, p95))
    return rows


def run_query_bench(gen_cfg, index_cfg, axis, values=None, query_cfg=None,
                    kinds=INDEX_KINDS):
    """Response time over a query workload, sweeping one axis.

    Axes: node_capacity, l, k, n, omega1, omega2, omega3.
    """
    if query_cfg is None:
        query_cfg = QueryConfig(seed=gen_cfg.seed + 1)
    defaults = {
        "node_capacity": CAPACITIES,
        "l": QUERY_WORD_COUNTS,
        "k": K_VALUES,
        "n": (gen_cfg.image_count,),
        "omega1": OMEGA1_VALUES,
        "omega2": OMEGA1_VALUES,
        "omega3": OMEGA1_VALUES,
    }
    if axis not in defaults:
        raise ValueError(f"unknown axis {axis!r}")
    if values is None:
        values = defaults[axis]

    rows = []
    images = generate_images(gen_cfg)
    if axis == "n":
        for n in values:
            sub = images[: int(n)]
            workload = generate_queries(query_cfg, sub) if sub else None
            for kind in kinds:
                index = build_index(kind, index_cfg)
                for img in sub:
                    index.insert(img)
                qs = workload.queries if workload else []
                rows.extend(_query_rows(axis, n, kind, index, qs))
        return rows

    indexes = {}
    for kind in kinds:
        if axis == "node_capacity":
            continue
        index = build_index(kind, index_cfg)
        for img in images:
            index.insert(img)
        indexes[kind] = index

    for value in values:
        if axis == "node_capacity":
            cfg = replace(index_cfg, capacity=int(value))
            workload = generate_queries(query_cfg, images)
            for kind in kinds:
                index = build_index(kind, cfg)
                for img in images:
                    index.insert(img)
                rows.extend(_query_rows(axis, value, kind, index, workload.queries))
            continue
        if axis == "l":
            qc = replace(query_cfg, words_per_query=int(value))
        elif axis == "k":
            qc = replace(query_cfg, k=int(value))
        else:
            w = float(value)
            rest = (1.0 - w) / 2.0
            if axis == "omega1":
                weights = (w, rest, rest)
            elif axis == "omega2":
                weights = (rest, w, rest)
            else:
                weights = (rest, rest, w)
            qc = replace(query_cfg, weights=weights)
        workload = generate_queries(qc, images)
        for kind in kinds:
            rows.extend(_query_rows(axis, value, kind, indexes[kind], workload.queries))
    return rows


def estimate_storage(index):
    """Bytes under the documented per-type size model."""
    if index.kind == "ifa":
        total = POSTING_BYTES * index.live_posting_count()
        for img in index.live_images():
            total += RECORD_BYTES + RECORD_WORD_BYTES * len(img.psi)
        return total
    total = 0
    for node in walk(index.roots()):
        total += NODE_BYTES + AGG_ENTRY_BYTES * len(node.max_freq)
        if node.children is None:
            for img in node.images:
                total += RECORD_BYTES + RECORD_WORD_BYTES * len(img.psi)
    return total


def storage_rows(gen_cfg, index_cfg, kinds=INDEX_KINDS):
    images = generate_images(gen_cfg)
    rows = []
    for kind in kinds:
        index = build_index(kind, index_cfg)
        for img in images:
            index.insert(img)
        size = float(estimate_storage(index))
        rows.append(BenchRow("n", gen_cfg.image_count, kind, "bytes", size, size, size))
    return rows


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [r.axis, r.value, r.index, r.metric,
                 f"{r.mean:.6f}", f"{r.p50:.6f}", f"{r.p95:.6f}"]
            )
