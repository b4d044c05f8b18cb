"""Benchmark harness: one sweep per axis of the paper's figures. Insert
and segment-roll latency against arrival rate; response time, node
accesses, visual node bounds evaluated and images scored against node
capacity, query-word count l, k, dataset size n and the weights;
modelled storage against n.

Every answer is checked: each index must return the first index's
answer to every query (at 1e-9), and each index's answer to the first
query of a point must equal the brute-force oracle over its live images.
A mismatch raises ``AnswerMismatchError``.

Timings are reported but never asserted; only counter metrics (node
accesses, bounds evaluated, images scored) are stable across machines.
Arrival rates are simulated in virtual time: timestamps are synthesized
at the target rate, no wall-clock waiting.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, replace

from .baselines import IfaIndex, StviiIndex
from .engine import brute_force_oracle, walk
from .hiq import HiqIndex
from .verify import results_match
from .workload import QueryConfig, generate_images, generate_queries

CSV_HEADER = ("axis", "value", "index", "metric", "mean", "p50", "p95")

_WEIGHT_SHARES = tuple(i / 7 for i in range(1, 6))
# each axis's default values; None: the distinct positive prefix sizes
# ``image_count * i // 5`` for i = 1..5 of the stream
AXES = {
    "arrival_rate": (200, 400, 800, 1600, 3200),
    "node_capacity": (100, 200, 300, 400, 500),
    "l": (10, 50, 100, 150, 200),
    "k": (10, 25, 50, 75, 100),
    "n": None,
    "omega1": _WEIGHT_SHARES,
    "omega2": _WEIGHT_SHARES,
    "omega3": _WEIGHT_SHARES,
}

INDEX_CLASSES = {cls.kind: cls for cls in (HiqIndex, IfaIndex, StviiIndex)}
INDEX_KINDS = tuple(INDEX_CLASSES)

# per-type footprint model for storage estimation (bytes)
NODE_BYTES = 64            # rectangle/MBR + t_max + pointers
POSTING_BYTES = 16         # (image id, weight) pair
AGG_ENTRY_BYTES = 16       # (word, max weight) at a node
# an image record, fitted to ``tools/record_bytes.py``'s measured bytes per
# image (3,605 at 72.5 words, generator defaults; 1,023 at 13.4 words,
# perfbench's clustered stream; 64-bit CPython 3.11)
RECORD_BYTES = 440         # the object, its id, location, timestamp and empty containers
RECORD_WORD_BYTES = 44     # per word: its ``freq`` entry and its tf in ``tfs``


class AnswerMismatchError(Exception):
    """An index answered a sweep query differently from the first index
    or from the oracle; the message names the axis, value and index."""


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


def _row(axis, value, kind, metric, samples):
    """The mean, p50 and p95 of ``samples``; each percentile by the
    nearest rank, the ``ceil(p * n)``-th smallest of the ``n``, as
    perfbench's ``percentile`` takes it."""
    if not samples:
        return BenchRow(axis, value, kind, metric, 0.0, 0.0, 0.0)
    ordered = sorted(samples)
    n = len(ordered)
    p50, p95 = (ordered[-(-pct * n // 100) - 1] for pct in (50, 95))
    return BenchRow(axis, value, kind, metric, statistics.fmean(samples), p50, p95)


def _retime(images, rate, start):
    """Respace the stream's timestamps at the target arrival rate."""
    return [type(img)(img.id, img.lat, img.lon, start + int(i / rate), img.psi)
            for i, img in enumerate(images)]


def _build(kinds, config, images):
    """Each kind's index over the images, and its insert latencies (µs)."""
    indexes, insert_us = {}, {}
    for kind in kinds:
        index = indexes[kind] = build_index(kind, config)
        samples = insert_us[kind] = []
        for img in images:
            t0 = time.perf_counter()
            index.insert(img)
            samples.append((time.perf_counter() - t0) * 1e6)
    return indexes, insert_us


def _roll_half(index, mid):
    """Latencies (µs) of segment rolls of an index that holds a window, at
    least one and on until the window starts past ``mid``, the stream's
    midpoint; none for an index that never held an image. Each roll goes
    to ``window_start() + window * segment_span``, which drops exactly the
    window's oldest segment and expires its images."""
    samples, reach = [], index.config.window * index.config.segment_span
    start = index.window_start()
    while start is not None and (start <= mid or not samples):
        t0 = time.perf_counter()
        index.roll_segment(start + reach)
        samples.append((time.perf_counter() - t0) * 1e6)
        start = index.window_start()
    return samples


def _query_rows(axis, value, indexes, queries):
    """Response time, nodes visited, visual node bounds evaluated and
    images scored of each index over the queries, with every answer
    checked."""
    rows, first = [], None
    for kind, index in indexes.items():
        times, stats, answers = [], [], []
        for q in queries:
            t0 = time.perf_counter()
            results, st = index.search(q)
            times.append((time.perf_counter() - t0) * 1e3)
            stats.append(st)
            answers.append(results)
        if queries and not results_match(
                answers[0], brute_force_oracle(queries[0], index.live_images(), index.params)):
            raise AnswerMismatchError(f"{axis}={value}: {kind} differs from the oracle on query 0")
        if first is None:
            first = kind, answers
        for i, (got, want) in enumerate(zip(answers, first[1])):
            if not results_match(got, want):
                raise AnswerMismatchError(
                    f"{axis}={value}: {kind} answers differ from {first[0]}'s on query {i}")
        rows.append(_row(axis, value, kind, "response_ms", times))
        rows.append(_row(axis, value, kind, "nodes", [s.nodes_visited for s in stats]))
        rows.append(_row(axis, value, kind, "bounds", [s.bounds_evaluated for s in stats]))
        rows.append(_row(axis, value, kind, "images_scored", [s.images_scored for s in stats]))
    return rows


def sweep(gen_cfg, index_cfg, axis, values=None, query_cfg=None, kinds=INDEX_KINDS):
    """Rows of ``axis`` swept over ``values`` (default ``AXES[axis]``;
    for ``n``, the distinct positive prefix sizes ``image_count * i //
    5``, i = 1..5).

    ``arrival_rate`` retimes the stream and measures ``insert_us`` and
    ``delete_us``; ``n`` takes a prefix of the stream; ``node_capacity``
    replaces the capacity; ``l``, ``k`` and ``omega1..3`` replace a field
    of the query config; those measure ``response_ms``, ``nodes``,
    ``bounds`` and ``images_scored``. ``n`` also gives each index's
    modelled ``bytes``, which a search leaves as the build made them.
    Indexes are rebuilt only when a point's images or index config
    change. Raises ``AnswerMismatchError`` on a wrong answer."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    if values is None:
        values = AXES[axis] or sorted(
            {gen_cfg.image_count * i // 5 for i in range(1, 6)} - {0})
    if query_cfg is None:
        query_cfg = QueryConfig(seed=gen_cfg.seed + 1)
    stream = generate_images(gen_cfg)
    rows, built_for = [], (None, None)
    for value in values:
        images, cfg, qc = stream, index_cfg, query_cfg
        if axis == "arrival_rate":
            images = _retime(stream, value, gen_cfg.start_time)
        elif axis == "n":
            images = stream[: int(value)]
        elif axis == "node_capacity":
            cfg = replace(index_cfg, capacity=int(value))
        elif axis == "l":
            qc = replace(query_cfg, words_per_query=int(value))
        elif axis == "k":
            qc = replace(query_cfg, k=int(value))
        else:  # omega<i>: weight i is the value, the other two share the rest
            weights = [(1.0 - float(value)) / 2.0] * 3
            weights[int(axis[-1]) - 1] = float(value)
            qc = replace(query_cfg, weights=tuple(weights))
        if images is not built_for[0] or cfg is not built_for[1]:
            built_for = images, cfg
            indexes, insert_us = _build(kinds, cfg, images)

        if axis == "arrival_rate":
            rows += [_row(axis, value, kind, "insert_us", samples)
                     for kind, samples in insert_us.items()]
            mid = (images[0].t_c + images[-1].t_c) // 2 if images else None
            rows += [_row(axis, value, kind, "delete_us", _roll_half(index, mid))
                     for kind, index in indexes.items()]
        else:
            queries = generate_queries(qc, images).queries if images else []
            rows += _query_rows(axis, value, indexes, queries)
            if axis == "n":
                rows += [_row(axis, value, kind, "bytes", [float(estimate_storage(index))])
                         for kind, index in indexes.items()]
    return rows


def estimate_storage(index):
    """Bytes under the documented per-type size model: IFA holds one
    posting per word of each live image (the postings of expired slots
    not yet trimmed away are not counted), and a tree holds its nodes,
    their aggregates and its leaves' image records. The model leaves out
    the index's ``CorpusStats``, its ``_live`` map of id to image and
    IFA's slot columns, so it stays far under what ``tools/record_bytes.py``
    measures: at perfbench's clustered shape it gives 431/215/136 B per
    image beyond the records for HIQ/IFA/STVII, against a measured
    1,092/816/484 B."""
    if index.kind == "ifa":
        return sum(RECORD_BYTES + (RECORD_WORD_BYTES + POSTING_BYTES) * len(img.freq)
                   for img in index.live_images())
    total = 0
    for node in walk(index.roots()):
        total += NODE_BYTES + AGG_ENTRY_BYTES * len(node.max_freq)
        if node.children is None:
            for img in node.images:
                total += RECORD_BYTES + RECORD_WORD_BYTES * len(img.freq)
    return total


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [r.axis, r.value, r.index, r.metric,
                 f"{r.mean:.6f}", f"{r.p50:.6f}", f"{r.p95:.6f}"]
            )
