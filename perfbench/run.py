"""geostream benchmark: seeded streams and queries replayed against HIQ,
IFA and STVII by one closed-loop caller, with every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository; it imports the package from
``src/`` and needs no build. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run. The lines before it
are for people: each metric with its sample count and unscaled value,
the metrics reported only where they are defined, and the environment
stamp. ``perfbench/README.md`` describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "geostream" / "__init__.py").is_file():
    raise SystemExit(f"geostream sources not found under {SRC}: run from a checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import geostream  # noqa: E402
from geostream import baselines, engine, hiq, kernels, model  # noqa: E402
from geostream.baselines import IfaIndex, StviiIndex  # noqa: E402
from geostream.bench import estimate_storage  # noqa: E402
from geostream.engine import brute_force_oracle, top_k_search  # noqa: E402
from geostream.hiq import HiqConfig, HiqIndex  # noqa: E402
from geostream.verify import results_match  # noqa: E402
from geostream.workload import (  # noqa: E402
    DEFAULT_DOMAIN,
    GeneratorConfig,
    QueryConfig,
    generate_images,
    generate_queries,
)
from hostspeed import NOMINAL_NS, HostSpeed  # noqa: E402
from perftrace import Tracer, patched  # noqa: E402

KINDS = ("hiq", "ifa", "stvii")
WORKLOADS = ("clustered-read", "rolling-stream", "wide-query")

# A pass is one freshly generated stream: set-up, then the timed phase.
# A run makes one pass per PASS_SECONDS of --seconds, each from its own
# seed, and pools their samples, so that one lucky or unlucky stream (say,
# a cluster layout that prunes well) does not set the run's figures.
PASS_SECONDS = 4.0

# Sized on a 2-CPU VM with the pure-Python kernels so that a pass takes
# about PASS_SECONDS and a run of 25 s (6 passes) gives more than 1000 HIQ
# queries, enough for a p99 with ten samples beyond it.
SIZES = {
    "clustered-read": dict(images=3000, queries=500, side_every=25, oracle=3),
    "rolling-stream": dict(window=12, segment_span=3, rate=10.0, timed_images=480,
                           query_every=1, side_every=10, oracle=3),
    "wide-query": dict(images=2500, queries=320, side_every=40, oracle=2),
}

END_TO_END = (
    ("setup_s", "s"),
    ("hiq.query_p50_ms", "ms"),
    ("hiq.query_p99_ms", "ms"),
    ("ifa.query_p50_ms", "ms"),
    ("stvii.query_p50_ms", "ms"),
    ("hiq.ingest_images_per_s", "1/s"),
    ("ifa.ingest_images_per_s", "1/s"),
    ("stvii.ingest_images_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Counts are exact: two traced runs of one seed must give the same values.
COUNTS = (
    "hiq.insert.calls", "hiq.roll_segment.calls", "hiq.segments_expired",
    "ifa.expire.calls", "stvii.expire.calls",
    "hiq.mind.calls", "stvii.mind.calls", "model.mind_visual.calls",
    "kernels.relevance_cost.calls", "kernels.visual_weight.calls",
    "engine.score.calls", "ifa.score.calls",
    "hiq.candidates.calls", "hiq.candidates.images",
    "stvii.candidates.calls", "stvii.candidates.images",
    "engine.nodes_visited", "engine.nodes_pruned", "engine.images_scored",
    "engine.heap_peak", "hiq.node_count", "stvii.node_count",
    "hiq.live_segments", "trace.spans",
)
PER_LAYER = (
    ("workload.generate_images_s", "s"),
    ("workload.generate_queries_s", "s"),
    ("hiq.insert.self_us", "us"),
    ("model.corpus_stats.add_image_us", "us"),
    ("hiq.roll_segment_us", "us"),
    ("model.corpus_stats.remove_image_us", "us"),
    ("ifa.insert.self_us", "us"),
    ("ifa.expire_us", "us"),
    ("stvii.insert.self_us", "us"),
    ("stvii.expire_us", "us"),
    ("hiq.mind_us", "us"),
    ("stvii.mind_us", "us"),
    ("model.mind_visual_us", "us"),
    ("engine.score_us", "us"),
    ("ifa.score_us", "us"),
    ("hiq.candidates_us", "us"),
    ("stvii.candidates_us", "us"),
    ("ifa.search.self_us", "us"),
    ("engine.top_k_search.self_us", "us"),
    ("engine.scored_per_result", "ratio"),
    ("hiq.model_bytes", "B"),
    ("ifa.model_bytes", "B"),
    ("stvii.model_bytes", "B"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
) + tuple((name, "count") for name in COUNTS)
EXACT = frozenset(name for name, unit in PER_LAYER if unit in ("count", "ratio", "B"))


class Recorder:
    """Samples and outcomes of one run. Each timing is stored with the
    host-speed segment it fell in, and scaled when the metrics are made."""

    def __init__(self):
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.work_ns = 0                        # set-up plus timed operations
        self.setup = []                         # (first segment, last segment, ns)
        self.query_ns = {k: [] for k in KINDS}  # (segment, ns)
        self.ingest_ns = {k: [] for k in KINDS}  # (segment, ns), insert plus expiry
        self.roll_ns = {k: [] for k in KINDS}   # the ingest samples that rolled the window

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def op(self, fn, *args):
        """Calls ``fn`` once, timed; returns (result, ns) or (None, None)
        when it raised, which counts as a failed operation."""
        self.speed.maybe_tick()
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception:  # the run goes on and reports the failure
            self.fail(traceback.format_exc(limit=4))
            return None, None
        return out, time.perf_counter_ns() - t0

    def scaled(self, samples):
        """Timings in ns at the nominal host speed."""
        factors = {}
        out = []
        for seg, ns in samples:
            f = factors.get(seg)
            if f is None:
                f = factors[seg] = self.speed.factor(seg, seg)
            out.append(ns * f)
        return out


class Pass:
    """One stream: its indexes, its recorder and, when traced, its tracer.

    With a tracer the index methods that the engine and the benchmark call
    (insert, expire, search, roll_segment, mind, candidates) are replaced
    on the instances by span wrappers; the module-level scoring functions
    are replaced for the duration of ``instrumented()``.
    """

    def __init__(self, rec, tracer, check):
        self.rec = rec
        self.tracer = tracer
        self.check = check          # oracle checks (untraced passes only)
        self.index = {}
        self.search_fn = top_k_search
        if tracer is not None:
            self.search_fn = tracer.span("engine.top_k_search", top_k_search)
        self.timed = False          # set-up is over
        self._setup_from = (rec.speed.segment, time.perf_counter_ns(), rec.speed.overhead_ns)

    def generate(self, name, fn, *args):
        if self.tracer is not None:
            return self.tracer.span(name, fn)(*args)
        return fn(*args)

    def build(self, config):
        for kind, cls in zip(KINDS, (HiqIndex, IfaIndex, StviiIndex)):
            index = cls(config)
            if self.tracer is not None:
                self._instrument(kind, index)
            self.index[kind] = index

    def setup_done(self):
        """Ends set-up: records its time, less the reference ticks, and
        collects garbage so that the timed phase does not pay for set-up's."""
        seg, t0, overhead = self._setup_from
        speed = self.rec.speed
        dt = time.perf_counter_ns() - t0 - (speed.overhead_ns - overhead)
        self.rec.setup.append((seg, speed.segment, dt))
        self.rec.work_ns += dt
        self.timed = True
        gc.collect()

    def _instrument(self, kind, index):
        t = self.tracer
        index.insert = t.span(f"{kind}.insert", index.insert)
        if kind == "ifa":
            index.search = t.span("ifa.search", index.search)
        else:
            index.mind = t.span(f"{kind}.mind", index.mind)
            index.candidates = t.span(
                f"{kind}.candidates",
                t.counter(f"{kind}.candidates.images", index.candidates, len))
        if kind == "hiq":
            index.roll_segment = t.span(
                "hiq.roll_segment",
                t.counter("hiq.segments_expired", index.roll_segment, int))
        else:
            index.expire = t.span(f"{kind}.expire", index.expire)

    def instrumented(self):
        t = self.tracer
        if t is None:
            return patched([])
        stats = model.CorpusStats
        swaps = [
            (engine, "combined_score", t.span("engine.score", engine.combined_score)),
            (baselines, "combined_score", t.span("ifa.score", baselines.combined_score)),
            (hiq, "mind_visual", t.span("model.mind_visual", hiq.mind_visual)),
            (baselines, "mind_visual", t.span("model.mind_visual", baselines.mind_visual)),
            (stats, "add_image", t.span("model.corpus_stats.add_image", stats.add_image)),
            (stats, "remove_image",
             t.span("model.corpus_stats.remove_image", stats.remove_image)),
        ]
        for fn in ("visual_weight", "spatial_cost", "rect_min_cost", "recency_cost",
                   "relevance_cost", "combine"):
            swaps.append((kernels, fn, t.counter(f"kernels.{fn}.calls", getattr(kernels, fn))))
        return patched(swaps)

    def _new_request(self):
        if self.tracer is not None:
            self.tracer.new_request()

    def insert(self, kind, img, cutoff=None, ingest=True):
        """Inserts into one index and, for IFA/STVII, expires below
        ``cutoff`` when given. With ``ingest`` the time is an ingest
        sample. Returns the sample, or None on failure."""
        index = self.index[kind]
        self._new_request()
        _, dt = self.rec.op(index.insert, img)
        if dt is None:
            return None
        if cutoff is not None:
            _, de = self.rec.op(index.expire, cutoff)
            if de is None:
                return None
            dt += de
        if self.timed:
            self.rec.work_ns += dt
        sample = (self.rec.speed.segment, dt)
        if ingest:
            self.rec.ingest_ns[kind].append(sample)
        return sample

    def query(self, kind, q):
        """Answers ``q`` on one index, timed; returns the results or None."""
        index = self.index[kind]
        self._new_request()
        if kind == "ifa":
            out, dt = self.rec.op(index.search, q)
        elif self.tracer is None:
            out, dt = self.rec.op(self.search_fn, q, index)
        else:
            audit = []
            out, dt = self.rec.op(self.search_fn, q, index, audit)
            if out is not None:
                t = self.tracer
                results, stats = out
                t.add("engine.nodes_visited", stats.nodes_visited)
                t.add("engine.images_scored", stats.images_scored)
                t.add("engine.nodes_pruned", len(audit))
                t.add("engine.results", len(results))
                t.peak("engine.heap_peak", stats.heap_peak)
        if out is None:
            return None
        self.rec.query_ns[kind].append((self.rec.speed.segment, dt))
        self.rec.work_ns += dt
        return out[0]

    def cross_check(self, q, answers):
        """Every index that answered must agree with HIQ (ids, f_stv)."""
        base = answers.get("hiq")
        for kind, got in answers.items():
            if kind != "hiq" and base is not None and got is not None \
                    and not results_match(got, base):
                self.rec.fail(f"{kind} disagrees with hiq on query {q}")

    def oracle_check(self, q, got):
        live = list(self.index["hiq"].live_images())
        want = brute_force_oracle(q, live, self.index["hiq"].params)
        if got is not None and not results_match(got, want):
            self.rec.fail(f"hiq disagrees with the oracle on query {q}")

    def live_check(self):
        ids = {k: sorted(img.id for img in ix.live_images()) for k, ix in self.index.items()}
        if any(v != ids["hiq"] for v in ids.values()):
            self.rec.fail("indexes hold different live images")


def _static_pass(p, size, data_seed, gen_kw, query_kw):
    """Shared by the read workloads: one segment, built in set-up, then
    HIQ answers every query and IFA/STVII every ``side_every``-th."""
    images = p.generate(
        "workload.generate_images", generate_images,
        GeneratorConfig(seed=data_seed, image_count=size["images"], vocab_size=5000,
                        mean_words=15.0, zipf_exponent=1.0, rate=500.0,
                        domain=DEFAULT_DOMAIN, **gen_kw))
    queries = p.generate(
        "workload.generate_queries", generate_queries,
        QueryConfig(seed=data_seed + 1, count=size["queries"], k=10, **query_kw),
        images).queries
    p.build(HiqConfig(domain=DEFAULT_DOMAIN, segment_span=10_000_000, window=24,
                      capacity=100, max_depth=16))
    for kind in KINDS:
        # each build starts from a collected heap, so that it does not
        # pay the collector for the garbage of the builds before it
        gc.collect()
        for img in images:
            p.insert(kind, img)
    p.setup_done()

    answers = []
    for j, q in enumerate(queries):
        kinds = KINDS if j % size["side_every"] == 0 else ("hiq",)
        answers.append({kind: p.query(kind, q) for kind in kinds})

    for q, got in zip(queries, answers):
        p.cross_check(q, got)
    if p.check:
        for j in random.Random(data_seed).sample(range(len(queries)), size["oracle"]):
            p.oracle_check(queries[j], answers[j]["hiq"])
    p.live_check()


def clustered_read(p, size, data_seed):
    _static_pass(
        p, size, data_seed,
        dict(spatial_mode="clusters", cluster_count=12, cluster_sigma=1.5),
        dict(words_per_query=10, anchor_word_fraction=1.0))


def wide_query(p, size, data_seed):
    _static_pass(
        p, size, data_seed,
        dict(spatial_mode="uniform"),
        dict(words_per_query=50, weights=(0.2, 0.6, 0.2)))


def rolling_stream(p, size, data_seed):
    """Fills the window in set-up, then streams ``timed_images`` more
    images. IFA and STVII do not expire by themselves, so whenever HIQ
    drops a segment they expire to HIQ's oldest segment start (calling
    them after every insert would only repeat a no-op scan, and for STVII
    a full rebuild). Queries run at the current stream time every
    ``query_every`` inserts."""
    span, window, rate = size["segment_span"], size["window"], size["rate"]
    fill_expected = int(rate * span * window)
    images = p.generate(
        "workload.generate_images", generate_images,
        GeneratorConfig(seed=data_seed, image_count=fill_expected * 5 // 4 + size["timed_images"],
                        vocab_size=5000, mean_words=15.0, zipf_exponent=1.0,
                        spatial_mode="uniform", rate=rate, domain=DEFAULT_DOMAIN))
    n_queries = size["timed_images"] // size["query_every"] + 1
    queries = p.generate(
        "workload.generate_queries", generate_queries,
        QueryConfig(seed=data_seed + 1, count=n_queries, words_per_query=10, k=10,
                    anchor_word_fraction=1.0),
        images).queries
    p.build(HiqConfig(domain=DEFAULT_DOMAIN, segment_span=span, window=window,
                      capacity=100, max_depth=16))
    window_end = (images[0].t_c // span + window) * span
    fill = [img for img in images if img.t_c < window_end]
    timed = images[len(fill):len(fill) + size["timed_images"]]
    for img in fill:
        for kind in KINDS:
            p.insert(kind, img, ingest=False)
    p.setup_done()

    hiq_index = p.index["hiq"]
    oracle_at = set(random.Random(data_seed).sample(range(n_queries), size["oracle"])) \
        if p.check else set()
    cutoff = hiq_index.segments[0].start
    j = 0
    for n, img in enumerate(timed):
        samples = {"hiq": p.insert("hiq", img)}
        new_cutoff = hiq_index.segments[0].start
        rolled = new_cutoff != cutoff
        for kind in ("ifa", "stvii"):
            samples[kind] = p.insert(kind, img, new_cutoff if rolled else None)
        if rolled:
            for kind, sample in samples.items():
                if sample is not None:
                    p.rec.roll_ns[kind].append(sample)
        cutoff = new_cutoff
        if n % size["query_every"]:
            continue
        q = dataclasses.replace(queries[j], t=img.t_c)
        kinds = KINDS if j % size["side_every"] == 0 else ("hiq",)
        answers = {kind: p.query(kind, q) for kind in kinds}
        p.cross_check(q, answers)
        if j in oracle_at:
            p.oracle_check(q, answers["hiq"])
        j += 1
    p.live_check()


PASSES = {
    "clustered-read": clustered_read,
    "rolling-stream": rolling_stream,
    "wide-query": wide_query,
}


def run_pass(workload, seed, i, rec, tracer=None, check=True):
    p = Pass(rec, tracer, check)
    with p.instrumented():
        PASSES[workload](p, SIZES[workload], seed * 1000 + 2 * i)
    return p


# -- metrics -------------------------------------------------------------


def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(rec):
    """Returns ({name: value}, {name: note}) for the end-to-end metrics,
    plus those reported only where they are defined. Times are scaled to
    the nominal host speed; each note gives the unscaled value."""
    values, notes = {}, {}

    def put(name, value, raw, note):
        values[name] = value
        notes[name] = f"{note}; unscaled {raw:.6g}"

    speed = rec.speed
    setups = [ns * speed.factor(a, b) for a, b, ns in rec.setup]
    put("setup_s", percentile(setups, 50) / 1e9,
        percentile([ns for _, _, ns in rec.setup], 50) / 1e9,
        f"median of {len(setups)} set-ups")
    for kind in KINDS:
        raw = [ns for _, ns in rec.query_ns[kind]]
        qs = rec.scaled(rec.query_ns[kind])
        for pct in (50, 99) if kind == "hiq" else (50, 90):
            name = f"{kind}.query_p{pct}_ms"
            beyond = len(qs) - math.ceil(pct / 100.0 * len(qs))
            if not qs or (pct != 50 and beyond < 10 and name not in dict(END_TO_END)):
                notes[name] = f"not reported: {beyond} of {len(qs)} queries beyond p{pct}"
                continue
            put(name, percentile(qs, pct) / 1e6, percentile(raw, pct) / 1e6,
                f"{len(qs)} queries, {beyond} beyond")
        ingest = rec.ingest_ns[kind]
        if ingest:
            put(f"{kind}.ingest_images_per_s", len(ingest) * 1e9 / sum(rec.scaled(ingest)),
                len(ingest) * 1e9 / sum(ns for _, ns in ingest), f"{len(ingest)} images")
        rolls = rec.roll_ns[kind]
        if rolls:
            put(f"{kind}.roll_stall_ms", percentile(rec.scaled(rolls), 50) / 1e6,
                percentile([ns for _, ns in rolls], 50) / 1e6, f"median of {len(rolls)} rolls")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_ops"] = rec.failed / max(1, rec.attempted)
    notes["failed_ops"] = f"{rec.failed} of {rec.attempted} operations"
    return values, notes


def per_layer(tracer, untraced_rec, traced_rec, index):
    """Per-layer metrics from one traced pass, unscaled."""
    spans = tracer.summary()

    def total_us(name):
        return spans.get(name, (0, 0, 0))[1] / 1e3

    def self_us(name):
        return spans.get(name, (0, 0, 0))[2] / 1e3

    m = {
        "workload.generate_images_s": total_us("workload.generate_images") / 1e6,
        "workload.generate_queries_s": total_us("workload.generate_queries") / 1e6,
        "hiq.insert.self_us": self_us("hiq.insert"),
        "model.corpus_stats.add_image_us": total_us("model.corpus_stats.add_image"),
        "hiq.roll_segment_us": total_us("hiq.roll_segment"),
        "model.corpus_stats.remove_image_us": total_us("model.corpus_stats.remove_image"),
        "ifa.insert.self_us": self_us("ifa.insert"),
        "ifa.expire_us": total_us("ifa.expire"),
        "stvii.insert.self_us": self_us("stvii.insert"),
        "stvii.expire_us": total_us("stvii.expire"),
        "hiq.mind_us": total_us("hiq.mind"),
        "stvii.mind_us": total_us("stvii.mind"),
        "model.mind_visual_us": total_us("model.mind_visual"),
        "engine.score_us": total_us("engine.score"),
        "ifa.score_us": total_us("ifa.score"),
        "hiq.candidates_us": total_us("hiq.candidates"),
        "stvii.candidates_us": total_us("stvii.candidates"),
        "ifa.search.self_us": self_us("ifa.search"),
        "engine.top_k_search.self_us": self_us("engine.top_k_search"),
        "engine.scored_per_result":
            tracer.count("engine.images_scored") / max(1, tracer.count("engine.results")),
        "hiq.model_bytes": estimate_storage(index["hiq"]),
        "ifa.model_bytes": estimate_storage(index["ifa"]),
        "stvii.model_bytes": estimate_storage(index["stvii"]),
        "trace.untraced_s": untraced_rec.work_ns / 1e9,
        "trace.traced_s": traced_rec.work_ns / 1e9,
        "hiq.node_count": index["hiq"].node_count(),
        "stvii.node_count": index["stvii"].node_count(),
        "hiq.live_segments": len(index["hiq"].segments),
        "trace.spans": tracer.span_count(),
    }
    for name in COUNTS:
        if name not in m:
            span = name[: -len(".calls")] if name.endswith(".calls") else None
            m[name] = spans[span][0] if span in spans else tracer.count(name)
    return m


# -- entry point -----------------------------------------------------------


def _loadavg():
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def _untraced(workload, seed, seconds):
    rec = Recorder()
    for i in range(max(1, round(seconds / PASS_SECONDS))):
        run_pass(workload, seed, i, rec)
    rec.speed.tick()                # closes the last segment
    values, notes = end_to_end(rec)
    units = dict(END_TO_END)
    for name, value in values.items():
        unit = units.get(name, "share" if name == "failed_ops" else "ms")
        print(f"{name:28s} {value:14.6f} {unit:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in values:
            print(f"{name:28s} {'-':>14s} {'':6s} {note}")
    ref = statistics.median(rec.speed.ref_ns)
    print(f"host speed: reference loop median {ref / 1e6:.3f} ms against nominal "
          f"{NOMINAL_NS / 1e6:.3f} ms, {len(rec.speed.ref_ns)} ticks")
    missing = [name for name in units if name not in values]
    if missing:
        rec.fail(f"metrics not measured: {missing}")
    return rec, {name: {"value": values[name], "unit": unit}
                 for name, unit in END_TO_END if name in values}


def _traced(workload, seed):
    """Pass 0 untraced (the overhead baseline, with the answer checks),
    then traced twice: the counts must repeat exactly."""
    rec = Recorder()
    run_pass(workload, seed, 0, rec)
    traced = []
    for _ in range(2):
        trec, tracer = Recorder(), Tracer()
        p = run_pass(workload, seed, 0, trec, tracer, check=False)
        traced.append(per_layer(tracer, rec, trec, p.index))
        rec.attempted += trec.attempted
        rec.failed += trec.failed
        rec.failures += trec.failures
        del p, tracer
        gc.collect()
    first, second = traced
    for name in sorted(EXACT):
        if first[name] != second[name]:
            rec.fail(f"count {name} differs between two traced runs: "
                     f"{first[name]} vs {second[name]}")
    units = dict(PER_LAYER)
    for name, unit in PER_LAYER:
        print(f"{name:36s} {first[name]:18.3f} {unit}")
    print(f"tracing overhead: traced pass {first['trace.traced_s']:.3f} s against "
          f"untraced {first['trace.untraced_s']:.3f} s")
    return rec, {name: {"value": first[name], "unit": units[name]} for name, _ in PER_LAYER}


def run(workload, seed, seconds, trace):
    """Runs one benchmark invocation, prints the report and returns the
    result object that ``main`` prints as the last line."""
    load_start = _loadavg()
    print(f"# geostream benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace}")
    if trace:
        rec, metrics = _traced(workload, seed)
    else:
        rec, metrics = _untraced(workload, seed, seconds)
    print("stamp " + json.dumps({
        "kernel_backend": geostream.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }))
    for what in rec.failures:
        print(f"FAILED: {what}")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
