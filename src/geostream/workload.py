"""Synthetic data and query generation plus the TSV dataset format.

Dataset lines: ``id<TAB>lat<TAB>lon<TAB>timestamp<TAB>word:tf,word:tf,...``
Query lines:   ``qid<TAB>lat<TAB>lon<TAB>timestamp<TAB>k<TAB>w1,w2,w3<TAB>word,word,...``
Floats are written with repr so parse(write(S)) == S exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    ConfigError, GeoTemporalImage, Query, SpatialDomain, _counts, _domain, _real, _whole,
)


class DataFormatError(ValueError):
    """Malformed dataset or query file; message carries the line number."""


DEFAULT_DOMAIN = SpatialDomain(0.0, 100.0, 0.0, 100.0)


@dataclass
class GeneratorConfig:
    seed: int = 0
    image_count: int = 1000
    vocab_size: int = 1000
    mean_words: float = 120.0          # mean total word draws per image
    zipf_exponent: float = 1.0
    spatial_mode: str = "uniform"      # "uniform" | "clusters"
    cluster_count: int = 8
    cluster_sigma: float = 2.0
    rate: float = 200.0                # Poisson arrivals per second
    start_time: int = 1_600_000_000
    domain: SpatialDomain = field(default_factory=lambda: DEFAULT_DOMAIN)

    def __post_init__(self):
        _counts(self, seed=0, image_count=0, vocab_size=1, cluster_count=1)
        _domain(self.domain)
        self.start_time = _whole(self.start_time, "start_time", ConfigError)
        for name in ("rate", "zipf_exponent", "mean_words", "cluster_sigma"):
            value = _real(getattr(self, name), name)
            setattr(self, name, value)
            if name in ("mean_words", "cluster_sigma") and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
        if self.rate <= 0:
            raise ConfigError(f"rate must be > 0, got {self.rate!r}")
        if self.spatial_mode not in ("uniform", "clusters"):
            raise ConfigError(f"spatial_mode must be 'uniform' or 'clusters', "
                              f"got {self.spatial_mode!r}")


@dataclass
class QueryConfig:
    seed: int = 0
    count: int = 100
    words_per_query: int = 20          # l
    k: int = 10
    weights: tuple = (1 / 3, 1 / 3, 1 / 3)
    anchor_word_fraction: float = 0.5  # share of words drawn from the anchor image

    def __post_init__(self):
        _counts(self, seed=0, count=0, words_per_query=1, k=1)
        self.anchor_word_fraction = _real(self.anchor_word_fraction, "anchor_word_fraction")
        if not 0.0 <= self.anchor_word_fraction <= 1.0:
            raise ConfigError(f"anchor_word_fraction must be in [0, 1], "
                              f"got {self.anchor_word_fraction!r}")


@dataclass
class QueryWorkload:
    queries: list


def generate_images(cfg):
    """Deterministic synthetic stream; timestamps are non-decreasing."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.image_count
    if n == 0:
        return []
    # Zipf popularity over dense word ids; cumulative table for fast draws
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


def generate_queries(cfg, images):
    """Query locations come from dataset records; word sets mix the anchor
    record's words with draws from the observed vocabulary. Every query
    asks at the latest timestamp of the data."""
    if not images:
        raise ValueError("cannot sample queries from an empty dataset")
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
            Query(
                psi=tuple(sorted(picked)),
                loc=(anchor.lat, anchor.lon),
                t=t,
                k=cfg.k,
                weights=cfg.weights,
            )
        )
    return QueryWorkload(queries)


# -- TSV I/O ------------------------------------------------------------


def write_dataset(images, path):
    with open(path, "w", encoding="utf-8") as fh:
        for img in images:
            words = ",".join(f"{w}:{tf}" for w, tf in img.psi)
            fh.write(f"{img.id}\t{img.lat!r}\t{img.lon!r}\t{img.t_c}\t{words}\n")


def parse_dataset(path):
    """Yields images; raises DataFormatError with the offending line number."""
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise DataFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
            try:
                iid = int(parts[0])
                lat = float(parts[1])
                lon = float(parts[2])
                t_c = int(parts[3])
                psi = []
                for pair in parts[4].split(","):
                    w, tf = pair.split(":")
                    psi.append((int(w), int(tf)))
                img = GeoTemporalImage(iid, lat, lon, t_c, psi)
            except (ValueError, TypeError) as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
            if iid in seen:
                raise DataFormatError(f"line {lineno}: duplicate image id {iid}")
            seen.add(iid)
            yield img


def write_queries(queries, path):
    with open(path, "w", encoding="utf-8") as fh:
        for qid, q in enumerate(queries):
            ws = ",".join(repr(w) for w in q.weights)
            words = ",".join(str(w) for w in q.psi)
            fh.write(f"{qid}\t{q.loc[0]!r}\t{q.loc[1]!r}\t{q.t}\t{q.k}\t{ws}\t{words}\n")


def parse_queries(path):
    queries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 7:
                raise DataFormatError(f"line {lineno}: expected 7 fields, got {len(parts)}")
            try:
                queries.append(
                    Query(
                        psi=tuple(int(w) for w in parts[6].split(",")),
                        loc=(float(parts[1]), float(parts[2])),
                        t=int(parts[3]),
                        k=int(parts[4]),
                        weights=tuple(float(w) for w in parts[5].split(",")),
                    )
                )
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
    return queries
