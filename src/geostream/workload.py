"""Synthetic data and query generation plus the TSV dataset format.

Dataset lines: ``id<TAB>lat<TAB>lon<TAB>timestamp<TAB>word:tf,word:tf,...``
Query lines:   ``qid<TAB>lat<TAB>lon<TAB>timestamp<TAB>k<TAB>w1,w2,w3<TAB>word,word,...``
Floats are written with repr so parse(write(S)) == S exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    ConfigError, GeoTemporalImage, Query, SpatialDomain, _INT64, _counts, _domain, _real,
    _whole,
)


class DataFormatError(ValueError):
    """Malformed dataset or query file; message carries the line number."""


DEFAULT_DOMAIN = SpatialDomain(0.0, 100.0, 0.0, 100.0)
SPATIAL_MODES = ("uniform", "clusters")


@dataclass
class GeneratorConfig:
    seed: int = 0
    image_count: int = 1000
    vocab_size: int = 1000
    mean_words: float = 120.0          # mean total word draws per image
    zipf_exponent: float = 1.0
    spatial_mode: str = "uniform"      # one of SPATIAL_MODES
    cluster_count: int = 8
    cluster_sigma: float = 2.0
    rate: float = 200.0                # Poisson arrivals per second
    start_time: int = 1_600_000_000
    domain: SpatialDomain = field(default_factory=lambda: DEFAULT_DOMAIN)

    def __post_init__(self):
        _counts(self, seed=0, image_count=0, vocab_size=1, cluster_count=1)
        _domain(self.domain)
        self.start_time = _whole(self.start_time, "start_time", ConfigError)
        if self.start_time not in _INT64:
            raise ConfigError(f"start_time must be within int64, got {self.start_time}")
        for name in ("rate", "zipf_exponent", "mean_words", "cluster_sigma"):
            value = _real(getattr(self, name), name)
            setattr(self, name, value)
            if name in ("mean_words", "cluster_sigma") and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
        if self.rate <= 0:
            raise ConfigError(f"rate must be > 0, got {self.rate!r}")
        if self.spatial_mode not in SPATIAL_MODES:
            raise ConfigError(f"spatial_mode must be {' or '.join(map(repr, SPATIAL_MODES))}, "
                              f"got {self.spatial_mode!r}")


@dataclass
class QueryConfig:
    seed: int = 0
    count: int = 100
    words_per_query: int = 20          # l
    k: int = 10
    weights: tuple = (1 / 3, 1 / 3, 1 / 3)
    # share of words drawn from the anchor image; at least one anchor word
    # is drawn (max(1, ...)), also at 0.0
    anchor_word_fraction: float = 0.5

    def __post_init__(self):
        _counts(self, seed=0, count=0, words_per_query=1, k=1)
        self.anchor_word_fraction = _real(self.anchor_word_fraction, "anchor_word_fraction")
        if not 0.0 <= self.anchor_word_fraction <= 1.0:
            raise ConfigError(f"anchor_word_fraction must be in [0, 1], "
                              f"got {self.anchor_word_fraction!r}")


@dataclass
class QueryWorkload:
    queries: list


# Images whose word draws one pass of ``generate_images`` makes at once;
# the pass's temporaries grow with it, not with the stream.
_CHUNK = 1024


def _zipf_cdf(vocab_size, exponent):
    """The cumulative Zipf popularity of the dense word ids 0..vocab_size-1,
    for draws by ``np.searchsorted(cdf, u, side="right")`` with u in [0, 1).
    Rounding can leave the sum's end just below 1.0, where a draw would get
    the word id vocab_size; the end is pinned to 1.0, so such a draw gets
    the last word and no other draw changes."""
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks ** (-exponent)
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def generate_images(cfg):
    """Deterministic synthetic stream; timestamps are non-decreasing.

    The stream is fixed by ``cfg`` and numpy's ``Generator`` (PCG64): the
    whole-stream draws of times, locations and word counts come first,
    then each image's word draws in turn. The draws of ``_CHUNK`` images
    are made in one call, which gives the same values as one call per
    image, so the chunking does not show in the stream. Every image of the
    stream holds the same int object for a word id, taken from one object
    array of the vocabulary that lives as long as the call."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.image_count
    if n == 0:
        return []
    cum = _zipf_cdf(cfg.vocab_size, cfg.zipf_exponent)
    vocab = np.arange(cfg.vocab_size).astype(object)

    offsets = np.floor(np.cumsum(rng.exponential(1.0 / cfg.rate, n)))
    last = offsets[-1]      # the largest offset, a whole number or inf
    if not (np.isfinite(last) and cfg.start_time + int(last) in _INT64):
        raise ConfigError(f"the stream's last timestamp, start_time {cfg.start_time} "
                          f"+ {last:.4g}, is outside int64")
    times = cfg.start_time + offsets.astype(np.int64)

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
    for lo in range(0, n, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        counts = word_counts[chunk]
        draws = np.searchsorted(cum, rng.random(int(counts.sum())), side="right")
        owner = np.repeat(np.arange(len(counts)), counts)
        # (image, word) runs, sorted by image, then word, under one int64
        # key: ``_zipf_cdf`` holds vocab_size floats in memory, so
        # vocab_size * _CHUNK stays far below 2^63
        keys, tfs = np.unique(owner * cfg.vocab_size + draws, return_counts=True)
        owner, draws = np.divmod(keys, cfg.vocab_size)
        tfs = tfs.tolist()
        words = vocab[draws].tolist()
        ends = np.cumsum(np.bincount(owner, minlength=len(counts))).tolist()
        a = 0
        for i, lat, lon, t_c, b in zip(range(lo, n), lats[chunk].tolist(),
                                       lons[chunk].tolist(), times[chunk].tolist(), ends):
            images.append(GeoTemporalImage(i, lat, lon, t_c, list(zip(words[a:b], tfs[a:b]))))
            a = b
    return images


def generate_queries(cfg, images):
    """Query locations come from dataset records; word sets mix the anchor
    record's words with draws from the observed vocabulary. Every query
    asks at the latest timestamp of the data."""
    if not images:
        raise ValueError("cannot sample queries from an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    integers, choice = rng.integers, rng.choice
    vocab = sorted({w for img in images for w in img.freq})
    t = max(img.t_c for img in images)
    n_images, n_vocab = len(images), len(vocab)
    want = cfg.words_per_query
    limit = min(want, n_vocab)
    # at least one anchor word, also at an anchor_word_fraction of 0.0
    n_wanted = max(1, round(want * cfg.anchor_word_fraction))
    queries = []
    for _ in range(cfg.count):
        anchor = images[integers(0, n_images)]
        anchor_words = list(anchor.freq)
        n_anchor = min(len(anchor_words), n_wanted)
        picked = {anchor_words[i] for i in choice(len(anchor_words), n_anchor,
                                                  replace=False).tolist()}
        while len(picked) < limit:
            picked.add(vocab[integers(0, n_vocab)])
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


def _rows(path, fields):
    """Yields ``(lineno, parts)``, the line number and the tab-separated
    fields of each non-blank line of ``path``; ``DataFormatError`` for a
    line that has not ``fields`` fields."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != fields:
                raise DataFormatError(f"line {lineno}: expected {fields} fields, got {len(parts)}")
            yield lineno, parts


def parse_dataset(path):
    """Yields images; raises DataFormatError with the offending line number.
    Every image of the file holds the same int object for a word id."""
    seen = set()
    ids = {}        # word id -> its one int object in this file
    for lineno, parts in _rows(path, 5):
        try:
            iid = int(parts[0])
            lat = float(parts[1])
            lon = float(parts[2])
            t_c = int(parts[3])
            psi = []
            for pair in parts[4].split(","):
                w, tf = pair.split(":")
                w = int(w)
                psi.append((ids.setdefault(w, w), int(tf)))
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
    for lineno, parts in _rows(path, 7):
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
