"""Domain types and the scoring functions shared by every index.

All scores are costs in [0, 1]; smaller means better. The combined score
is a weighted sum of spatial proximity, visual relevance and temporal
recency. Scoring is pure: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels


class ConfigError(ValueError):
    """A parameter or weight triple violates its invariant."""


class DomainError(ValueError):
    """A location falls outside the configured spatial domain."""


class InvalidStateError(RuntimeError):
    """Scoring attempted against an empty image or an empty corpus."""


@dataclass(frozen=True)
class SpatialDomain:
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float
    delta_max: float = field(init=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.min_lat, self.max_lat, self.min_lon, self.max_lon))):
            raise ConfigError("spatial domain bounds must be finite")
        if not (self.max_lat > self.min_lat and self.max_lon > self.min_lon):
            raise ConfigError("spatial domain must have positive extent on both axes")
        object.__setattr__(
            self,
            "delta_max",
            math.sqrt(
                (self.max_lat - self.min_lat) ** 2
                + (self.max_lon - self.min_lon) ** 2
            ),
        )

    def contains(self, lat, lon):
        return (
            self.min_lat <= lat <= self.max_lat
            and self.min_lon <= lon <= self.max_lon
        )


def _timestamp(value, what):
    """``int(value)``, with a typed error for a NaN or infinite float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return int(value)


class GeoTemporalImage:
    """An image record: id, location, creation time and sparse word vector.

    ``psi`` is a tuple of (word_id, tf) pairs, strictly ascending by word
    id. ``total_tf`` (the sum of tf counts) is the |I.psi| used as the
    frequency denominator.
    """

    __slots__ = ("id", "lat", "lon", "t_c", "psi", "word_tf", "total_tf")

    def __init__(self, id, lat, lon, t_c, psi):
        psi = tuple((int(w), int(tf)) for w, tf in psi)
        if not psi:
            raise ValueError(f"image {id}: empty visual word vector")
        prev = -1
        total = 0
        for w, tf in psi:
            if w <= prev:
                raise ValueError(f"image {id}: words not strictly ascending")
            if tf <= 0 or w < 0:
                raise ValueError(f"image {id}: invalid posting ({w}, {tf})")
            prev = w
            total += tf
        self.id = int(id)
        self.lat = float(lat)
        self.lon = float(lon)
        self.t_c = _timestamp(t_c, f"image {id}: t_c")
        self.psi = psi
        self.word_tf = dict(psi)
        self.total_tf = total

    @property
    def loc(self):
        return (self.lat, self.lon)

    def __eq__(self, other):
        return (
            isinstance(other, GeoTemporalImage)
            and self.id == other.id
            and self.lat == other.lat
            and self.lon == other.lon
            and self.t_c == other.t_c
            and self.psi == other.psi
        )

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"GeoTemporalImage(id={self.id}, loc=({self.lat}, {self.lon}), t_c={self.t_c}, |psi|={self.total_tf})"


@dataclass(frozen=True)
class Query:
    psi: tuple          # sorted distinct word ids
    loc: tuple          # (lat, lon)
    t: int
    k: int
    weights: tuple      # (w1, w2, w3) for spatial, visual, temporal

    def __post_init__(self):
        psi = tuple(sorted(set(int(w) for w in self.psi)))
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "loc", (float(self.loc[0]), float(self.loc[1])))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "t", _timestamp(self.t, "query time t"))
        object.__setattr__(self, "k", int(self.k))
        if not psi:
            raise ConfigError("query needs at least one visual word")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if len(self.weights) != 3:
            raise ConfigError("exactly three weights required")
        if not all(map(math.isfinite, self.loc + self.weights)):
            raise ConfigError("query location and weights must be finite")
        if any(w <= 0.0 for w in self.weights):
            raise ConfigError("each weight must be > 0")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ConfigError("weights must sum to 1 (within 1e-12)")


class _Bucket:
    """The live images of one window segment, by id, with their term
    statistics: the total term count, the corpus tf per word and the max
    tf/|I.psi| per word."""

    __slots__ = ("images", "total", "ctf", "max_freq")

    def __init__(self):
        self.images = {}
        self.total = 0
        self.ctf = {}
        self.max_freq = {}


class CorpusStats:
    """Term statistics over the live (non-expired) image set.

    The images sit in one bucket per window segment, keyed by
    ``t_c // segment_span`` like the segments of ``engine.Index`` (a
    single bucket when ``segment_span`` is None), and are told apart by
    id. A bucket keeps its own total, corpus tf and exact max frequency
    ratio per word; the corpus tf per word and the total term count are
    kept over all buckets, and ``max_freq`` is the maximum over the
    buckets. A bucket leaves whole, subtracting its own counts; one that
    loses only some images (to a cutoff inside it in ``expire``, or to
    ``remove_image``) is dropped and rebuilt from its survivors.
    ``version`` counts the updates, so a ``QueryContext`` can tell it is
    stale.
    """

    def __init__(self, segment_span=None):
        self.version = 0
        self.total_word_count = 0
        self.word_corpus_tf = {}
        self._span = segment_span
        self._buckets = {}      # t_c // segment_span -> _Bucket

    def _key(self, t):
        return t // self._span if self._span else 0

    def add_image(self, img):
        self.version += 1
        total = img.total_tf
        self.total_word_count += total
        key = self._key(img.t_c)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
        bucket.images[img.id] = img
        bucket.total += total
        ctf = self.word_corpus_tf
        bctf = bucket.ctf
        mf = bucket.max_freq
        for word, tf in img.psi:
            ctf[word] = ctf.get(word, 0) + tf
            bctf[word] = bctf.get(word, 0) + tf
            f = tf / total
            if f > mf.get(word, 0.0):
                mf[word] = f

    def remove_image(self, img):
        """Drops a held image, by id; raises ``KeyError``, changing
        nothing, for an image not held."""
        key = self._key(img.t_c)
        bucket = self._buckets.get(key)
        if bucket is None or img.id not in bucket.images:
            raise KeyError(img.id)
        self._rebuild(key, {img.id})

    def expire(self, cutoff):
        """Drops the images older than ``cutoff`` and returns them."""
        span = self._span
        old = []
        if span:
            for key in [key for key in self._buckets if (key + 1) * span <= cutoff]:
                old.extend(self._drop(key))
        if not span or cutoff % span:
            key = self._key(cutoff)
            bucket = self._buckets.get(key)
            if bucket is not None:
                part = [img for img in bucket.images.values() if img.t_c < cutoff]
                if part:
                    self._rebuild(key, {img.id for img in part})
                    old.extend(part)
        return old

    def _drop(self, key):
        """Drops a whole bucket; returns its images."""
        self.version += 1
        bucket = self._buckets.pop(key)
        self.total_word_count -= bucket.total
        ctf = self.word_corpus_tf
        for word, tf in bucket.ctf.items():
            left = ctf[word] - tf
            if left:
                ctf[word] = left
            else:
                del ctf[word]
        return bucket.images.values()

    def _rebuild(self, key, gone):
        """Drops bucket ``key`` and adds back its images whose ids are not
        in ``gone``."""
        for img in self._drop(key):
            if img.id not in gone:
                self.add_image(img)

    def corpus_tf(self, word):
        return self.word_corpus_tf.get(word, 0)

    def max_freq(self, word):
        """The live maximum of tf/|I.psi| over the images holding
        ``word``; 0.0 when none does."""
        m = 0.0
        for bucket in self._buckets.values():
            f = bucket.max_freq.get(word, 0.0)
            if f > m:
                m = f
        return m

    def smoothing_floor(self, word, xi):
        # weight of a word for an image that does not contain it
        if self.total_word_count == 0:
            return 0.0
        return xi * (self.word_corpus_tf.get(word, 0) / self.total_word_count)

    def weight_range(self, word, xi):
        """``(smoothing_floor, max_weight)`` of ``word``, from one read of
        its corpus tf and its live maximum."""
        floor = self.smoothing_floor(word, xi)
        return floor, (1.0 - xi) * self.max_freq(word) + floor

    def max_weight(self, word, xi):
        # max over live images of w_{word,I}; the floor alone when the
        # word occurs in no live image
        return self.weight_range(word, xi)[1]


@dataclass
class ScoreParams:
    domain: SpatialDomain
    stats: CorpusStats
    xi: float = 0.5
    decay_base: float = 2.0
    time_unit: float = 3600.0
    _context: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xi, self.decay_base, self.time_unit))):
            raise ConfigError("score parameters must be finite")
        if not 0.0 <= self.xi < 1.0:
            raise ConfigError("xi must be in [0, 1)")
        if self.decay_base <= 1.0:
            raise ConfigError("decay base must be > 1")
        if self.time_unit <= 0.0:
            raise ConfigError("time unit must be positive")

    def context(self, q):
        """The ``QueryContext`` of ``q`` over the current corpus. The last
        one is kept while the query object, the stats object and its
        version stay the same."""
        c = self._context
        stats = self.stats
        if c is None or c.q is not q or c.stats is not stats or c.version != stats.version:
            c = self._context = QueryContext(q, self)
        return c


class QueryContext:
    """The scoring constants of one query over one corpus state.

    Visual relevance is 1 - prod(w_v) / gamma_max over the query words v,
    with gamma_max = prod(m_v), m_v the live maximum of w_v, and w_v the
    smoothing floor for an image without v. Words with m_v = 0 (absent
    from the live corpus) are skipped. The log of the ratio is the sum of
    ``log w_v - log floor_v`` over the words an image (or a node) holds,
    plus the constant ``sum(log floor_v) - sum(log m_v)``. When every word
    is held it is ``sum(log w_v) - sum(log m_v)`` in query order, as in
    ``kernels.relevance_cost``, so the best image costs exactly 0.0. A
    word with a zero floor (only when xi = 0) that is not held costs 1.0.
    ``visual`` scores one image, ``visual_columns`` a whole slot table and
    ``mind_visual`` a node; ``f_stv`` gives one image's combined score.

    Building one checks the query location: ``DomainError`` outside the
    domain.
    """

    __slots__ = ("q", "stats", "version", "_scale", "_floors", "_zero_words",
                 "_log_den", "_log_const", "_lat", "_lon", "_t", "_weights",
                 "_delta_max", "_decay_base", "_time_unit")

    def __init__(self, q, params):
        if not params.domain.contains(q.loc[0], q.loc[1]):
            raise DomainError(f"query location {q.loc} outside domain")
        stats = params.stats
        xi = params.xi
        self.q = q
        self.stats = stats
        self.version = stats.version
        self._lat, self._lon = q.loc
        self._t = q.t
        self._weights = q.weights
        self._delta_max = params.domain.delta_max
        self._decay_base = params.decay_base
        self._time_unit = params.time_unit
        self._scale = 1.0 - xi
        floors = {}         # word -> (floor, log floor), in query order
        zero_words = []
        log_den = 0.0
        log_floors = 0.0
        for v in q.psi:
            floor, m = stats.weight_range(v, xi)
            if m <= 0.0:
                continue
            log_den += math.log(m)
            if floor > 0.0:
                lf = math.log(floor)
                log_floors += lf
            else:
                lf = 0.0
                zero_words.append(v)
            floors[v] = (floor, lf)
        self._floors = floors
        self._zero_words = tuple(zero_words)
        self._log_den = log_den
        self._log_const = log_floors - log_den

    def _cost(self, log_num, log_diff, held):
        if held == len(self._floors):
            log_ratio = log_num - self._log_den
        else:
            log_ratio = log_diff + self._log_const
        ratio = math.exp(log_ratio)
        if ratio > 1.0:
            ratio = 1.0
        return 1.0 - ratio

    def visual(self, img):
        """Visual relevance of ``img``, from one pass over its words."""
        word_tf = img.word_tf
        for v in self._zero_words:
            if v not in word_tf:
                return 1.0
        floors = self._floors
        scale = self._scale
        total = img.total_tf
        log = math.log
        log_num = 0.0
        log_diff = 0.0
        held = 0
        # img.psi ascends by word like q.psi, so log_num sums in query order
        for v, tf in img.psi:
            fl = floors.get(v)
            if fl is not None:
                lw = log(scale * (tf / total) + fl[0])
                log_num += lw
                log_diff += lw - fl[1]
                held += 1
        return self._cost(log_num, log_diff, held)

    def f_stv(self, img):
        """The combined score of ``img``: the kernels, operands and order
        of ``combined_score``, so it equals that breakdown's ``f_stv``
        bit for bit, without building the breakdown."""
        w1, w2, w3 = self._weights
        return kernels.combine(
            w1, w2, w3,
            kernels.spatial_cost(self._lat, self._lon, img.lat, img.lon, self._delta_max),
            self.visual(img),
            kernels.recency_cost(self._t - img.t_c, self._decay_base, self._time_unit),
        )

    def visual_columns(self, postings, n):
        """Visual relevance of every slot of an ``n``-slot table, term at a
        time, and the number of query words each slot holds. ``postings``
        maps a word to its ``(slot, tf/|I.psi|)`` columns (``array('q')``,
        ``array('d')``), a slot at most once per word.

        The same sums as ``visual``, one numpy pass per query word in
        query order, so a slot's cost is ``visual`` of its image up to the
        rounding of numpy's ``log`` and ``exp``. A slot that holds no
        query word gets a meaningless cost; the caller drops it by its
        zero count."""
        log_num = np.zeros(n)
        log_diff = np.zeros(n)
        held = np.zeros(n, dtype=np.intp)
        zero_held = np.zeros(n, dtype=np.intp) if self._zero_words else None
        scale = self._scale
        for v, (floor, lf) in self._floors.items():
            cols = postings.get(v)
            if cols is None:
                continue
            slots = np.frombuffer(cols[0], dtype=np.int64)
            lw = np.log(scale * np.frombuffer(cols[1]) + floor)
            log_num[slots] += lw
            log_diff[slots] += lw - lf
            held[slots] += 1
            if floor == 0.0:
                zero_held[slots] += 1
        log_ratio = np.where(held == len(self._floors),
                             log_num - self._log_den, log_diff + self._log_const)
        cost = 1.0 - np.minimum(np.exp(log_ratio), 1.0)
        if zero_held is not None:
            cost[zero_held < len(self._zero_words)] = 1.0
        return cost, held

    def mind_visual(self, node_max_freq):
        """Lower bound on the visual relevance of any image under a node
        whose per-word max frequency ratios are ``node_max_freq``."""
        for v in self._zero_words:
            if not node_max_freq.get(v):
                return 1.0
        scale = self._scale
        log = math.log
        log_num = 0.0
        log_diff = 0.0
        held = 0
        for v, (floor, lf) in self._floors.items():
            f = node_max_freq.get(v)
            if f:
                lw = log(scale * f + floor)
                log_num += lw
                log_diff += lw - lf
                held += 1
        return self._cost(log_num, log_diff, held)


@dataclass(frozen=True)
class ScoreBreakdown:
    f_s: float
    f_v: float
    f_t: float
    f_stv: float


def spatial_proximity(q, loc, domain):
    """Euclidean distance between query and point, normalized by the
    domain diagonal."""
    if not domain.contains(q.loc[0], q.loc[1]):
        raise DomainError(f"query location {q.loc} outside domain")
    if not domain.contains(loc[0], loc[1]):
        raise DomainError(f"location {loc} outside domain")
    return kernels.spatial_cost(q.loc[0], q.loc[1], loc[0], loc[1], domain.delta_max)


def visual_weight(word, img, params):
    """Smoothed per-word weight: (1-xi)*tf/|I.psi| + xi*ctf/|corpus|."""
    stats = params.stats
    if img.total_tf == 0:
        raise InvalidStateError("image with empty word vector")
    if stats.total_word_count == 0:
        raise InvalidStateError("empty corpus")
    return kernels.visual_weight(
        img.word_tf.get(word, 0),
        img.total_tf,
        stats.corpus_tf(word),
        stats.total_word_count,
        params.xi,
    )


def visual_relevance(q, img, params):
    """1 - (product of query-word weights) / gamma_max, clamped to [0, 1].

    gamma_max is the product over query words of the live corpus-wide
    maximum weight, so the best-matching image scores 0.
    """
    if params.stats.total_word_count == 0:
        raise InvalidStateError("empty corpus")
    return params.context(q).visual(img)


def temporal_recency(q, t_c, params):
    """1 - D^(-age/time_unit); fresh images cost less, age clamps at 0."""
    return kernels.recency_cost(q.t - t_c, params.decay_base, params.time_unit)


def combined_score(q, img, params):
    """Full breakdown; the caller enforces the >= 1 common word filter.

    Locations are not checked here: the query's is checked when its
    context is built, an image's when an index admits it.
    """
    f_s = kernels.spatial_cost(q.loc[0], q.loc[1], img.lat, img.lon, params.domain.delta_max)
    f_v = visual_relevance(q, img, params)
    f_t = temporal_recency(q, img.t_c, params)
    w1, w2, w3 = q.weights
    return ScoreBreakdown(f_s, f_v, f_t, kernels.combine(w1, w2, w3, f_s, f_v, f_t))


def add_to_aggregates(node, img):
    """Fold one image into a tree node's aggregates: ``t_max``, the latest
    timestamp below the node, and ``max_freq``, word -> max tf/|I.psi|
    below the node. ``mind_visual`` reads the latter."""
    if node.t_max is None or img.t_c > node.t_max:
        node.t_max = img.t_c
    total = img.total_tf
    mf = node.max_freq
    for word, tf in img.psi:
        f = tf / total
        if f > mf.get(word, 0.0):
            mf[word] = f


def merge_aggregates(node, child):
    """Fold a child's aggregates into its parent's."""
    if node.t_max is None or child.t_max > node.t_max:
        node.t_max = child.t_max
    mf = node.max_freq
    for word, f in child.max_freq.items():
        if f > mf.get(word, 0.0):
            mf[word] = f


def mind_visual(q, node_max_freq, params):
    """Lower bound on visual relevance for any image under a node whose
    per-word max frequency ratios are ``node_max_freq``."""
    return params.context(q).mind_visual(node_max_freq)
