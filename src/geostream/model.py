"""Domain types and the scoring functions shared by every index.

All scores are costs in [0, 1]; smaller means better. The combined score
is a weighted sum of spatial proximity, visual relevance and temporal
recency. Scoring is pure: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import numbers
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
        for name in ("min_lat", "max_lat", "min_lon", "max_lon"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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


def _whole(value, what, error):
    """``int(value)`` for a whole number; ``error`` for anything else (a
    bool, a string, None, a fraction, NaN or infinity), which ``int``
    would accept, truncate or refuse with an untyped error. The one
    integer conversion of admitted input."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise error(f"{what} must be an integer, got {value!r}")
    return n


def _real(value, what):
    """``float(value)`` for a finite real number; ``ConfigError`` for
    anything else (a bool, a string, None, NaN or infinity), which
    ``float`` would accept, convert or refuse with an untyped error. The
    one real conversion of admitted parameters."""
    x = value
    if type(x) is not float:
        real = isinstance(x, numbers.Real) and not isinstance(x, bool)
        try:
            x = float(x) if real else math.nan
        except OverflowError:       # an int beyond the float range
            x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite and real, got {value!r}")
    return x


def _reals(values, n, what):
    """A tuple of ``n`` finite reals (``_real``); ``ConfigError`` for any
    other count or for what is no sequence."""
    try:
        values = tuple(values)
    except TypeError:
        values = None
    if values is None or len(values) != n:
        raise ConfigError(f"{what} must hold exactly {n} values")
    return tuple([_real(v, what) for v in values])


def _counts(cfg, **least):
    """Makes each named field of ``cfg`` an int of at least its value in
    ``least``; ``ConfigError`` for a field that is no whole number or is
    smaller."""
    for name, low in least.items():
        value = _whole(getattr(cfg, name), name, ConfigError)
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value!r}")
        setattr(cfg, name, value)


class GeoTemporalImage:
    """An image record: id, location, creation time and sparse word vector.

    ``psi`` is a tuple of (word_id, tf) pairs, strictly ascending by word
    id. ``total_tf`` (the sum of tf counts) is the |I.psi| used as the
    frequency denominator. The id, ``t_c``, word ids and tfs must be whole
    numbers: anything else (a fraction, a string, None, a bool) raises
    ``ValueError`` (for ``t_c`` its subclass ``ConfigError``) instead of
    being truncated or converted.
    """

    __slots__ = ("id", "lat", "lon", "t_c", "psi", "word_tf", "total_tf")

    def __init__(self, id, lat, lon, t_c, psi):
        psi = tuple(
            (w, tf) if type(w) is int and type(tf) is int
            else (_whole(w, f"image {id}: word id", ValueError),
                  _whole(tf, f"image {id}: tf", ValueError))
            for w, tf in psi)
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
        self.id = id if type(id) is int else _whole(id, "image id", ValueError)
        self.lat = float(lat)
        self.lon = float(lon)
        self.t_c = t_c if type(t_c) is int else _whole(t_c, f"image {id}: t_c", ConfigError)
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
        psi = tuple(sorted(set(_whole(w, "query word id", ConfigError) for w in self.psi)))
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "loc", _reals(self.loc, 2, "query location"))
        object.__setattr__(self, "weights", _reals(self.weights, 3, "query weights"))
        object.__setattr__(self, "t", _whole(self.t, "query time t", ConfigError))
        object.__setattr__(self, "k", _whole(self.k, "k", ConfigError))
        if not psi:
            raise ConfigError("query needs at least one visual word")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if any(w <= 0.0 for w in self.weights):
            raise ConfigError("each weight must be > 0")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ConfigError("weights must sum to 1 (within 1e-12)")


class _Bucket:
    """The live images of one window segment, by id, and the max
    tf/|I.psi| per word over them."""

    __slots__ = ("images", "max_freq")

    def __init__(self):
        self.images = {}
        self.max_freq = {}


class CorpusStats:
    """Term statistics over the live (non-expired) image set.

    The images sit in one bucket per window segment, keyed by
    ``t_c // segment_span`` like the segments of ``engine.Index`` (a
    single bucket when ``segment_span`` is None), and are told apart by
    id. A bucket keeps its images and its exact max frequency ratio per
    word; the corpus tf per word and the total term count are kept over
    all buckets, and ``max_freq`` is the maximum over the buckets. A
    bucket leaves whole, subtracting its images' counts; one that loses
    only some images (to a cutoff inside it in ``expire``, or to
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
        ctf = self.word_corpus_tf
        mf = bucket.max_freq
        for word, tf in img.psi:
            ctf[word] = ctf.get(word, 0) + tf
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
        """Drops a whole bucket, subtracting its images' counts; returns
        its images."""
        self.version += 1
        images = self._buckets.pop(key).images.values()
        ctf = self.word_corpus_tf
        for img in images:
            self.total_word_count -= img.total_tf
            for word, tf in img.psi:
                left = ctf[word] - tf
                if left:
                    ctf[word] = left
                else:
                    del ctf[word]
        return images

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
        for name in ("xi", "decay_base", "time_unit"):
            setattr(self, name, _real(getattr(self, name), name))
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
    ``mind_visual`` a node. ``score_leaf`` gives the combined score of
    each image of a tree leaf that holds a query word, from the posting
    lists of the query words in the leaf's inverted file, with the same
    sums as ``visual``.

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

    def score_leaf(self, leaf):
        """``(f_stv, image)`` for every image of a tree leaf that holds a
        query word, term at a time over the leaf's inverted file
        ``leaf.postings`` (built here on the leaf's first scoring).

        Each image's sums are made in query order, as in ``visual``, into
        one slot per position of three lists. Its visual cost is ``_cost``
        and its spatial and temporal costs and ``f_stv`` are
        ``kernels.spatial_cost``, ``recency_cost`` and ``combine``, all
        inline in their operands and order, so each ``f_stv`` equals the
        ``combined_score`` breakdown's bit for bit."""
        postings = leaf.postings
        images = leaf.images
        if postings is None:
            postings = leaf.postings = {}
            for i, img in enumerate(images):
                _post(postings, i, img)
        scale = self._scale
        log = math.log
        n = len(images)
        log_num = [0.0] * n
        log_diff = [0.0] * n
        held = [0] * n
        for v, (floor, lf) in self._floors.items():
            positions = postings.get(v)
            if positions is None:
                continue
            for i in positions:
                img = images[i]
                lw = log(scale * (img.word_tf[v] / img.total_tf) + floor)
                log_num[i] += lw
                log_diff[i] += lw - lf
                held[i] += 1
        zero_words = self._zero_words
        n_words = len(self._floors)
        log_den, log_const = self._log_den, self._log_const
        w1, w2, w3 = self._weights
        lat, lon, t = self._lat, self._lon, self._t
        delta_max, decay_base, time_unit = self._delta_max, self._decay_base, self._time_unit
        exp = math.exp
        sqrt = math.sqrt
        scored = []
        for img, num, diff, h in zip(images, log_num, log_diff, held):
            if not h:
                continue
            for v in zero_words:
                if v not in img.word_tf:
                    f_v = 1.0
                    break
            else:
                ratio = exp(num - log_den if h == n_words else diff + log_const)
                if ratio > 1.0:
                    ratio = 1.0
                f_v = 1.0 - ratio
            d_lat = lat - img.lat
            d_lon = lon - img.lon
            age = t - img.t_c
            if age < 0.0:
                age = 0.0
            scored.append((
                w1 * (sqrt(d_lat * d_lat + d_lon * d_lon) / delta_max)
                + w2 * f_v
                + w3 * (1.0 - decay_base ** (-(age / time_unit))),
                img))
        return scored

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


def add_posting(leaf, img):
    """Appends ``img`` to a tree leaf's images and, once the leaf's
    inverted file is built, to its posting lists."""
    if leaf.postings is not None:
        _post(leaf.postings, len(leaf.images), img)
    leaf.images.append(img)


def _post(postings, i, img):
    """Adds position ``i``, holding ``img``, to the posting lists."""
    for v in img.word_tf:
        postings.setdefault(v, []).append(i)


def mind_visual(q, node_max_freq, params):
    """Lower bound on visual relevance for any image under a node whose
    per-word max frequency ratios are ``node_max_freq``."""
    return params.context(q).mind_visual(node_max_freq)
