"""Domain types and the scoring functions shared by every index.

All scores are costs in [0, 1]; smaller means better. The combined score
is a weighted sum of spatial proximity, visual relevance and temporal
recency. Scoring is pure: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels


class ConfigError(ValueError):
    """A parameter or weight triple violates its invariant."""


class DomainError(ValueError):
    """A location falls outside the configured spatial domain."""


class InvalidStateError(RuntimeError):
    """A call the current state cannot serve: scoring against an empty
    corpus, or ``CorpusStats.remove_image``, which is refused."""


# The slack of a lower bound over the costs it bounds: ``mind_visual`` is
# at most an image's visual cost only up to rounding, and the dominance
# checks (``verify.check_dominance``) allow this much.
BOUND_TOL = 1e-9

# A visual ratio below e^-UNDERFLOW makes ``1.0 - ratio`` exactly 1.0:
# e^-39 is about 1.2e-17, under 2^-54, the half ulp below 1.0, and the
# margin to ln 2^-54 (about -37.4) covers the rounding of the log sums.
UNDERFLOW = 39.0

# The timestamps an index admits, and the query times it answers.
_INT64 = range(-2 ** 63, 2 ** 63)


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
        try:
            delta_max = math.sqrt(
                (self.max_lat - self.min_lat) ** 2
                + (self.max_lon - self.min_lon) ** 2
            )
        except OverflowError:
            delta_max = math.inf
        # every spatial cost divides by the diagonal
        if not 0.0 < delta_max < math.inf:
            raise ConfigError(f"spatial domain's diagonal must be finite and above 0, "
                              f"got {delta_max!r}")
        object.__setattr__(self, "delta_max", delta_max)

    def contains(self, lat, lon):
        return (
            self.min_lat <= lat <= self.max_lat
            and self.min_lon <= lon <= self.max_lon
        )


def _domain(value):
    """``ConfigError`` for a domain that is no ``SpatialDomain``."""
    if not isinstance(value, SpatialDomain):
        raise ConfigError(f"domain must be a SpatialDomain, got {value!r}")


def _whole(value, what, error):
    """``int(value)`` for a whole number; ``error`` for anything else (a
    bool, a string, None, a fraction, NaN or infinity), which ``int``
    would accept, truncate or refuse with an untyped error. The one
    integer conversion of admitted input. An exact ``int`` comes back as
    it is, also beyond int64: its callers check the range."""
    if type(value) is int:
        return value
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

    The record is built from ``psi``, an iterable of (word_id, tf) pairs
    strictly ascending by word id, and holds them as ``freq``, which maps
    each word, in that ascending order, to its ratio tf/|I.psi|, and
    ``tfs``, the tuple of the tfs in ``freq``'s order. ``total_tf`` (the
    sum of the tfs) is |I.psi|. ``freq`` is the one place the ratio is
    computed, which the node aggregates, the scorers and IFA's postings
    read; equal tfs share one ratio object. ``psi`` is derived: the tuple
    of (word_id, tf) pairs, rebuilt on each read, for the cold paths that
    want the pairs. The word ids are the ints given: a caller that passes
    one object per word id, as ``generate_images`` and ``parse_dataset``
    do within a stream, keeps one copy of each. The id, ``t_c``, word ids
    and tfs must be whole numbers, and ``lat`` and ``lon`` finite reals:
    anything else (a fraction, a string, None, a bool, NaN or infinity)
    raises ``ValueError`` (for ``t_c``, ``lat`` and ``lon`` its subclass
    ``ConfigError``) instead of being truncated or converted.
    """

    __slots__ = ("id", "lat", "lon", "t_c", "freq", "tfs", "total_tf")

    def __init__(self, id, lat, lon, t_c, psi):
        freq = {}           # word -> tf, then word -> tf/|I.psi|
        tfs = []
        prev = -1
        for w, tf in psi:
            if type(w) is not int or type(tf) is not int:
                w = _whole(w, f"image {id}: word id", ValueError)
                tf = _whole(tf, f"image {id}: tf", ValueError)
            if w <= prev:
                raise ValueError(f"image {id}: words not strictly ascending")
            if tf <= 0 or w < 0:
                raise ValueError(f"image {id}: invalid posting ({w}, {tf})")
            prev = w
            freq[w] = tf
            tfs.append(tf)
        if not tfs:
            raise ValueError(f"image {id}: empty visual word vector")
        self.id = id if type(id) is int else _whole(id, "image id", ValueError)
        self.lat = lat if type(lat) is float and math.isfinite(lat) else _real(lat, f"image {id}: lat")
        self.lon = lon if type(lon) is float and math.isfinite(lon) else _real(lon, f"image {id}: lon")
        self.t_c = t_c if type(t_c) is int else _whole(t_c, f"image {id}: t_c", ConfigError)
        total = sum(tfs)
        ratios = {}         # tf -> tf/|I.psi|, one object per distinct tf
        for w, tf in freq.items():
            f = ratios.get(tf)
            if f is None:
                f = ratios[tf] = tf / total
            freq[w] = f
        self.freq = freq
        self.tfs = tuple(tfs)
        self.total_tf = total

    @property
    def psi(self):
        return tuple(zip(self.freq, self.tfs))

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
            and self.tfs == other.tfs
            and self.freq.keys() == other.freq.keys()
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
        if self.t not in _INT64:
            raise ConfigError(f"query time t must be within int64, got {self.t}")
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
    """The live images of one window segment, a list in arrival order, with
    their counts and their aggregates: ``corpus_tf``, word -> the sum of
    the images' tfs, and ``total_tf``, the sum of their |I.psi|; ``t_max``,
    the newest arrival, and ``max_freq``, the max tf/|I.psi| per word, as a
    tree node holds them (``add_to_aggregates``). ``tree`` is the HIQ
    quadtree of the segment, whose root holds this ``max_freq`` dict as its
    own and copies this ``t_max``, so the tree leaves with its bucket; None
    in a bucket no HIQ index has built a tree for, such as a new bucket
    rebuilt from survivors. ``CorpusStats.add_image`` makes a bucket with
    the segment's first image, before any index adds that image."""

    __slots__ = ("images", "corpus_tf", "total_tf", "t_max", "max_freq", "tree")

    def __init__(self):
        self.images = []
        self.corpus_tf = {}
        self.total_tf = 0
        self.t_max = None
        self.max_freq = {}
        self.tree = None


class CorpusStats:
    """Term statistics over the live (non-expired) image set.

    The images sit in one bucket per window segment, in ``buckets``,
    keyed by ``t_c // segment_span`` like the segments of
    ``engine.Index``, each bucket listing its images in arrival order;
    ``segment_span``, which has no default, must be a whole number of at
    least 1, and anything else raises ``ConfigError``. A bucket keeps
    its images, their corpus tf per word and term total, their newest
    arrival and their exact max frequency ratio per word (``_Bucket``),
    and HIQ hangs the segment's tree on it; ``add_image`` makes a missing
    bucket, and ``engine.Index.insert`` calls it before the index adds
    the image, so HIQ finds the bucket already holding it. Only the total
    term count, ``total_word_count``, is kept over all buckets; a word's
    corpus tf is the sum, and its ``max_freq`` the maximum, over the live
    buckets, of which an index's window holds at most ``window + 1``. So
    a bucket leaves whole, as a basic window does in Datar et al.'s
    sliding-window statistics, by one pop and one subtraction, reading
    none of its images; one that a cutoff cuts, in ``expire``, is dropped
    and rebuilt from its survivors, into a new bucket without a tree,
    unless none of its images is older than the cutoff. Images leave only
    by ``expire``, so nothing here looks an image up by id. ``add_image``
    reads an image's words and ratios from its ``freq`` and its counts
    from its ``tfs``, and keeps the image itself, not a copy of its words.
    Nothing is cached over the statistics: each search reads them once,
    when it builds its ``QueryContext``.
    """

    def __init__(self, segment_span):
        span = _whole(segment_span, "segment_span", ConfigError)
        if span < 1:
            raise ConfigError(f"segment_span must be >= 1, got {segment_span!r}")
        self.total_word_count = 0
        self._span = span
        self.buckets = {}       # t_c // segment_span -> _Bucket

    def add_image(self, img):
        total = img.total_tf
        self.total_word_count += total
        key = img.t_c // self._span
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
        bucket.images.append(img)
        bucket.total_tf += total
        add_to_aggregates(bucket, img.t_c, img.freq)
        ctf = bucket.corpus_tf
        tfs = img.tfs
        i = 0
        for word in img.freq:       # an index into tfs costs less than a zip
            ctf[word] = ctf.get(word, 0) + tfs[i]
            i += 1

    def remove_image(self, img):
        """Refused: raises ``InvalidStateError`` and changes nothing, since
        images leave only by ``expire``. It stays only because perfbench's
        traced run wraps it by name, as it does ``model.mind_visual``,
        until the benchmark drops that swap (ROADMAP item 6)."""
        raise InvalidStateError(f"image {img.id}: images leave only by expire")

    def expire(self, cutoff):
        """Drops the images older than the int ``cutoff`` and returns
        them. A bucket the cutoff splits is rebuilt from its survivors as
        a new bucket, without a tree; one that holds no older image stays
        as it is."""
        span = self._span
        old = []
        for key in [key for key in self.buckets if key * span < cutoff]:
            if (key + 1) * span <= cutoff:
                old.extend(self._drop(key))
                continue
            part = [img for img in self.buckets[key].images if img.t_c < cutoff]
            if part:
                for img in self._drop(key):
                    if img.t_c >= cutoff:
                        self.add_image(img)
                old.extend(part)
        return old

    def _drop(self, key):
        """Drops a whole bucket with its counts; returns its images."""
        bucket = self.buckets.pop(key)
        self.total_word_count -= bucket.total_tf
        return bucket.images

    def corpus_tf(self, word):
        tf = 0
        for bucket in self.buckets.values():
            tf += bucket.corpus_tf.get(word, 0)
        return tf

    def weight_range(self, word, xi):
        """``(floor, max_weight)`` of ``word``: the smoothing floor, its
        weight for an image that does not hold it, and its live maximum
        weight, the floor alone when no live image holds it, from one
        pass over the buckets for its corpus tf and its live maximum
        ratio. A bucket holds a word in ``max_freq`` exactly when
        it counts it in ``corpus_tf``. It is the reference that the
        oracle and the tests read; a ``QueryContext`` makes the same pass
        inline for each of its query words, over one list of the buckets,
        to the same floats."""
        tf = 0
        m = 0.0
        for bucket in self.buckets.values():
            f = bucket.max_freq.get(word)
            if f is not None:
                tf += bucket.corpus_tf[word]
                if f > m:
                    m = f
        floor = xi * (tf / self.total_word_count) if self.total_word_count else 0.0
        return floor, (1.0 - xi) * m + floor


@dataclass
class ScoreParams:
    """The scoring settings of an index over its live statistics
    ``stats``. It holds no query state: a search builds its own
    ``QueryContext(q, params)``."""

    domain: SpatialDomain
    stats: CorpusStats
    xi: float = 0.5
    decay_base: float = 2.0
    time_unit: float = 3600.0

    def __post_init__(self):
        _domain(self.domain)
        for name in ("xi", "decay_base", "time_unit"):
            setattr(self, name, _real(getattr(self, name), name))
        if not 0.0 <= self.xi < 1.0:
            raise ConfigError("xi must be in [0, 1)")
        if self.decay_base <= 1.0:
            raise ConfigError("decay base must be > 1")
        if self.time_unit <= 0.0:
            raise ConfigError("time unit must be positive")


class QueryContext:
    """The scoring constants of one query over one corpus state.

    Visual relevance is 1 - prod(w_v) / gamma_max over the query words v,
    with gamma_max = prod(m_v), m_v the live maximum of w_v, and w_v the
    smoothing floor for an image without v. Words with m_v = 0 (absent
    from the live corpus) are skipped. The log of the ratio is the sum of
    ``log w_v - log floor_v`` over the words an image (or a node) holds,
    plus the constant ``sum(log floor_v) - sum(log m_v)``. When every word
    is held it is ``sum(log w_v) - sum(log m_v)`` in query order, as in
    ``kernels.relevance_cost``, so the best image costs exactly 0.0, and
    so does a map holding every live word at its live maximum, such as
    the ``max_freq`` of a root over every live image, which the search
    therefore gives 0.0 unscored (``engine.top_k_search``).
    ``mind_visual`` scores a word -> ratio map in one pass over the query
    words: a node's ``max_freq``, which gives its lower bound, or an
    image's ``freq``, which gives its cost. ``visual_columns`` scores a
    whole slot table in one numpy pass over the query words' joined
    posting columns. ``score_leaf`` offers the images of a tree leaf that
    hold a query word to the search's running top k, one image at a time,
    nearest first while no threshold is known. Both make each image's sums
    in the order ``mind_visual`` makes them, query order.

    One pass over the query words builds the context. It takes the live
    buckets once, and for each word reads its corpus tf and live maximum
    straight from each bucket's ``corpus_tf`` and ``max_freq``, the
    arithmetic of ``CorpusStats.weight_range`` inline (its floor ``xi *
    (tf / total)`` and weight ``(1 - xi) * m + floor``, bit for bit). It
    takes their logs, adds the log maximum of each live word to
    ``_log_den`` and its log floor to the constant, in query order, and
    keeps its gain (below), which is sorted only when the miss rule is
    on. A context holds only constants of its query over one corpus
    state. A search builds one where it starts and passes it to every
    step that scores (``engine.top_k_search``,
    ``baselines.IfaIndex.search``); nothing caches one, so no context
    outlives the search, and the state, it was built for. ``terms``
    gives one image's three costs from the kernels.

    Lacking many query words forces a cost of exactly 1.0, which all
    three scorers then give without a log, by one rule. Each word ``v``
    an image lacks multiplies its ratio by ``floor_v / m_v``, that is
    e^-g_v with the gain ``g_v = log m_v - log floor_v >= 0``, and each
    word it holds by at most 1, since no live image or node holds a word
    above its live maximum. So anything lacking ``c`` words has a log
    ratio of at most minus the sum of the ``c`` smallest gains.
    ``_misses``, computed once per context, is the fewest misses whose
    smallest gains sum past ``UNDERFLOW``, found by a running sum over
    the sorted gains that stops at the first prefix past it (the
    ``bisect_right`` of ``UNDERFLOW`` in the prefix sums, plus 1): from
    there on the ratio is below e^-39 and the cost rounds to exactly 1.0,
    the value of the full formula. (A ratio map above the live maxima,
    such as an image outside the corpus, is not covered.) When all gains
    together stay within ``UNDERFLOW``, or no sorted prefix passes it, it
    is one more than the ``n`` live query words, and the rule is off.

    ``_misses`` is 1 when a live query word has a floor of 0.0: then the
    first miss of any word decides. At xi = 0 every floor is 0.0, so a
    miss makes the ratio 0. Otherwise ``xi * ctf / |C|`` underflowed, so
    xi is below about 2.5e-324 * |C|; each positive floor is at most xi
    and each ``m_v`` at least ``(1 - xi) / max |I.psi|``. So one miss
    multiplies the ratio by less than ``2.5e-324 * |C| * max |I.psi|``,
    far below e^-39 for any corpus that fits in memory, and the cost
    rounds to 1.0 as the full formula's does. The constant ``_log_const``
    of a map lacking a word is then ``-inf``, which makes its ratio 0.0.

    ``misses_decide`` counts the live query words a map lacks with one
    set difference. A node's ``max_freq`` keys are a subset of its
    parent's, so a node lacks every word its parent lacks: when the count
    decides a parent, it decides each of its children too, and the search
    gives them 1.0 without scoring them. ``visual_bound`` takes the count
    first when ``2 * _misses <= n``, so that it can decide a map that
    still holds half the query, and stops at the ``_misses``-th word it
    finds missing otherwise; either way it returns None for a decided
    map, which ``mind_visual`` reads as 1.0 and the search keeps in the
    node's heap entry. ``score_leaf`` gives 1.0 to an image holding at
    most ``n - _misses`` words, and ``visual_columns`` comes to 1.0 on
    every slot that holds no more. Every other cost keeps its sums, in
    their order, bit for bit.

    Building one checks the query location: ``DomainError`` outside the
    domain.
    """

    __slots__ = ("q", "_scale", "_floors", "_log_den", "_log_const", "_misses", "_live_words",
                 "_count_first", "_delta_max", "_decay_base", "_time_unit")

    def __init__(self, q, params):
        if not params.domain.contains(q.loc[0], q.loc[1]):
            raise DomainError(f"query location {q.loc} outside domain")
        stats = params.stats
        xi = params.xi
        self.q = q
        self._delta_max = params.domain.delta_max
        self._decay_base = params.decay_base
        self._time_unit = params.time_unit
        self._scale = 1.0 - xi
        floors = {}         # word -> (floor, log floor), in query order
        gains = []          # log m_v - log floor_v of each live word
        zero_floor = False
        log_den = 0.0
        log_floors = 0.0
        log = math.log
        total = stats.total_word_count
        buckets = [(b.max_freq.get, b.corpus_tf) for b in stats.buckets.values()]
        for v in q.psi:
            # ``CorpusStats.weight_range(v, xi)``, inline
            tf = 0
            m = 0.0
            for max_freq, corpus_tf in buckets:
                f = max_freq(v)
                if f is not None:
                    tf += corpus_tf[v]
                    if f > m:
                        m = f
            if m <= 0.0:
                continue
            floor = xi * (tf / total)
            m = (1.0 - xi) * m + floor
            log_m = log(m)
            log_den += log_m
            if floor > 0.0:
                lf = log(floor)
                log_floors += lf
            else:
                lf = 0.0
                zero_floor = True
            floors[v] = (floor, lf)
            gains.append(log_m - lf)
        self._floors = floors
        self._log_den = log_den
        self._log_const = log_floors - log_den
        self._misses = len(floors) + 1
        if zero_floor:
            self._misses = 1        # the first miss decides (the class docstring)
            self._log_const = -math.inf
        elif -self._log_const > UNDERFLOW:
            # the gains are >= 0, so their prefix sums, smallest first,
            # ascend: the count stops at the first one past UNDERFLOW
            misses = 1
            prefix = 0.0
            for gain in sorted(gains):
                prefix += gain
                if prefix > UNDERFLOW:
                    break
                misses += 1
            self._misses = misses
        self._live_words = frozenset(floors)
        self._count_first = 2 * self._misses <= len(floors)

    def terms(self, img):
        """``(f_s, f_v, f_t)`` of ``img``: ``kernels.spatial_cost``, the
        context's ``mind_visual`` of ``img.freq`` and
        ``kernels.recency_cost``, called through the module. They are the
        terms of ``combined_score`` when it is given none."""
        q = self.q
        return (kernels.spatial_cost(q.loc[0], q.loc[1], img.lat, img.lon, self._delta_max),
                self.mind_visual(img.freq),
                kernels.recency_cost(q.t - img.t_c, self._decay_base, self._time_unit))

    def misses_decide(self, ratios):
        """Whether the word -> ratio map ``ratios`` lacks at least
        ``_misses`` of the live query words, counted by one set
        difference. Then its visual cost is exactly 1.0 (the class
        docstring), and so is that of every map whose words are a subset
        of its own, such as a child node's ``max_freq``."""
        return len(self._live_words.difference(ratios)) >= self._misses

    def score_leaf(self, leaf, worst, floor=0.0):
        """Offers every image of a tree leaf that holds a query word to
        ``worst``, the search's running top k, a max-heap of ``(-f_stv,
        -id, image, f_s, f_v, f_t)``, and returns the ``(f_stv, image)``
        pairs it admitted, from one pass over ``leaf.images``. An image
        goes in while the heap holds fewer than k, or when it costs less
        than the k-th, ``lam``, or ties it with a smaller id, and then
        replaces the k-th. Afterwards ``worst`` holds the k lowest ``(f_stv, id)`` of
        its entries before the call and the leaf's images.

        ``floor`` is a lower bound on ``w2 * f_v + w3 * f_t`` over the
        leaf's images: the leaf's node bound less its spatial part, or
        0.0, which always holds. It gives the leaf a spatial radius,
        ``(lam + BOUND_TOL - floor) * delta_max / w1``. An image farther
        than that from the query costs more than ``lam``, so the pass
        skips it before it reads the image's words. The margin keeps every
        image that costs ``lam`` exactly, which may still replace the k-th
        if it has a smaller id. ``lam`` is infinite while the heap holds
        fewer than k and falls to its k-th cost as images are admitted, so
        the radius shrinks as the pass goes. When the heap starts below k,
        the images are visited nearest first, so the pass ends at the first
        image outside the radius.

        An image's held query words are ``floors.keys() & freq.keys()``,
        summed in ascending word order, which is query order, as in
        ``mind_visual``. Its visual cost is 1.0 when it holds at most
        ``n - _misses`` of the ``n`` live query words (the class
        docstring; with a zero floor among them, whenever it lacks one),
        else the cost from its sums as ``mind_visual`` takes it. Its
        spatial and temporal costs and ``f_stv`` are
        ``kernels.spatial_cost``, ``recency_cost`` and ``combine``, all
        inline in their operands and order, so each ``f_stv`` equals the
        ``combined_score`` breakdown's bit for bit. Each entry carries
        its image's three terms, from which the search builds the
        results."""
        q = self.q
        w1, w2, w3 = q.weights
        (lat, lon), t, k = q.loc, q.t, q.k
        delta_max, decay_base, time_unit = self._delta_max, self._decay_base, self._time_unit
        nearest_first = len(worst) < k
        lam = math.inf if nearest_first else -worst[0][0]
        r = (lam + BOUND_TOL - floor) * delta_max / w1
        r2 = r * r if r >= 0.0 else -1.0
        images = leaf.images
        if nearest_first:
            images = sorted(images, key=lambda img: (
                (d_lat := lat - img.lat) * d_lat + (d_lon := lon - img.lon) * d_lon))
        floors = self._floors
        query_words = floors.keys()
        n_words = len(floors)
        few = n_words - self._misses    # an image holding at most this many costs 1.0
        scale, log_den, log_const = self._scale, self._log_den, self._log_const
        log, exp, sqrt = math.log, math.exp, math.sqrt
        admitted = []
        for img in images:
            d_lat = lat - img.lat
            d_lon = lon - img.lon
            d2 = d_lat * d_lat + d_lon * d_lon
            if d2 > r2:
                if nearest_first:
                    break
                continue
            freq = img.freq
            held = query_words & freq.keys()
            if not held:
                continue
            n_held = len(held)
            if n_held <= few:
                f_v = 1.0
            else:
                log_num = 0.0
                log_diff = 0.0
                for v in sorted(held):
                    floor_v, lf = floors[v]
                    lw = log(scale * freq[v] + floor_v)
                    log_num += lw
                    log_diff += lw - lf
                ratio = exp(log_num - log_den if n_held == n_words
                            else log_diff + log_const)
                if ratio > 1.0:
                    ratio = 1.0
                f_v = 1.0 - ratio
            age = t - img.t_c
            if age < 0.0:
                age = 0.0
            f_s = sqrt(d2) / delta_max
            f_t = 1.0 - decay_base ** (-(age / time_unit))
            f = w1 * f_s + w2 * f_v + w3 * f_t
            if len(worst) < k:
                heapq.heappush(worst, (-f, -img.id, img, f_s, f_v, f_t))
            elif f < lam or (f == lam and img.id < -worst[0][1]):
                heapq.heapreplace(worst, (-f, -img.id, img, f_s, f_v, f_t))
            else:
                continue
            admitted.append((f, img))
            if len(worst) == k:
                lam = -worst[0][0]
                r = (lam + BOUND_TOL - floor) * delta_max / w1
                r2 = r * r if r >= 0.0 else -1.0
        return admitted

    def visual_columns(self, postings, n, base):
        """Visual relevance of every slot of an ``n``-slot table that holds
        the slots ``base`` to ``base + n - 1``, and the number of query
        words each slot holds, both by column index ``slot - base``.
        ``postings`` maps a word to its ``(slot, tf/|I.psi|)`` columns
        (``array('q')``, ``array('d')``), a slot at most once per word and
        none outside the table.

        One numpy pass, whatever the number of query words: the columns of
        the query words with postings are joined in query order, less the
        base, and ``np.bincount`` adds each slot's terms in that order from
        0.0. So a slot gets the sums of ``mind_visual``, and its cost is
        ``mind_visual`` of its image's ``freq`` up to the rounding of
        numpy's ``log`` and ``exp``. The held counts come first: when
        ``n - _misses``, over the ``n`` live query words, is at least 1, a
        slot holding no more words than that costs exactly 1.0 (the class
        docstring), and if no slot holds more, no log is taken. Otherwise
        the pass runs, and such a slot comes out at exactly 1.0 from its
        sums: its log ratio is below -``UNDERFLOW``, or ``-inf`` when a
        query word has a zero floor, whose ``exp`` is 0.0. The log ratio is
        clamped at 0.0 before the ``exp``, which gives the cost of a ratio
        clamped at 1.0 and cannot overflow. A slot that holds no query
        word, or no live image, gets a meaningless cost; the caller drops
        it."""
        slot_cols, freq_cols, floors, log_floors = [], [], [], []
        for v, (floor, lf) in self._floors.items():
            cols = postings.get(v)
            if cols is None:
                continue
            slot_cols.append(cols[0])
            freq_cols.append(cols[1])
            floors.append(floor)
            log_floors.append(lf)
        slots = np.frombuffer(b"".join(slot_cols), dtype=np.int64) - base
        held = np.bincount(slots, minlength=n)
        few = len(self._floors) - self._misses     # at most this many held cost 1.0
        if few > 0 and held.max(initial=0) <= few:
            return np.ones(n), held
        counts = np.array([len(s) for s in slot_cols], dtype=np.intp)
        lw = np.log(self._scale * np.frombuffer(b"".join(freq_cols))
                    + np.repeat(floors, counts))
        log_num = np.bincount(slots, weights=lw, minlength=n)
        log_diff = np.bincount(slots, weights=lw - np.repeat(log_floors, counts), minlength=n)
        log_ratio = np.where(held == len(self._floors),
                             log_num - self._log_den, log_diff + self._log_const)
        return 1.0 - np.exp(np.minimum(log_ratio, 0.0)), held

    def mind_visual(self, node_max_freq):
        """Lower bound on the visual relevance of any image under a node
        whose per-word max frequency ratios are ``node_max_freq``; given an
        image's ``freq``, the image's own visual relevance. It is
        ``visual_bound`` with its None, the miss rule's decision, read as
        the 1.0 it stands for."""
        f_v = self.visual_bound(node_max_freq)
        return 1.0 if f_v is None else f_v

    def visual_bound(self, node_max_freq):
        """``mind_visual`` of ``node_max_freq``, or None when the map lacks
        at least ``_misses`` of the live query words: then its cost is
        exactly 1.0, and so is that of every map whose words are a subset
        of its own, such as a child node's ``max_freq``. None is exactly
        when ``misses_decide`` is true (no map holds a ratio of 0.0), and
        is found by the count or the walk below, so the search takes the
        decision from the bound it makes anyway.

        When ``2 * _misses <= n``, it first counts the live query words the
        map lacks (``misses_decide``) and is None at once when they reach
        ``_misses``. Otherwise, and on a map the count leaves undecided,
        it walks the query words and is None at once at the ``_misses``-th
        one found missing, the first when a query word has a zero floor.
        Both are exact: anything lacking ``_misses`` words costs exactly
        1.0 by the full formula (the class docstring), and a map the count
        leaves undecided runs the walk it ran without the count. On a
        shorter query the count rarely decides, and the walk's own
        count costs less than a set difference. A 1.0 that comes out of
        the log sums is returned as 1.0, not None: it says nothing of a
        submap."""
        if self._count_first and self.misses_decide(node_max_freq):
            return None
        scale = self._scale
        log = math.log
        log_num = 0.0
        log_diff = 0.0
        misses = self._misses       # the misses left until the cost is 1.0
        for v, (floor, lf) in self._floors.items():
            f = node_max_freq.get(v)
            if f:
                lw = log(scale * f + floor)
                log_num += lw
                log_diff += lw - lf
            else:
                misses -= 1
                if not misses:
                    return None
        if misses == self._misses:  # every word held
            ratio = math.exp(log_num - self._log_den)
        else:
            ratio = math.exp(log_diff + self._log_const)
        if ratio > 1.0:
            ratio = 1.0
        return 1.0 - ratio


class ScoreBreakdown(NamedTuple):
    """The spatial, visual and temporal costs of one image for one query
    and their weighted sum ``f_stv``, as ``combined_score`` gives them. A
    named tuple: immutable, equal by value, and built without a call per
    field."""

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
    if stats.total_word_count == 0:
        raise InvalidStateError("empty corpus")
    return kernels.visual_weight(
        img.freq.get(word, 0.0),
        stats.corpus_tf(word),
        stats.total_word_count,
        params.xi,
    )


def _fresh_context(q, params):
    """A new ``QueryContext`` of ``q``, for a caller outside a search;
    ``InvalidStateError`` over an empty corpus, which no image can be
    scored against."""
    if params.stats.total_word_count == 0:
        raise InvalidStateError("empty corpus")
    return QueryContext(q, params)


def visual_relevance(q, img, params):
    """1 - (product of query-word weights) / gamma_max, clamped to [0, 1].

    gamma_max is the product over query words of the live corpus-wide
    maximum weight, so the best-matching image scores 0. It is the
    ``mind_visual`` of the image's ratios ``img.freq`` under a fresh
    ``QueryContext``; a search reads its own context instead.
    """
    return _fresh_context(q, params).mind_visual(img.freq)


def temporal_recency(q, t_c, params):
    """1 - D^(-age/time_unit); fresh images cost less, age clamps at 0."""
    return kernels.recency_cost(q.t - t_c, params.decay_base, params.time_unit)


def combined_score(q, img, params, terms=None):
    """Full breakdown; the caller enforces the >= 1 common word filter.

    The one breakdown path of every index. ``terms``, when given, is the
    image's ``(f_s, f_v, f_t)`` from the search's own query context: the
    tree search's leaf scorer's, or ``QueryContext.terms`` for IFA's
    results and verify, the kernels' values bit for bit, taken as they
    are. Otherwise they are the ``terms`` of a fresh context, which raises
    ``InvalidStateError`` over an empty corpus, as ``visual_relevance``
    does. ``f_stv`` is ``kernels.combine`` of the three either way.

    Locations are not checked here: the query's is checked when its
    context is built, an image's when an index admits it.
    """
    f_s, f_v, f_t = _fresh_context(q, params).terms(img) if terms is None else terms
    w1, w2, w3 = q.weights
    return ScoreBreakdown(f_s, f_v, f_t, kernels.combine(w1, w2, w3, f_s, f_v, f_t))


def add_to_aggregates(node, t, freq):
    """The one fold of a node's aggregates: ``t_max``, the latest timestamp
    below the node, and ``max_freq``, word -> max tf/|I.psi| below the
    node, take in a timestamp ``t`` and a word -> ratio map ``freq``. An
    image folds in as ``(img.t_c, img.freq)``, a child node as ``(c.t_max,
    c.max_freq)``. ``mind_visual`` reads ``max_freq``. It folds the
    statistics' buckets, the children of a HIQ split and every STVII node;
    a HIQ insert folds the nodes below the root with an early stop per word
    (``hiq.HiqIndex._add``), which is exact because each node's maxima
    nest in its parent's."""
    if node.t_max is None or t > node.t_max:
        node.t_max = t
    mf = node.max_freq
    for word, f in freq.items():
        if f > mf.get(word, 0.0):
            mf[word] = f


def mind_visual(q, node_max_freq, params):
    """Lower bound on visual relevance for any image under a node whose
    per-word max frequency ratios are ``node_max_freq``: the
    ``mind_visual`` of a fresh ``QueryContext``. It stays only for
    perfbench's wrappers of ``hiq.mind_visual`` and
    ``baselines.mind_visual``, until perfbench is brought up to date with
    the package (ROADMAP item 6)."""
    return QueryContext(q, params).mind_visual(node_max_freq)
