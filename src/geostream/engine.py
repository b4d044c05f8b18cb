"""The index contract, best-first top-k search and the brute-force oracle.

``Index`` is what HIQ, IFA and STVII share: the scoring parameters over
the live corpus, admission of an image and the sliding window.

The search works against any index exposing the searchable surface:
``roots()``, ``bounds(q, nodes)``, ``candidates(q, leaf)`` and a
``params`` attribute, with the bound dominance property (a node's bound
<= f_stv of every image under the node). ``bounds`` gives the bound of
each node of a list in one pass: the search asks it once for the roots
and once for the children of each inner node it pops. ``mind(q, node)``
is the one-node reference, ``bounds(q, [node])[0]``, which the
dominance audit and the tests read. A node's ``children`` is a list at
an inner node and ``None`` at a leaf, which holds its ``images`` and
their inverted file ``postings`` (word -> positions in ``images``;
``None`` until the leaf is first scored). ``TreeIndex`` gives the tree
indexes (HIQ, STVII) one ``search``, ``mind``, ``candidates`` and
``node_count``.

``candidates`` scores a leaf term at a time (``QueryContext.score_leaf``)
and returns ``(f_stv, image)`` pairs; the search ranks on them and builds
the ``combined_score`` breakdown of the k results only, as IFA's column
scorer does.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass

from . import kernels
from .model import (
    ConfigError,
    CorpusStats,
    DomainError,
    ScoreBreakdown,
    ScoreParams,
    _real,
    _whole,
    combined_score,
    spatial_proximity,
    temporal_recency,
    visual_weight,
)


_INT64 = range(-2 ** 63, 2 ** 63)


class ExpiredArrivalError(ValueError):
    """An image older than the start of the live window was offered."""


@dataclass(frozen=True)
class ResultEntry:
    image_id: int
    score: object   # ScoreBreakdown


@dataclass
class SearchStats:
    nodes_visited: int = 0
    images_scored: int = 0
    heap_peak: int = 0


def top_k_search(q, index, audit=None):
    """Returns (results, stats): the k lowest-cost images sharing at
    least one query word, ascending (f_stv, id).

    Maintains a min-heap of nodes keyed by their lower bound and a
    threshold equal to the k-th best score found so far; nodes whose
    bound exceeds the threshold are pruned. Candidates are ranked on the
    ``f_stv`` that ``index.candidates`` pairs them with; only the k
    results get a breakdown from ``combined_score``. ``audit``, when a
    list, is filled with the bounds of pruned nodes (for dominance-safety
    tests).
    """
    params = index.params
    params.context(q)       # checks the query location
    k = q.k
    stats = SearchStats()
    order = itertools.count()
    heap = []
    roots = index.roots()
    for root, bound in zip(roots, index.bounds(q, roots)):
        heapq.heappush(heap, (bound, next(order), root))
    stats.heap_peak = len(heap)

    worst = []              # max-heap via (-f_stv, -id, image)
    lam = math.inf          # k-th best f_stv so far
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound > lam:
            if audit is not None:
                audit.append(bound)
                audit.extend(b for b, _, _ in heap)
            break
        stats.nodes_visited += 1
        children = node.children
        if children is None:
            scored = index.candidates(q, node)
            stats.images_scored += len(scored)
            for f, img in scored:
                if len(worst) < k:
                    heapq.heappush(worst, (-f, -img.id, img))
                    if len(worst) == k:
                        lam = -worst[0][0]
                elif f < lam or (f == lam and img.id < -worst[0][1]):
                    heapq.heapreplace(worst, (-f, -img.id, img))
                    lam = -worst[0][0]
        else:
            for child, b in zip(children, index.bounds(q, children)):
                if b <= lam:
                    heapq.heappush(heap, (b, next(order), child))
                elif audit is not None:
                    audit.append(b)
            if len(heap) > stats.heap_peak:
                stats.heap_peak = len(heap)

    results = [ResultEntry(img.id, combined_score(q, img, params)) for _, _, img in worst]
    results.sort(key=lambda e: (e.score.f_stv, e.image_id))
    return results, stats


def walk(roots):
    """Every node under ``roots``, depth first, a parent before its
    children (the last root and the last child first)."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if node.children is not None:
            stack.extend(node.children)


class Index:
    """What every index shares: ``config``, the ``stats`` and ``params``
    of the live corpus, the live images by id, admission and the window.

    The window is a run of ``segment_span``-long segments whose newest
    (head) segment only ``roll_segment`` moves: the first arrival opens
    the segment ``[t // span * span, +span)``, and an arrival at or past
    the end of the head moves the head to the segment that holds it; the
    window starts at ``window_start()``, the later of the first segment's
    start and ``window`` spans before the head's end. As the head moves,
    ``expire`` drops what left the window: a segment wholly before a
    cutoff leaves the stats (``CorpusStats``) at once, and one the cutoff
    splits is rebuilt from its survivors. An arrival older than the window
    start or than a cutoff ``expire`` was given is refused, while
    ``window_start()`` stays on the segment grid. A subclass implements two
    hooks: ``_add(img)`` adds an admitted image, and
    ``_drop_older(cutoff)`` drops the images older than a cutoff, after
    they left the stats and ``_live``.
    """

    def __init__(self, config):
        self.config = config
        self.stats = CorpusStats(config.segment_span)
        self.params = ScoreParams(
            domain=config.domain,
            stats=self.stats,
            xi=config.xi,
            decay_base=config.decay_base,
            time_unit=config.time_unit,
        )
        self._live = {}         # id -> image, in arrival order
        self._start = None      # start of the window
        self._head_end = None   # end of the head segment
        self._cutoff = None     # oldest admissible t_c: the window start or a later cutoff

    def window_start(self):
        """Start of the oldest live segment; None before the first arrival."""
        return self._start

    def insert(self, img):
        """Admits ``img``. A duplicate id, a location outside the domain, an
        id or ``t_c`` outside int64 (``OverflowError``) and an arrival
        older than the window or than an ``expire`` cutoff raise before
        anything changes."""
        cfg = self.config
        if img.id not in _INT64 or img.t_c not in _INT64:
            raise OverflowError(f"image {img.id}: id or t_c outside int64")
        if img.id in self._live:
            raise ValueError(f"duplicate image id {img.id}")
        if not cfg.domain.contains(img.lat, img.lon):
            raise DomainError(f"image {img.id} location outside domain")
        if self._cutoff is not None and img.t_c < self._cutoff:
            raise ExpiredArrivalError(
                f"image {img.id} older than the live window ({img.t_c} < {self._cutoff})"
            )
        if self._head_end is None or img.t_c >= self._head_end:
            self.roll_segment(img.t_c)
        self._add(img)
        self._live[img.id] = img
        self.stats.add_image(img)

    def roll_segment(self, now):
        """Moves the head and drops what leaves the window: the first call
        opens the segment holding ``now``, a ``now`` at or past the head's
        end moves the head to the segment holding it, and an earlier
        ``now`` moves it one span on.

        Returns the number of segments that left the window. A ``now``
        that is not a whole number raises ``ConfigError``, and one outside
        int64 ``OverflowError``, before anything changes."""
        now = _whole(now, "roll_segment now", ConfigError)
        if now not in _INT64:
            raise OverflowError(f"roll_segment now outside int64, got {now}")
        cfg = self.config
        span = cfg.segment_span
        old = self._start
        if old is None:
            old = now // span * span                # an empty window
            head_end = old + span
        elif now >= self._head_end:
            head_end = now // span * span + span
        else:
            head_end = self._head_end + span
        start = max(old, head_end - cfg.window * span)
        if self._cutoff is None:
            self._cutoff = start
        elif start > old:
            self.expire(start)
        self._start, self._head_end = start, head_end
        return (start - old) // span

    def expire(self, cutoff):
        """Drops every live image with t_c < cutoff and returns how many;
        0 at once for a cutoff at or before the window start or an earlier
        cutoff. From then on an arrival older than the cutoff is refused.
        A cutoff that is no finite real number raises ``ConfigError``."""
        if isinstance(cutoff, numbers.Integral) and not isinstance(cutoff, bool):
            cutoff = int(cutoff)        # exact past 2**53, as timestamps are
        else:
            cutoff = _real(cutoff, "expire cutoff")
        if self._cutoff is None or cutoff <= self._cutoff:
            return 0
        self._cutoff = cutoff
        old = self.stats.expire(cutoff)
        for img in old:
            del self._live[img.id]
        if old:
            self._drop_older(cutoff)
        return len(old)

    def live_images(self):
        return list(self._live.values())

    def image_count(self):
        return len(self._live)


class TreeIndex(Index):
    """The search surface shared by the tree indexes. A subclass provides
    ``roots()``, ``bounds(q, nodes)`` and ``params``."""

    def search(self, q):
        return top_k_search(q, self)

    def mind(self, q, node):
        """Lower bound on f_stv for any image under ``node``: the one-node
        reference of ``bounds``."""
        return self.bounds(q, [node])[0]

    def candidates(self, q, leaf):
        """``(f_stv, image)`` for each image in the leaf sharing at least
        one query word (``QueryContext.score_leaf``), in no set order
        (the search's results do not depend on it)."""
        return self.params.context(q).score_leaf(leaf)

    def node_count(self):
        return sum(1 for _ in walk(self.roots()))


def brute_force_oracle(q, images, params):
    """Scores every image with a common word, ascending (f_stv, id),
    truncated to k. Independent of any index structure and of the scorer
    the indexes share (``QueryContext``): each image is scored from the
    definitions, with one ``visual_weight`` per query word over the live
    maxima ``stats.max_weight`` and ``kernels.relevance_cost``."""
    stats, xi = params.stats, params.xi
    maxima = [stats.max_weight(v, xi) for v in q.psi]
    qwords = set(q.psi)
    w1, w2, w3 = q.weights
    entries = []
    for img in images:
        if qwords.isdisjoint(img.word_tf):
            continue
        f_s = spatial_proximity(q, img.loc, params.domain)
        f_v = kernels.relevance_cost([visual_weight(v, img, params) for v in q.psi], maxima)
        f_t = temporal_recency(q, img.t_c, params)
        sb = ScoreBreakdown(f_s, f_v, f_t, kernels.combine(w1, w2, w3, f_s, f_v, f_t))
        entries.append(ResultEntry(img.id, sb))
    entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
    return entries[: q.k]
