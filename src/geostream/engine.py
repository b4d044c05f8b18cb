"""The index contract, best-first top-k search and the brute-force oracle.

``Index`` is what HIQ, IFA and STVII share: the scoring parameters over
the live corpus, admission of an image and the sliding window.

The search works against any index exposing the searchable surface:
``roots()``, ``mind(q, node)``, ``candidates(q, leaf)`` and a ``params``
attribute, with the bound dominance property (mind <= f_stv of every
image under the node). A node's ``children`` is a list at an inner node
and ``None`` at a leaf, which holds its ``images``. ``TreeIndex`` gives
the tree indexes (HIQ, STVII) one ``search``, ``candidates`` and
``node_count``.

A tree search ranks its candidates on ``QueryContext.f_stv`` alone and
builds the ``combined_score`` breakdown of the k results only, as IFA's
column scorer does.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from . import kernels
from .model import (
    ConfigError,
    CorpusStats,
    DomainError,
    ScoreBreakdown,
    ScoreParams,
    _timestamp,
    combined_score,
    spatial_proximity,
    temporal_recency,
    visual_weight,
)


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
    bound exceeds the threshold are pruned. Candidates are ranked on
    ``QueryContext.f_stv`` alone; only the k results get a breakdown from
    ``combined_score``. ``audit``, when a list, is filled with the bounds
    of pruned nodes (for dominance-safety tests).
    """
    params = index.params
    score = params.context(q).f_stv     # checks the query location
    k = q.k
    stats = SearchStats()
    order = itertools.count()
    heap = []
    for root in index.roots():
        heapq.heappush(heap, (index.mind(q, root), next(order), root))
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
            cands = index.candidates(q, node)
            stats.images_scored += len(cands)
            for img in cands:
                f = score(img)
                if len(worst) < k:
                    heapq.heappush(worst, (-f, -img.id, img))
                    if len(worst) == k:
                        lam = -worst[0][0]
                elif f < lam or (f == lam and img.id < -worst[0][1]):
                    heapq.heapreplace(worst, (-f, -img.id, img))
                    lam = -worst[0][0]
        else:
            for child in children:
                b = index.mind(q, child)
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

    The window is a run of ``segment_span``-long segments. The first
    arrival opens the segment ``[t // span * span, +span)``; an arrival
    at or past the end of the head (newest) segment moves the head to the
    segment that holds it; the window starts at ``window_start()``, the
    later of the first segment's start and ``window`` spans before the
    head's end. As the head moves, ``_slide`` lets a subclass pop and open
    segments, then ``expire`` drops what left the window: a segment wholly
    before a cutoff leaves the stats (``CorpusStats``) at once, and one the
    cutoff splits is rebuilt from its survivors. A subclass adds an
    admitted image in ``_add(img)`` and drops the images older than a
    cutoff in ``_drop_older(cutoff, n)``.
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

    def window_start(self):
        """Start of the oldest live segment; None before the first arrival."""
        return self._start

    def insert(self, img):
        cfg = self.config
        if img.id in self._live:
            raise ValueError(f"duplicate image id {img.id}")
        if not cfg.domain.contains(img.lat, img.lon):
            raise DomainError(f"image {img.id} location outside domain")
        if self._head_end is None:
            self._open(img.t_c)
        if img.t_c < self._start:
            raise ExpiredArrivalError(
                f"image {img.id} older than the live window ({img.t_c} < {self._start})"
            )
        if img.t_c >= self._head_end:
            rolls = (img.t_c - self._head_end) // cfg.segment_span + 1
            if rolls > cfg.window:
                # a jump past the whole window: skip the empty rolls
                self._move_head(self._head_end + rolls * cfg.segment_span)
            else:
                for _ in range(rolls):
                    self.roll_segment(img.t_c)
        self._add(img)
        self._live[img.id] = img
        self.stats.add_image(img)

    def roll_segment(self, now):
        """Opens a fresh head segment, one span on (the segment holding
        ``now`` when none is open yet), and drops what leaves the window.

        Returns the number of segments that left the window; a NaN or
        infinite ``now`` raises ``ConfigError``."""
        now = _timestamp(now, "roll_segment now")
        if self._head_end is None:
            self._open(now)
            return 0
        return self._move_head(self._head_end + self.config.segment_span)

    def _open(self, t):
        span = self.config.segment_span
        self._start = self._head_end = t // span * span   # an empty window
        self._move_head(self._start + span)

    def _move_head(self, head_end):
        """Moves the end of the head segment to ``head_end``; returns the
        number of segments that left the window."""
        cfg = self.config
        old = self._start
        start = max(old, head_end - cfg.window * cfg.segment_span)
        self._slide(start, head_end)
        if start > old:
            self.expire(start)
        self._start, self._head_end = start, head_end
        return (start - old) // cfg.segment_span

    def _slide(self, start, head_end):
        """Called as the window is about to become ``[start, head_end)``,
        before the images older than ``start`` are expired."""

    def expire(self, cutoff):
        """Drops every live image with t_c < cutoff and returns how many;
        0 at once for a cutoff at or before the window start. A NaN or
        infinite cutoff raises ``ConfigError``."""
        if isinstance(cutoff, float) and not math.isfinite(cutoff):
            raise ConfigError(f"expire cutoff must be finite, got {cutoff!r}")
        if self._start is None or cutoff <= self._start:
            return 0
        old = self.stats.expire(cutoff)
        for img in old:
            del self._live[img.id]
        if old:
            self._drop_older(cutoff, len(old))
        return len(old)

    def live_images(self):
        return list(self._live.values())

    def image_count(self):
        return len(self._live)


class TreeIndex(Index):
    """The search surface shared by the tree indexes. A subclass provides
    ``roots()``, ``mind(q, node)`` and ``params``."""

    def search(self, q):
        return top_k_search(q, self)

    def candidates(self, q, leaf):
        """Images in the leaf sharing at least one query word, in leaf
        order (the search's results do not depend on it)."""
        qwords = set(q.psi)
        return [img for img in leaf.images if not qwords.isdisjoint(img.word_tf)]

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
