"""The index contract, best-first top-k search and the brute-force oracle.

``Index`` is what HIQ, IFA and STVII share: the scoring parameters over
the live corpus, admission of an image and the sliding window.

The search works against any index exposing the searchable surface:
``roots()``, ``bounds(q, nodes)``, ``candidates(q, leaf, lam, bound)`` and a
``params`` attribute, with the bound dominance property (a node's bound
<= f_stv of every image under the node). ``bounds`` gives the bound of
each node of a list in one pass: the search asks it once for the roots
and once for the children of each inner node it pops. ``mind(q, node)``
is the one-node reference, ``bounds(q, [node])[0]``, which the
dominance audit and the tests read. A node's ``children`` is a list at
an inner node and ``None`` at a leaf, which holds its ``images``.
``TreeIndex`` gives the tree indexes (HIQ, STVII) one ``search``,
``bounds``, ``mind``, ``candidates`` and ``node_count``; a subclass
provides only ``roots()`` and ``_rect(node)``, a node's rectangle.
``bounds`` takes a node's visual part from the query's context
(``QueryContext.mind_visual``).

``candidates`` scores a leaf one image at a time
(``QueryContext.score_leaf``) and returns ``(f_stv, image)`` pairs. The
search passes it λ, the k-th best cost so far, and the leaf's bound.
The bound less its spatial part (``kernels.rect_min_cost`` over the
leaf's rectangle) leaves the leaf a spatial radius, and
the scorer skips the images outside it, which cannot cost λ or less. It
also lowers λ to the k-th best cost among the leaf's own images as it
goes, so it returns only the pairs that can still reach the top k, and
``SearchStats.images_scored`` counts those. The search ranks on the
pairs and builds the ``combined_score`` breakdown of the k results only,
as IFA's column scorer does. The scorer records the spatial, visual and
temporal terms of each pair it returns in the query's context, and
``combined_score`` takes a tree result's breakdown from there instead of
computing it again; the query's word constants come from
``ScoreParams.word_table``, filled once per corpus state.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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


class ResultEntry(NamedTuple):
    """One result of a search: the image's id and its ``combined_score``
    breakdown. A named tuple, like ``ScoreBreakdown``."""

    image_id: int
    score: ScoreBreakdown


@dataclass
class SearchStats:
    """What a search did. ``images_scored`` counts the ``(f_stv, image)``
    pairs the search ranked. ``roots`` counts the trees the tree search
    started from, ``len(index.roots())``, and reads 0 for IFA. In the
    tree search ``nodes_pruned`` counts the nodes whose bound exceeded λ
    (the entries of ``audit``), ``lam`` is the final λ, infinite while
    fewer than k images were found, and ``stop`` says why it ended:
    ``"exhausted"`` when the node heap emptied, ``"bound"`` when a popped
    node's bound exceeded λ. IFA, which scans every candidate, always
    reads ``"exhausted"``."""

    nodes_visited: int = 0
    images_scored: int = 0
    roots: int = 0
    heap_peak: int = 0
    nodes_pruned: int = 0
    lam: float = math.inf
    stop: str = "exhausted"


def top_k_search(q, index, audit=None):
    """Returns (results, stats): the k lowest-cost images sharing at
    least one query word, ascending (f_stv, id).

    Maintains a min-heap of nodes keyed by their lower bound and a
    threshold equal to the k-th best score found so far; nodes whose
    bound exceeds the threshold are pruned. A leaf's candidates are the
    images ``index.candidates(q, leaf, lam, bound)`` gives for the
    current threshold and the leaf's bound, ranked on the ``f_stv`` it
    pairs them with; only the k results get a breakdown from
    ``combined_score``, which reads the terms the leaf scorer recorded for
    them. ``audit``, when a list, is filled with the bounds of pruned
    nodes (for dominance-safety tests). ``stats.stop`` says whether the
    heap emptied or a bound ended the search.
    """
    params = index.params
    params.context(q)       # checks the query location
    k = q.k
    stats = SearchStats()
    order = itertools.count()
    heap = []
    roots = index.roots()
    stats.roots = len(roots)
    for root, bound in zip(roots, index.bounds(q, roots)):
        heapq.heappush(heap, (bound, next(order), root))
    stats.heap_peak = len(heap)

    worst = []              # max-heap via (-f_stv, -id, image)
    lam = math.inf          # k-th best f_stv so far
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound > lam:
            stats.stop = "bound"
            stats.nodes_pruned += 1 + len(heap)
            if audit is not None:
                audit.append(bound)
                audit.extend(b for b, _, _ in heap)
            break
        stats.nodes_visited += 1
        children = node.children
        if children is None:
            scored = index.candidates(q, node, lam, bound)
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
                else:
                    stats.nodes_pruned += 1
                    if audit is not None:
                        audit.append(b)
            if len(heap) > stats.heap_peak:
                stats.heap_peak = len(heap)

    stats.lam = lam
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
    ``roots()`` and ``_rect(node)``, the ``(min_lat, min_lon, max_lat,
    max_lon)`` that ``bounds`` and ``candidates`` measure a node's spatial
    cost from."""

    def search(self, q):
        return top_k_search(q, self)

    def bounds(self, q, nodes):
        """Lower bound on f_stv for any image under each of ``nodes``: the
        arithmetic of ``kernels.rect_min_cost`` over ``_rect(node)``,
        ``recency_cost`` (1.0 for a node with no image) and ``combine``
        inline, in their operands and order, around the query context's
        ``mind_visual``."""
        p = self.params
        mind_visual = p.context(q).mind_visual
        rect = self._rect
        q_lat, q_lon = q.loc
        t = q.t
        w1, w2, w3 = q.weights
        delta_max, decay_base, time_unit = p.domain.delta_max, p.decay_base, p.time_unit
        sqrt = math.sqrt
        out = []
        for node in nodes:
            min_lat, min_lon, max_lat, max_lon = rect(node)
            d_lat = 0.0
            if q_lat < min_lat:
                d_lat = min_lat - q_lat
            elif q_lat > max_lat:
                d_lat = q_lat - max_lat
            d_lon = 0.0
            if q_lon < min_lon:
                d_lon = min_lon - q_lon
            elif q_lon > max_lon:
                d_lon = q_lon - max_lon
            f_v = mind_visual(node.max_freq)
            if node.t_max is None:
                f_t = 1.0
            else:
                age = t - node.t_max
                if age < 0.0:
                    age = 0.0
                f_t = 1.0 - decay_base ** (-(age / time_unit))
            out.append(w1 * (sqrt(d_lat * d_lat + d_lon * d_lon) / delta_max)
                       + w2 * f_v + w3 * f_t)
        return out

    def mind(self, q, node):
        """Lower bound on f_stv for any image under ``node``: the one-node
        reference of ``bounds``."""
        return self.bounds(q, [node])[0]

    def candidates(self, q, leaf, lam=math.inf, bound=0.0):
        """``(f_stv, image)`` for each image in the leaf sharing at least
        one query word and costing at most ``min(lam, c_k)``, where
        ``c_k`` is the k-th lowest such cost in the leaf
        (``QueryContext.score_leaf``), in no set order (the search's
        results do not depend on it).

        ``bound`` is a lower bound on f_stv over the leaf, such as
        ``mind(q, leaf)``; less its spatial part
        (``kernels.rect_min_cost``), it bounds each image's visual and
        recency cost, which sets the scorer's spatial radius. Any valid
        bound gives the same pairs; the default 0.0 gives a looser radius."""
        p = self.params
        floor = bound - q.weights[0] * kernels.rect_min_cost(
            *q.loc, *self._rect(leaf), p.domain.delta_max)
        return p.context(q).score_leaf(leaf, lam, floor)

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
