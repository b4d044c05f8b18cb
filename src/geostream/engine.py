"""The index contract, best-first top-k search and the brute-force oracle.

``Index`` is what HIQ, IFA and STVII share: the scoring parameters over
the live corpus, admission of an image and the sliding window.

The search works against any index exposing the searchable surface:
``roots()``, ``bounds(q, nodes)``, ``candidates(ctx, leaf, worst, floor)``
and a ``params`` attribute, with the bound dominance property (a node's
bound <= f_stv of every image under the node) and nested aggregates (a
child's ``t_max`` and each word of its ``max_freq`` at most its
parent's; the search's inherited visual bounds rest on the latter).
``bounds`` gives each node's weighted spatial and recency terms,
``(spatial, recency)``, in one pass over a list; the visual term, the
query context's ``visual_bound`` of the node's ``max_freq``, belongs to
the search, which keeps in each node's heap entry whether the miss
count decided it. ``mind(ctx, node)``, ``spatial + w2 * mind_visual +
recency``, is a node's exact bound, the one-node reference that the
dominance audit and the tests read. A lone root, when ``roots()`` gives
exactly one node, must hold every live image of ``params.stats``: its
per-word maxima are then the live maxima, and the search gives it the
visual bound 0.0 without a ``visual_bound`` (``top_k_search``). A node's
``children`` is a list at an inner node and ``None`` at a leaf, which
holds its ``images``.
``TreeIndex`` gives the tree indexes (HIQ, STVII) one ``search``,
``bounds``, ``mind``, ``candidates`` and ``node_count``; a subclass
provides only ``roots()`` and ``_rect(node)``, a node's rectangle.

The search builds one ``QueryContext`` of its query where it starts and
passes it to every step that scores: ``candidates`` and ``mind`` take it
in place of the query, and nothing caches it between searches.
``candidates`` scores a leaf one image at a time
(``QueryContext.score_leaf``) straight into the search's one running top
k, ``worst``, whose k-th cost is λ, and returns the ``(f_stv, image)``
pairs it admitted; ``SearchStats.images_scored`` counts those. The search
also passes the leaf's floor, its exact bound less its spatial term. The
floor leaves the leaf a spatial radius, and the scorer skips the images
outside it, which cannot cost λ or less; the radius shrinks as λ falls.
Each entry of ``worst`` carries its image's spatial, visual and
temporal terms, and the search builds the ``combined_score`` breakdown
of the k results only, from those terms, as IFA's column scorer builds
only its k; no result's terms are computed again.
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
    QueryContext,
    ScoreBreakdown,
    ScoreParams,
    _INT64,
    _real,
    _whole,
    combined_score,
    spatial_proximity,
    temporal_recency,
)


class ExpiredArrivalError(ValueError):
    """An image older than the start of the live window was offered."""


class ResultEntry(NamedTuple):
    """One result of a search: the image's id and its ``combined_score``
    breakdown. A named tuple, like ``ScoreBreakdown``."""

    image_id: int
    score: ScoreBreakdown


@dataclass
class SearchStats:
    """What a search did. ``images_scored`` counts the images admitted to
    the tree search's running top k, one that a later image pushed out
    included; IFA counts every image it ranked. ``roots`` counts the
    trees the tree search started from, ``len(index.roots())``, and reads
    0 for IFA. ``nodes_visited`` counts the nodes the tree search
    visited, and for IFA the query words of the live corpus. In the
    tree search ``nodes_pruned`` counts the nodes whose bound exceeded λ,
    when they were pushed or when the search stopped (the entries of
    ``audit``), ``bounds_evaluated`` counts the visual node bounds it
    computed (``visual_bound`` of a node's ``max_freq``, one for each
    root and each child of an inner node visited; 0 for IFA), which
    leaves out a lone root, whose 0.0 the search gives it, and each
    child that inherits the 1.0 the miss count decided for its parent,
    ``lam`` is the final λ, infinite while fewer than k images were
    found, and
    ``stop`` says why it ended: ``"exhausted"`` when it visited every
    root and every child whose bound was at most λ when its parent was
    visited, ``"bound"`` when λ fell below the bound of such a node
    before the search reached it. IFA, which scans every candidate,
    always reads ``"exhausted"``."""

    nodes_visited: int = 0
    images_scored: int = 0
    roots: int = 0
    heap_peak: int = 0
    nodes_pruned: int = 0
    bounds_evaluated: int = 0
    lam: float = math.inf
    stop: str = "exhausted"


def top_k_search(q, index, audit=None):
    """Returns (results, stats): the k lowest-cost images sharing at
    least one query word, ascending (f_stv, id).

    Maintains a min-heap of nodes keyed by their exact bound and a
    threshold λ equal to the k-th best score found so far. The roots and
    the children of each inner node visited are bounded when they are
    pushed, at one push site: their spatial and recency terms from
    ``index.bounds(q, nodes)`` and their visual bound, the query
    context's ``visual_bound`` of their ``max_freq``, which is None when
    the miss count decided it (then the bound takes 1.0). A node whose
    bound exceeds λ is pruned at once instead. A lone root, when
    ``index.roots()`` gives one node, takes the visual bound 0.0 with no
    ``visual_bound``, and ``bounds_evaluated`` does not count it. That is
    exact: the root holds every live image (the module docstring), so
    each word of its ``max_freq`` is the word's live maximum, and
    ``mind_visual`` would sum, in query order, the very floats whose sum
    is the context's ``log_den``: its ratio is 1.0 and its cost 0.0. The
    children of a parent whose visual bound the miss count decided
    inherit that 1.0 with no ``visual_bound``: a child's ``max_freq``
    keys are a subset of its parent's, so it lacks the words its parent
    lacks, and its own visual bound is exactly 1.0 as well. A 1.0 that
    came out of the log sums does not carry over to the children.

    A heap entry is ``(bound, push order, node, visual, spatial)``:
    ``visual`` is the node's visual bound, or None when the miss count
    decided it, at its own bound or at an ancestor's, and ``spatial`` is
    its weighted spatial term. A popped inner node hands its children
    the decision its entry keeps, so the search counts a node's missing
    words at most once, when it bounds the node, and never when it pops
    one. Nodes are visited in ascending (bound, push order) until the
    heap is empty or its top exceeds λ.

    The search builds the query's one ``QueryContext``, which checks the
    query location, and ``index.candidates(ctx, leaf, worst, floor)``
    offers a leaf's images to ``worst``, the running top k, under the
    leaf's floor, its bound less the spatial term its heap entry
    carries; λ is read back from ``worst``. Its entries, ``(-f_stv, -id,
    image, f_s, f_v, f_t)``, are the results: in ascending (f_stv, id),
    each gets its breakdown from ``combined_score`` of the terms it
    carries. ``audit``, when a list, is filled with the bound of each
    pruned node (for dominance-safety tests). ``stats.stop`` says
    whether λ ended the search early.
    """
    params = index.params
    ctx = QueryContext(q, params)   # checks the query location
    visual_bound = ctx.visual_bound
    w2 = q.weights[1]
    k = q.k
    stats = SearchStats()
    order = itertools.count()
    heap = []               # (bound, push order, node, visual bound or None, spatial term)
    worst = []              # max-heap via (-f_stv, -id, image, f_s, f_v, f_t)
    lam = math.inf          # k-th best f_stv so far
    nodes = index.roots()   # to push: the roots, then the children of each inner node visited
    stats.roots = len(nodes)
    # whether ``nodes`` are bounded by ``visual_bound``; if not, they take
    # ``given``: a lone root's 0.0, then None, the 1.0 a parent's miss
    # count decided
    bounded = len(nodes) != 1
    given = 0.0
    while True:
        if nodes:
            if bounded:
                stats.bounds_evaluated += len(nodes)
            for child, (spatial, recency) in zip(nodes, index.bounds(q, nodes)):
                f_v = visual_bound(child.max_freq) if bounded else given
                bound = spatial + w2 * (1.0 if f_v is None else f_v) + recency
                if bound <= lam:
                    heapq.heappush(heap, (bound, next(order), child, f_v, spatial))
                else:
                    stats.nodes_pruned += 1
                    if audit is not None:
                        audit.append(bound)
            if len(heap) > stats.heap_peak:
                stats.heap_peak = len(heap)
        if not heap or heap[0][0] > lam:
            break
        bound, _, node, f_v, spatial = heapq.heappop(heap)
        stats.nodes_visited += 1
        nodes = node.children
        if nodes is None:
            stats.images_scored += len(index.candidates(ctx, node, worst, bound - spatial))
            if len(worst) == k:
                lam = -worst[0][0]
        else:
            bounded = f_v is not None
            given = None

    if heap:
        stats.stop = "bound"
        stats.nodes_pruned += len(heap)
        if audit is not None:
            audit.extend(e[0] for e in heap)
    stats.lam = lam
    results = [ResultEntry(img.id, combined_score(q, img, params, terms))
               for _, _, img, *terms in sorted(worst, reverse=True)]
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
    (head) segment only ``roll_segment`` moves, always to the segment
    that holds the time it is given, never past it: the first arrival
    opens the segment ``[t // span * span, +span)``, and an arrival at or
    past the end of the head moves the head to the segment that holds it;
    the window starts at ``window_start()``, the later of the first segment's
    start and ``window`` spans before the head's end. As the head moves,
    ``expire`` drops what left the window: a segment wholly before a
    cutoff leaves the stats (``CorpusStats``) at once, and one the cutoff
    splits is rebuilt from its survivors. An arrival older than the window
    start or than a cutoff ``expire`` was given is refused, while
    ``window_start()`` stays on the segment grid. A subclass implements two
    hooks: ``_add(img)`` adds an admitted image, which the stats
    (``CorpusStats.add_image``) already hold, and
    ``_drop_older(cutoff)`` drops the images older than a cutoff, an
    int, after they left the stats and ``_live`` and ``_cutoff`` became
    that cutoff. ``paths`` counts, by name, how often the index took each
    of its structural paths (a split, trim or rebuild), each counted
    where it is taken (``_took``).
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
        # oldest admissible t_c, an int: int64's least, then the window
        # start or a later cutoff
        self._cutoff = _INT64.start
        self.paths = {}

    def _took(self, path):
        """Counts one more taking of the structural path named ``path``."""
        self.paths[path] = self.paths.get(path, 0) + 1

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
        if img.t_c < self._cutoff:
            raise ExpiredArrivalError(
                f"image {img.id} older than the live window ({img.t_c} < {self._cutoff})"
            )
        if self._head_end is None or img.t_c >= self._head_end:
            self.roll_segment(img.t_c)
        self.stats.add_image(img)
        self._add(img)
        self._live[img.id] = img

    def roll_segment(self, now):
        """Moves the head to the segment that holds ``now`` and drops what
        leaves the window; the first call opens the window there. A
        ``now`` before the head's end changes nothing.

        Returns the number of segments that left the window. A ``now``
        that is not a whole number raises ``ConfigError``, and one outside
        int64 ``OverflowError``, before anything changes."""
        now = _whole(now, "roll_segment now", ConfigError)
        if now not in _INT64:
            raise OverflowError(f"roll_segment now outside int64, got {now}")
        cfg = self.config
        span = cfg.segment_span
        head_end = now // span * span + span
        old = self._start
        if old is None:
            old = head_end - span                   # an empty window
            # an ``expire`` before the first arrival may have set a later cutoff
            self._cutoff = max(old, self._cutoff)
        elif head_end <= self._head_end:
            return 0
        start = max(old, head_end - cfg.window * span)
        if start > old:
            self.expire(start)
        self._start, self._head_end = start, head_end
        return (start - old) // span

    def expire(self, cutoff):
        """Drops every live image with t_c < cutoff and returns how many;
        0 at once for a cutoff at or before the window start or an earlier
        cutoff. From then on an arrival older than the cutoff is refused,
        also when it is given before the first arrival. A cutoff that is
        no finite real number raises ``ConfigError``.

        The cutoff is kept as the int ``ceil(cutoff)``, which leaves the
        same timestamps older, so the stats and every ``_drop_older``
        compare exact ints; an integral cutoff stays exact past 2**53."""
        integral = isinstance(cutoff, numbers.Integral) and not isinstance(cutoff, bool)
        cutoff = int(cutoff) if integral else math.ceil(_real(cutoff, "expire cutoff"))
        if cutoff <= self._cutoff:
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
    max_lon)`` that ``bounds`` measures a node's spatial cost from."""

    def search(self, q):
        return top_k_search(q, self)

    def bounds(self, q, nodes):
        """The weighted spatial and recency terms ``(spatial, recency)`` of
        each of ``nodes``, in one pass: the arithmetic of
        ``kernels.rect_min_cost`` over ``_rect(node)`` and of
        ``recency_cost`` (1.0 for a node with no image), inline in their
        operands and order, times ``w1`` and ``w3``. With a visual bound
        ``f_v`` at most the node's own, ``spatial + w2 * f_v + recency``
        is a lower bound on f_stv for any image under the node, in the
        operands and order of ``kernels.combine``. The search adds the
        visual bound itself, as ``mind`` does for one node."""
        p = self.params
        rect = self._rect
        q_lat, q_lon = q.loc
        t = q.t
        w1, _, w3 = q.weights
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
            if node.t_max is None:
                f_t = 1.0
            else:
                age = t - node.t_max
                if age < 0.0:
                    age = 0.0
                f_t = 1.0 - decay_base ** (-(age / time_unit))
            out.append((w1 * (sqrt(d_lat * d_lat + d_lon * d_lon) / delta_max), w3 * f_t))
        return out

    def mind(self, ctx, node):
        """Lower bound on f_stv for any image under ``node``, the exact
        bound the search visits a node under: ``spatial + w2 *
        mind_visual(node.max_freq) + recency``, with the terms of
        ``bounds`` and the ``mind_visual`` of ``ctx``, the query's
        ``QueryContext``."""
        q = ctx.q
        [(spatial, recency)] = self.bounds(q, [node])
        return spatial + q.weights[1] * ctx.mind_visual(node.max_freq) + recency

    def candidates(self, ctx, leaf, worst, floor=0.0):
        """Offers each image in the leaf sharing at least one query word to
        ``worst``, the search's running top k, a max-heap of ``(-f_stv,
        -id, image, f_s, f_v, f_t)``, and returns the ``(f_stv, image)``
        pairs it admitted: ``ctx.score_leaf``, of the query's
        ``QueryContext``.

        ``floor`` is a lower bound on each image's visual and recency cost,
        which sets the scorer's spatial radius; the search passes the
        leaf's exact bound less its spatial term. Any valid floor leaves
        the same heap; the default 0.0 gives a looser radius."""
        return ctx.score_leaf(leaf, worst, floor)

    def node_count(self):
        return sum(1 for _ in walk(self.roots()))


def brute_force_oracle(q, images, params):
    """Scores every image with a common word, ascending (f_stv, id),
    truncated to k. Independent of any index structure and of the scorer
    the indexes share (``QueryContext``): each image is scored from the
    definitions. Each query word's corpus tf (``stats.corpus_tf``) and live
    maximum weight (``stats.weight_range``) are read once; each image's
    weight of each query word is ``kernels.visual_weight`` of its ratio,
    and its visual cost ``kernels.relevance_cost`` of those weights over
    the maxima."""
    stats, xi = params.stats, params.xi
    total = stats.total_word_count
    corpus_tfs = [(v, stats.corpus_tf(v)) for v in q.psi]
    maxima = [stats.weight_range(v, xi)[1] for v in q.psi]
    qwords = set(q.psi)
    w1, w2, w3 = q.weights
    entries = []
    for img in images:
        if qwords.isdisjoint(img.freq):
            continue
        f_s = spatial_proximity(q, img.loc, params.domain)
        freq = img.freq
        f_v = kernels.relevance_cost(
            [kernels.visual_weight(freq.get(v, 0.0), tf, total, xi) for v, tf in corpus_tfs],
            maxima)
        f_t = temporal_recency(q, img.t_c, params)
        sb = ScoreBreakdown(f_s, f_v, f_t, kernels.combine(w1, w2, w3, f_s, f_v, f_t))
        entries.append(ResultEntry(img.id, sb))
    entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
    return entries[: q.k]
