"""Best-first top-k search and the brute-force oracle.

Works against any index exposing the searchable surface: ``roots()``,
``mind(q, node)``, ``candidates(q, leaf)`` and a ``params`` attribute,
with the bound dominance property (mind <= f_stv of every image under
the node). A node's ``children`` is a list at an inner node and ``None``
at a leaf, which holds its ``images``. ``TreeIndex`` gives the tree
indexes (HIQ, STVII) one ``search``, ``candidates`` and ``node_count``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

from .model import combined_score


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
    bound exceeds the threshold are pruned. ``audit``, when a list, is
    filled with the bounds of pruned nodes (for dominance-safety tests).
    """
    if q.k <= 0:
        raise ValueError("k must be positive")
    k = q.k
    stats = SearchStats()
    order = itertools.count()
    heap = []
    for root in index.roots():
        heapq.heappush(heap, (index.mind(q, root), next(order), root))
    stats.heap_peak = len(heap)

    worst = []              # max-heap via (-f_stv, -id, entry)
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
            for img in index.candidates(q, node):
                sb = combined_score(q, img, index.params)
                stats.images_scored += 1
                if len(worst) < k:
                    heapq.heappush(worst, (-sb.f_stv, -img.id, ResultEntry(img.id, sb)))
                    if len(worst) == k:
                        lam = -worst[0][0]
                elif (sb.f_stv, img.id) < (-worst[0][0], -worst[0][1]):
                    heapq.heapreplace(worst, (-sb.f_stv, -img.id, ResultEntry(img.id, sb)))
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

    results = sorted((t[2] for t in worst), key=lambda e: (e.score.f_stv, e.image_id))
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


_image_id = attrgetter("id")


class TreeIndex:
    """The search surface shared by the tree indexes. A subclass provides
    ``roots()``, ``mind(q, node)`` and ``params``."""

    def search(self, q):
        return top_k_search(q, self)

    def candidates(self, q, leaf):
        """Images in the leaf sharing at least one query word, id order."""
        qwords = set(q.psi)
        return sorted(
            (img for img in leaf.images if not qwords.isdisjoint(img.word_tf)),
            key=_image_id,
        )

    def node_count(self):
        return sum(1 for _ in walk(self.roots()))


def brute_force_oracle(q, images, params):
    """Scores every image with a common word, ascending (f_stv, id),
    truncated to k. Independent of any index structure."""
    qwords = set(q.psi)
    entries = []
    for img in images:
        if qwords.isdisjoint(img.word_tf):
            continue
        sb = combined_score(q, img, params)
        entries.append(ResultEntry(img.id, sb))
    entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
    return entries[: q.k]
