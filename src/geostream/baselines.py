"""Baseline indexes: inverted file append (IFA) and the 3D R-tree with
node inverted files (STVII).

IFA keeps one timestamp-ordered posting list per word and scores every
candidate at query time (no early termination). STVII boxes images in
(lat, lon, normalized time), splits quadratically on overflow, and
carries the same per-node max-weight inverted files as the quadtree so
it plugs into the shared best-first search.
"""

from __future__ import annotations

import bisect
import math

from . import kernels
from .engine import ResultEntry, SearchStats, top_k_search
from .model import (
    CorpusStats,
    DomainError,
    ScoreParams,
    add_to_aggregates,
    combined_score,
    merge_aggregates,
    mind_visual,
)


class IfaIndex:
    kind = "ifa"

    def __init__(self, config):
        self.config = config
        self.postings = {}     # word -> list of (t_c, id, image), ascending
        self.images = {}       # id -> image
        self.stats = CorpusStats()
        self.params = ScoreParams(
            domain=config.domain,
            stats=self.stats,
            xi=config.xi,
            decay_base=config.decay_base,
            time_unit=config.time_unit,
        )

    def insert(self, img):
        if img.id in self.images:
            raise ValueError(f"duplicate image id {img.id}")
        if not self.config.domain.contains(img.lat, img.lon):
            raise DomainError(f"image {img.id} location outside domain")
        key = (img.t_c, img.id)
        for word, _tf in img.psi:
            lst = self.postings.setdefault(word, [])
            if not lst or (lst[-1][0], lst[-1][1]) <= key:
                lst.append((img.t_c, img.id, img))
            else:
                # late arrival: keep the list timestamp-sorted
                bisect.insort(lst, (img.t_c, img.id, img), key=lambda e: (e[0], e[1]))
        self.images[img.id] = img
        self.stats.add_image(img)

    def search(self, q):
        """Union of the query words' posting lists, all fully scored."""
        stats = SearchStats()
        candidates = {}
        for v in q.psi:
            lst = self.postings.get(v)
            if not lst:
                continue
            stats.nodes_visited += 1
            for _t, iid, img in lst:
                candidates[iid] = img
        entries = []
        for iid in sorted(candidates):
            sb = combined_score(q, candidates[iid], self.params)
            entries.append(ResultEntry(iid, sb))
        stats.images_scored = len(entries)
        entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
        return entries[: q.k], stats

    def expire(self, cutoff):
        """Drop every image with t_c < cutoff; returns the removed count."""
        removed = [img for img in self.images.values() if img.t_c < cutoff]
        for word in list(self.postings):
            lst = self.postings[word]
            i = bisect.bisect_left(lst, cutoff, key=lambda e: e[0])
            if i:
                del lst[:i]
                if not lst:
                    del self.postings[word]
        for img in removed:
            del self.images[img.id]
            self.stats.remove_image(img)
        return len(removed)

    def live_images(self):
        return list(self.images.values())

    def image_count(self):
        return len(self.images)


# ---------------------------------------------------------------------
# STVII: 3D R-tree over (lat, lon, normalized time)
# ---------------------------------------------------------------------

def _box_union(a, b):
    if a is None:
        return list(b)
    return [
        min(a[0], b[0]), min(a[1], b[1]), min(a[2], b[2]),
        max(a[3], b[3]), max(a[4], b[4]), max(a[5], b[5]),
    ]


def _box_volume(b):
    return (b[3] - b[0]) * (b[4] - b[1]) * (b[5] - b[2])


def _enlargement(box, item_box):
    return _box_volume(_box_union(box, item_box)) - _box_volume(box)


class RTree3DNode:
    __slots__ = ("mbr", "children", "entries", "t_max", "max_freq")

    def __init__(self, leaf=True):
        self.mbr = None                      # [x0, y0, t0, x1, y1, t1] normalized
        self.children = None if leaf else []
        self.entries = [] if leaf else None  # leaf: list of (point, image)
        self.t_max = None
        self.max_freq = {}

    @property
    def is_leaf(self):
        return self.children is None


class StviiIndex:
    kind = "stvii"

    def __init__(self, config):
        self.config = config
        self.capacity = config.capacity                  # M
        self.min_fill = max(1, math.ceil(0.4 * config.capacity))
        self.root = RTree3DNode(leaf=True)
        self._ids = set()       # ids of live images
        self.stats = CorpusStats()
        self.params = ScoreParams(
            domain=config.domain,
            stats=self.stats,
            xi=config.xi,
            decay_base=config.decay_base,
            time_unit=config.time_unit,
        )
        self._t_origin = None
        self._t_span = float(config.window * config.segment_span)

    # -- geometry ------------------------------------------------------

    def _point(self, img):
        d = self.config.domain
        x = (img.lat - d.min_lat) / (d.max_lat - d.min_lat)
        y = (img.lon - d.min_lon) / (d.max_lon - d.min_lon)
        t = (img.t_c - self._t_origin) / self._t_span
        return (x, y, t)

    def _denormalize_rect(self, mbr):
        d = self.config.domain
        return (
            d.min_lat + mbr[0] * (d.max_lat - d.min_lat),
            d.min_lon + mbr[1] * (d.max_lon - d.min_lon),
            d.min_lat + mbr[3] * (d.max_lat - d.min_lat),
            d.min_lon + mbr[4] * (d.max_lon - d.min_lon),
        )

    # -- insertion -----------------------------------------------------

    def insert(self, img):
        if img.id in self._ids:
            raise ValueError(f"duplicate image id {img.id}")
        if not self.config.domain.contains(img.lat, img.lon):
            raise DomainError(f"image {img.id} location outside domain")
        if self._t_origin is None:
            self._t_origin = img.t_c
        self._add(img)

    def _add(self, img):
        p = self._point(img)
        ebox = (p[0], p[1], p[2], p[0], p[1], p[2])
        split = self._insert_rec(self.root, img, p, ebox)
        if split is not None:
            self.root = self._build_node(False, list(split))
        self._ids.add(img.id)
        self.stats.add_image(img)

    def _insert_rec(self, node, img, point, ebox):
        node.mbr = _box_union(node.mbr, ebox)
        add_to_aggregates(node, img)
        if node.is_leaf:
            node.entries.append((point, img))
            if len(node.entries) > self.capacity:
                return self._split(node)
            return None
        child = self._choose_subtree(node, ebox)
        split = self._insert_rec(child, img, point, ebox)
        if split is not None:
            node.children.remove(child)
            node.children.extend(split)
            if len(node.children) > self.capacity:
                return self._split(node)
        return None

    def _choose_subtree(self, node, ebox):
        # minimum volume enlargement; ties by smaller volume, then fewer
        # members
        best = None
        best_key = None
        for child in node.children:
            n = len(child.entries) if child.is_leaf else len(child.children)
            key = (_enlargement(child.mbr, ebox), _box_volume(child.mbr), n)
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _split(self, node):
        if node.is_leaf:
            items = node.entries
            boxes = [(p[0], p[1], p[2], p[0], p[1], p[2]) for p, _ in items]
        else:
            items = node.children
            boxes = [c.mbr for c in items]
        g1, g2 = _quadratic_split(boxes, self.min_fill)
        return (
            self._build_node(node.is_leaf, [items[i] for i in g1]),
            self._build_node(node.is_leaf, [items[i] for i in g2]),
        )

    def _build_node(self, leaf, items):
        node = RTree3DNode(leaf=leaf)
        if leaf:
            node.entries = items
            for p, img in items:
                node.mbr = _box_union(node.mbr, (p[0], p[1], p[2], p[0], p[1], p[2]))
                add_to_aggregates(node, img)
        else:
            node.children = items
            for c in items:
                node.mbr = _box_union(node.mbr, c.mbr)
                merge_aggregates(node, c)
        return node

    # -- search surface --------------------------------------------------

    def search(self, q):
        return top_k_search(q, self)

    def roots(self):
        if self.root.is_leaf and not self.root.entries:
            return []
        return [self.root]

    def is_leaf(self, node):
        return node.is_leaf

    def children(self, node):
        return node.children

    def mind(self, q, node):
        p = self.params
        lat0, lon0, lat1, lon1 = self._denormalize_rect(node.mbr)
        f_s = kernels.rect_min_cost(
            q.loc[0], q.loc[1], lat0, lon0, lat1, lon1, p.domain.delta_max
        )
        f_v = mind_visual(q, node.max_freq, p)
        f_t = kernels.recency_cost(q.t - node.t_max, p.decay_base, p.time_unit)
        w1, w2, w3 = q.weights
        return kernels.combine(w1, w2, w3, f_s, f_v, f_t)

    def candidates(self, q, leaf):
        qwords = set(q.psi)
        found = {}
        for _p, img in leaf.entries:
            if not qwords.isdisjoint(img.word_tf):
                found[img.id] = img
        return [found[i] for i in sorted(found)]

    # -- maintenance -------------------------------------------------------

    def expire(self, cutoff):
        """Rebuild without images older than cutoff; returns removed count."""
        live = [img for img in self.live_images() if img.t_c >= cutoff]
        removed = self.image_count() - len(live)
        self.root = RTree3DNode(leaf=True)
        self._ids = set()
        self.stats = CorpusStats()
        self.params.stats = self.stats
        for img in live:
            self._add(img)
        return removed

    def live_images(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(img for _p, img in node.entries)
            else:
                stack.extend(node.children)
        return out

    def image_count(self):
        return len(self._ids)

    def node_count(self):
        n = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            n += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return n


def _quadratic_split(boxes, min_fill):
    """Quadratic PickSeeds/PickNext over 3D boxes; returns two index
    groups, each holding at least ``min_fill`` items."""
    n = len(boxes)
    best_d = None
    seeds = (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            d = _box_volume(_box_union(boxes[i], boxes[j])) \
                - _box_volume(boxes[i]) - _box_volume(boxes[j])
            if best_d is None or d > best_d:
                best_d = d
                seeds = (i, j)
    g1, g2 = [seeds[0]], [seeds[1]]
    mbr1, mbr2 = list(boxes[seeds[0]]), list(boxes[seeds[1]])
    remaining = [i for i in range(n) if i not in seeds]
    while remaining:
        if len(g1) + len(remaining) == min_fill:
            g1.extend(remaining)
            break
        if len(g2) + len(remaining) == min_fill:
            g2.extend(remaining)
            break
        # PickNext: strongest preference first
        best_i = None
        best_pref = -1.0
        for idx, i in enumerate(remaining):
            d1 = _enlargement(mbr1, boxes[i])
            d2 = _enlargement(mbr2, boxes[i])
            pref = abs(d1 - d2)
            if pref > best_pref:
                best_pref = pref
                best_i = idx
                best_pair = (d1, d2)
        i = remaining.pop(best_i)
        d1, d2 = best_pair
        if (d1, _box_volume(mbr1), len(g1)) <= (d2, _box_volume(mbr2), len(g2)):
            g1.append(i)
            mbr1 = _box_union(mbr1, boxes[i])
        else:
            g2.append(i)
            mbr2 = _box_union(mbr2, boxes[i])
    return g1, g2
