"""Baseline indexes: inverted file append (IFA) and the 3D R-tree with
node inverted files (STVII).

IFA keeps one posting list per word over a table of image slots and
scores every candidate at query time (no early termination), as numpy
columns one query word at a time. STVII boxes images in
(lat, lon, normalized time), splits quadratically on overflow, and
carries the same per-node max-weight inverted files as the quadtree so
it plugs into the shared best-first search.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from . import kernels
from .engine import Index, ResultEntry, SearchStats, TreeIndex, walk
from .model import add_to_aggregates, combined_score, merge_aggregates, mind_visual


class IfaIndex(Index):
    """The inverted-file baseline over a slot table: every admitted image
    takes the next slot, with its lat, lon, t_c and id in one column each
    and a flag in ``alive``. ``postings`` maps a word to the ``(slot,
    tf/|I.psi|)`` columns of the images holding it, in slot order.

    Expiry clears the flags of the expired slots. Once at least half the
    slots are dead the table is rebuilt from the live images, so it never
    holds more than twice as many slots as live images. Ids and
    timestamps sit in int64 columns: an image with one past that range
    raises ``OverflowError`` and is not admitted."""

    kind = "ifa"

    def __init__(self, config):
        super().__init__(config)
        self._reset()

    def _reset(self):
        self.lat = array("d")
        self.lon = array("d")
        self.t_c = array("q")
        self.ids = array("q")
        self.alive = bytearray()
        self.postings = {}     # word -> (array('q') slots, array('d') tf/|I.psi|)
        self._dead = 0

    def _add(self, img):
        key = array("q", (img.id, img.t_c))     # checks the int64 range first
        slot = len(self.ids)
        self.ids.append(key[0])
        self.t_c.append(key[1])
        self.lat.append(img.lat)
        self.lon.append(img.lon)
        self.alive.append(1)
        total = img.total_tf
        postings = self.postings
        for word, tf in img.psi:
            cols = postings.get(word)
            if cols is None:
                cols = postings[word] = (array("q"), array("d"))
            cols[0].append(slot)
            cols[1].append(tf / total)

    def search(self, q):
        """Every live image sharing a query word, scored as columns one
        query word at a time (``QueryContext.visual_columns``); the k
        best, by (f_stv, id), get their breakdown from ``combined_score``."""
        p = self.params
        ctx = p.context(q)      # checks the query location
        stats = SearchStats()
        corpus = p.stats.word_corpus_tf
        stats.nodes_visited = sum(1 for v in q.psi if v in corpus)
        f_v, held = ctx.visual_columns(self.postings, len(self.ids))
        rows = np.flatnonzero((held > 0) & np.frombuffer(self.alive, dtype=np.bool_))
        stats.images_scored = len(rows)
        if not len(rows):
            return [], stats
        d_lat = q.loc[0] - np.frombuffer(self.lat)[rows]
        d_lon = q.loc[1] - np.frombuffer(self.lon)[rows]
        f_s = np.sqrt(d_lat * d_lat + d_lon * d_lon) / p.domain.delta_max
        # ages in floats (exact below 2**53), so that no int64 difference wraps
        t_c = np.frombuffer(self.t_c, dtype=np.int64)[rows].astype(np.float64)
        age = np.maximum(q.t - t_c, 0.0)
        f_t = 1.0 - p.decay_base ** (-(age / p.time_unit))
        w1, w2, w3 = q.weights
        f_stv = w1 * f_s + w2 * f_v[rows] + w3 * f_t
        ids = np.frombuffer(self.ids, dtype=np.int64)[rows]
        live = self._live
        entries = [ResultEntry(iid, combined_score(q, live[iid], p))
                   for iid in ids[np.lexsort((ids, f_stv))[: q.k]].tolist()]
        entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
        return entries, stats

    def expire(self, cutoff):
        """Drop every image with t_c < cutoff; returns the removed count."""
        old = self._expired(cutoff)
        if old:
            self._dead += len(old)
            if 2 * self._dead >= len(self.ids):
                live = self._live.values()
                self._reset()
                for img in live:
                    self._add(img)
            else:
                alive = np.frombuffer(self.alive, dtype=np.bool_)
                alive[np.frombuffer(self.t_c, dtype=np.int64) < cutoff] = False
        return len(old)

    def live_posting_count(self):
        """The postings of live slots."""
        alive = np.frombuffer(self.alive, dtype=np.bool_)
        return sum(int(np.count_nonzero(alive[np.frombuffer(slots, dtype=np.int64)]))
                   for slots, _f in self.postings.values())


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
    __slots__ = ("mbr", "children", "images", "t_max", "max_freq")

    def __init__(self, leaf=True):
        self.mbr = None                      # [x0, y0, t0, x1, y1, t1] normalized
        self.children = None if leaf else []
        self.images = [] if leaf else None
        self.t_max = None
        self.max_freq = {}

    @property
    def is_leaf(self):
        return self.children is None


class StviiIndex(TreeIndex):
    kind = "stvii"

    def __init__(self, config):
        super().__init__(config)
        self.capacity = config.capacity                  # M
        self.min_fill = max(1, math.ceil(0.4 * config.capacity))
        self.root = RTree3DNode(leaf=True)
        self._t_origin = None
        self._t_span = float(config.window * config.segment_span)

    # -- geometry ------------------------------------------------------

    def _box(self, img):
        """The image's degenerate box: its normalized point, twice."""
        d = self.config.domain
        x = (img.lat - d.min_lat) / (d.max_lat - d.min_lat)
        y = (img.lon - d.min_lon) / (d.max_lon - d.min_lon)
        t = (img.t_c - self._t_origin) / self._t_span
        return (x, y, t, x, y, t)

    def _denormalize_rect(self, mbr):
        d = self.config.domain
        return (
            d.min_lat + mbr[0] * (d.max_lat - d.min_lat),
            d.min_lon + mbr[1] * (d.max_lon - d.min_lon),
            d.min_lat + mbr[3] * (d.max_lat - d.min_lat),
            d.min_lon + mbr[4] * (d.max_lon - d.min_lon),
        )

    # -- insertion -----------------------------------------------------

    def _add(self, img):
        if self._t_origin is None:
            self._t_origin = img.t_c
        split = self._insert_rec(self.root, img, self._box(img))
        if split is not None:
            self.root = self._build_node(False, list(split), [c.mbr for c in split])

    def _insert_rec(self, node, img, ebox):
        node.mbr = _box_union(node.mbr, ebox)
        add_to_aggregates(node, img)
        if node.children is None:
            node.images.append(img)
            if len(node.images) > self.capacity:
                return self._split(node)
            return None
        child = self._choose_subtree(node, ebox)
        split = self._insert_rec(child, img, ebox)
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
            n = len(child.images if child.children is None else child.children)
            key = (_enlargement(child.mbr, ebox), _box_volume(child.mbr), n)
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _split(self, node):
        leaf = node.children is None
        if leaf:
            items = node.images
            boxes = [self._box(img) for img in items]
        else:
            items = node.children
            boxes = [c.mbr for c in items]
        return tuple(
            self._build_node(leaf, [items[i] for i in g], [boxes[i] for i in g])
            for g in _quadratic_split(boxes, self.min_fill)
        )

    def _build_node(self, leaf, items, boxes):
        """A node over ``items`` (images at a leaf, else child nodes)
        whose boxes are ``boxes``."""
        node = RTree3DNode(leaf=leaf)
        for box in boxes:
            node.mbr = _box_union(node.mbr, box)
        if leaf:
            node.images = items
            for img in items:
                add_to_aggregates(node, img)
        else:
            node.children = items
            for c in items:
                merge_aggregates(node, c)
        return node

    # -- search surface (TreeIndex) ----------------------------------------

    def roots(self):
        return [self.root] if self._live else []

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

    # -- maintenance -------------------------------------------------------

    def expire(self, cutoff):
        """Drops the images older than cutoff and rebuilds the tree from
        the rest; returns the removed count. The tree is left as it is
        when no image is older."""
        old = self._expired(cutoff)
        if old:
            live = [img for node in walk([self.root]) if node.children is None
                    for img in node.images if img.t_c >= cutoff]
            self.root = RTree3DNode(leaf=True)
            for img in live:
                self._add(img)
        return len(old)


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
