"""Baseline indexes: inverted file append (IFA) and the 3D R-tree with
per-node word maxima (STVII).

IFA keeps one posting list per word over a table of image slots and
scores every candidate at query time (no early termination), as numpy
columns in one pass over the query words' posting lists. STVII boxes
images in raw (lat, lon, t), splits quadratically on overflow, expires
by pruning only the subtrees older than the cutoff, and carries the same
per-node word maxima as the quadtree so it plugs into the shared
best-first search and node bound, ``engine.TreeIndex.bounds``, over its
box's lat/lon extent (``_rect``).

A timestamp is an integer tick, so a box's volume counts its time
extent in ticks, ``t1 - t0 + 1``: a stream puts many images on one
second, and with a raw ``t1 - t0`` every box of same-second images would
have volume 0, so the volume-driven descent and split would see only
ties and cut the tree into time slices spanning the whole domain.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .engine import Index, ResultEntry, SearchStats, TreeIndex
from .model import add_to_aggregates, combined_score, merge_aggregates
from .model import mind_visual  # noqa: F401 (perfbench wraps baselines.mind_visual)


class IfaIndex(Index):
    """The inverted-file baseline over a slot table: every admitted image
    takes the next slot, with its lat, lon, t_c and id in one column each
    and a flag in ``alive``. ``postings`` maps a word to the ``(slot,
    tf/|I.psi|)`` columns of the images holding it, in slot order.

    Expiry clears the flags of the expired slots. Once the table holds at
    least twice as many slots as live images, the columns and posting
    lists are compacted to the live slots, so after an expiry it holds
    fewer than twice as many. Ids and timestamps sit in int64 columns, which
    ``Index.insert`` guarantees."""

    kind = "ifa"

    def __init__(self, config):
        super().__init__(config)
        self.lat = array("d")
        self.lon = array("d")
        self.t_c = array("q")
        self.ids = array("q")
        self.alive = bytearray()
        self.postings = {}     # word -> (array('q') slots, array('d') tf/|I.psi|)

    def _add(self, img):
        slot = len(self.ids)
        self.ids.append(img.id)
        self.t_c.append(img.t_c)
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
        """Every live image sharing a query word, scored as columns in one
        numpy pass (``QueryContext.visual_columns``). Only the rows costing
        at most the k-th smallest f_stv are sorted by (f_stv, id), which
        keeps every tie at the k-th place; the k best get their breakdown
        from ``combined_score``."""
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
        # ages from the window start: live slots are at or after it, so the
        # int64 offsets neither wrap nor, below 2**53 s, round as floats
        t0 = self.window_start()
        t_c = (np.frombuffer(self.t_c, dtype=np.int64)[rows] - t0).astype(np.float64)
        age = np.maximum((q.t - t0) - t_c, 0.0)
        f_t = 1.0 - p.decay_base ** (-(age / p.time_unit))
        w1, w2, w3 = q.weights
        f_stv = w1 * f_s + w2 * f_v[rows] + w3 * f_t
        k = q.k
        if len(rows) > k:
            keep = f_stv <= np.partition(f_stv, k - 1)[k - 1]
            rows, f_stv = rows[keep], f_stv[keep]
        ids = np.frombuffer(self.ids, dtype=np.int64)[rows]
        live = self._live
        entries = [ResultEntry(iid, combined_score(q, live[iid], p))
                   for iid in ids[np.lexsort((ids, f_stv))[:k]].tolist()]
        entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
        return entries, stats

    def _drop_older(self, cutoff):
        # t_c < cutoff as ints: against a float, numpy would round the
        # int64 timestamps past 2**53
        alive = np.frombuffer(self.alive, dtype=np.bool_)
        alive[np.frombuffer(self.t_c, dtype=np.int64) < math.ceil(cutoff)] = False
        if len(self.ids) >= 2 * len(self._live):
            self._compact(alive)

    def _compact(self, keep):
        """Drops the slots outside the mask ``keep``. The rest keep their
        order and are renumbered from 0 (a prefix sum of the mask) in
        every column and posting list; a word left without a posting
        leaves ``postings``."""
        self.lat = array("d", np.frombuffer(self.lat)[keep].tobytes())
        self.lon = array("d", np.frombuffer(self.lon)[keep].tobytes())
        self.t_c = array("q", np.frombuffer(self.t_c, dtype=np.int64)[keep].tobytes())
        self.ids = array("q", np.frombuffer(self.ids, dtype=np.int64)[keep].tobytes())
        self.alive = bytearray(b"\x01") * len(self.ids)
        # every posting list as one pair of columns, word after word: one
        # mask and one renumbering for all, then a cut at each word's end
        # (``ends``, in bytes)
        cols = list(self.postings.values())
        slots = np.frombuffer(b"".join([s for s, _f in cols]), dtype=np.int64)
        kept = keep[slots]
        ends = 8 * np.cumsum(kept)[np.cumsum([len(s) for s, _f in cols], dtype=np.intp) - 1]
        slots = (np.cumsum(keep) - 1)[slots[kept]].astype(np.int64).tobytes()
        freqs = np.frombuffer(b"".join([f for _s, f in cols]))[kept].tobytes()
        postings = {}
        start = 0
        for word, end in zip(self.postings, ends.tolist()):
            if end > start:
                postings[word] = (array("q", slots[start:end]), array("d", freqs[start:end]))
                start = end
        self.postings = postings


# ---------------------------------------------------------------------
# STVII: 3D R-tree over (lat, lon, t)
# ---------------------------------------------------------------------

def _box(img):
    """The image's degenerate box: its point (lat, lon, t_c), twice."""
    return (img.lat, img.lon, img.t_c, img.lat, img.lon, img.t_c)


def _box_union(a, b):
    if a is None:
        return list(b)
    return [
        min(a[0], b[0]), min(a[1], b[1]), min(a[2], b[2]),
        max(a[3], b[3]), max(a[4], b[4]), max(a[5], b[5]),
    ]


def _box_volume(b):
    """Lat/lon area times the time extent in ticks, ``t1 - t0 + 1``: a
    box within one timestamp measures its area, a point box 0. ``b`` is
    one box or six numpy columns of boxes, measured elementwise."""
    return (b[3] - b[0]) * (b[4] - b[1]) * (b[5] - b[2] + 1)


class RTree3DNode:
    """A node of STVII's 3D R-tree: its box ``mbr`` in (lat, lon, t), the
    ``t_max`` and per-word max frequency ratios ``max_freq`` of its
    subtree, and its ``children`` (inner) or ``images`` (leaf). A leaf
    keeps no inverted file; the search scores its images one at a time."""

    __slots__ = ("mbr", "children", "images", "t_max", "max_freq")

    def __init__(self, leaf=True):
        self.mbr = None                      # [lat0, lon0, t0, lat1, lon1, t1], t exact ints
        self.children = None if leaf else []
        self.images = [] if leaf else None
        self.t_max = None
        self.max_freq = {}


class StviiIndex(TreeIndex):
    kind = "stvii"

    def __init__(self, config):
        super().__init__(config)
        self.capacity = config.capacity                  # M
        self.min_fill = max(1, math.ceil(0.4 * config.capacity))
        self.root = RTree3DNode(leaf=True)

    # -- insertion -----------------------------------------------------

    def _add(self, img):
        split = self._insert_rec(self.root, img, _box(img))
        if split is not None:
            self.root = self._build_node(False, list(split))

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
        """The child whose box grows least in volume to take the point
        ``ebox``; ties by smaller volume, then fewer members. Each box
        grows inline, in the arithmetic of ``_box_union`` and
        ``_box_volume``, and the key is built only for a child that can
        win."""
        lat, lon, t = ebox[0], ebox[1], ebox[2]
        best = best_key = None
        best_grow = math.inf
        for child in node.children:
            m = child.mbr
            vol = (m[3] - m[0]) * (m[4] - m[1]) * (m[5] - m[2] + 1)
            grow = ((lat if lat > m[3] else m[3]) - (lat if lat < m[0] else m[0])) \
                * ((lon if lon > m[4] else m[4]) - (lon if lon < m[1] else m[1])) \
                * ((t if t > m[5] else m[5]) - (t if t < m[2] else m[2]) + 1) - vol
            if grow <= best_grow:
                key = (grow, vol, len(child.images if child.children is None else child.children))
                if best_key is None or key < best_key:
                    best, best_key, best_grow = child, key, grow
        return best

    def _split(self, node):
        leaf = node.children is None
        if leaf:
            items = node.images
            boxes = [_box(img) for img in items]
        else:
            items = node.children
            boxes = [c.mbr for c in items]
        return tuple(
            self._build_node(leaf, [items[i] for i in g])
            for g in _quadratic_split(boxes, self.min_fill)
        )

    def _build_node(self, leaf, items):
        """A node over ``items`` (images at a leaf, else child nodes),
        with exact box and aggregates."""
        node = RTree3DNode(leaf=leaf)
        if leaf:
            node.images = items
            lat = [img.lat for img in items]
            lon = [img.lon for img in items]
            t = [img.t_c for img in items]
            node.mbr = [min(lat), min(lon), min(t), max(lat), max(lon), max(t)]
            for img in items:
                add_to_aggregates(node, img)
        else:
            node.children = items
            for c in items:
                node.mbr = _box_union(node.mbr, c.mbr)
                merge_aggregates(node, c)
        return node

    # -- search surface (TreeIndex) ----------------------------------------

    def roots(self):
        return [self.root] if self._live else []

    @staticmethod
    def _rect(node):
        m = node.mbr
        return m[0], m[1], m[3], m[4]

    # -- maintenance -------------------------------------------------------

    def _drop_older(self, cutoff):
        """Rebuilds only the nodes holding an image older than the cutoff
        (``_prune``)."""
        self.root = self._prune(self.root, cutoff) or RTree3DNode(leaf=True)

    def _prune(self, node, cutoff):
        """``node`` without its images older than ``cutoff``: the node
        itself when none is, else a node rebuilt over the images or
        pruned children left, or None when nothing is left. Underfull
        nodes stay as they are; nothing is reinserted."""
        if node.mbr[2] >= cutoff:
            return node
        leaf = node.children is None
        if leaf:
            items = [img for img in node.images if img.t_c >= cutoff]
        else:
            items = [c for c in (self._prune(c, cutoff) for c in node.children)
                     if c is not None]
        return self._build_node(leaf, items) if items else None


def _quadratic_split(boxes, min_fill):
    """Quadratic PickSeeds/PickNext over 3D boxes; returns two index
    groups, each holding at least ``min_fill`` items.

    Each step scores every box at once over per-axis numpy columns, with
    the same arithmetic and tie-breaks as a box-at-a-time loop: t columns
    of ints stay int64, so their extents are exact before the product."""
    n = len(boxes)
    lo = [np.array([b[k] for b in boxes]) for k in range(3)]
    hi = [np.array([b[k] for b in boxes]) for k in range(3, 6)]
    vol = _box_volume(lo + hi)
    # PickSeeds: the pair wasting most volume, the first in (i, j) order
    waste = _box_volume([np.minimum.outer(l, l) for l in lo]
                        + [np.maximum.outer(h, h) for h in hi]) - vol[:, None] - vol[None, :]
    waste[np.tril_indices(n)] = -np.inf
    s1, s2 = divmod(int(np.argmax(waste)), n)
    g1, g2 = [s1], [s2]
    mbr1, mbr2 = list(boxes[s1]), list(boxes[s2])
    vol1, vol2 = _box_volume(mbr1), _box_volume(mbr2)
    d1, d2 = _enlargements(mbr1, lo, hi), _enlargements(mbr2, lo, hi)
    free = np.ones(n, dtype=bool)
    free[[s1, s2]] = False
    # PickNext's preference of each free box, -1 once taken; remade only
    # when a group's box grows. A box is compared, not its enlargement:
    # a zero-volume box can grow by 0
    pref = np.where(free, np.abs(d1 - d2), -1.0)
    left = n - 2
    while left:
        if len(g1) + left == min_fill:
            g1.extend(np.flatnonzero(free).tolist())
            break
        if len(g2) + left == min_fill:
            g2.extend(np.flatnonzero(free).tolist())
            break
        # PickNext: strongest preference first, the first such box in
        # index order
        i = int(np.argmax(pref))
        free[i] = False
        pref[i] = -1.0
        left -= 1
        if (d1[i], vol1, len(g1)) <= (d2[i], vol2, len(g2)):
            g1.append(i)
            grown = _box_union(mbr1, boxes[i])
            if grown == mbr1:
                continue
            mbr1, vol1 = grown, _box_volume(grown)
            d1 = _enlargements(mbr1, lo, hi)
        else:
            g2.append(i)
            grown = _box_union(mbr2, boxes[i])
            if grown == mbr2:
                continue
            mbr2, vol2 = grown, _box_volume(grown)
            d2 = _enlargements(mbr2, lo, hi)
        pref = np.where(free, np.abs(d1 - d2), -1.0)
    return g1, g2


def _enlargements(mbr, lo, hi):
    """How much ``mbr`` grows in volume to take each box of the columns."""
    union = [np.minimum(l, mbr[k]) for k, l in enumerate(lo)] \
        + [np.maximum(h, mbr[k + 3]) for k, h in enumerate(hi)]
    return _box_volume(union) - _box_volume(mbr)
