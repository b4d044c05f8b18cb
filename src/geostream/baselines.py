"""Baseline indexes: inverted file append (IFA) and the 3D R-tree with
per-node word maxima (STVII).

IFA keeps one posting list per word over a table of image slots and
scores every candidate at query time (no early termination), as numpy
columns in one pass over the query words' posting lists; a slot is live
while its timestamp is at or after the window's cutoff, slot ids are
never renumbered, and expiry only cuts the table's dead prefix and the
dead heads of its append-only posting lists, once half of the table is
dead. STVII boxes images in raw (lat, lon, t), grows each box on the
insert path in place, makes any other box as the cover of its members'
boxes (``_cover``), and splits quadratically on overflow: each of a
split's two groups keeps per-axis columns of its box's extent with every
box, so a pick recomputes only the axes along which it grew the group,
and one PickNext step serves either group (``_quadratic_split``). It
carries the same per-node word maxima as the quadtree so it plugs into
the shared best-first search and node terms, ``engine.TreeIndex.bounds``,
over its box's lat/lon extent (``_rect``). It expires in place, touching
only the nodes whose box starts before the cutoff: each drops its
expired images or emptied children and folds back only the word maxima
that what it dropped held (``StviiIndex._prune``).

A timestamp is an integer tick, so a box's volume counts its time
extent in ticks, ``t1 - t0 + 1``: a stream puts many images on one
second, and with a raw ``t1 - t0`` every box of same-second images would
have volume 0, so the volume-driven descent and split would see only
ties and cut the tree into time slices spanning the whole domain.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left

import numpy as np

from .engine import Index, ResultEntry, SearchStats, TreeIndex
from .model import ConfigError, QueryContext, add_to_aggregates, combined_score
from .model import mind_visual  # noqa: F401 (perfbench wraps baselines.mind_visual)


class IfaIndex(Index):
    """The inverted-file baseline over a slot table: every admitted image
    takes the next slot id, counted from 0 when the index is made, with
    its lat, lon, t_c and id in one column each. The columns hold the
    slots from ``_base`` on, so slot ``s`` sits at column index
    ``s - _base``. ``postings`` maps a word to the ``(slot, tf/|I.psi|)``
    columns of the images holding it, in arrival order, so its slot ids
    ascend. No slot id is ever renumbered.

    A slot is live exactly when its t_c is at or after the cutoff,
    ``_cutoff``, so expiry writes nothing into the table until it holds at
    least twice as many slots as live images: then it cuts the table's
    dead prefix, the leading slots older than the cutoff, from each column
    and the dead head of each posting list. The table holds the live
    images and the dead slots behind the oldest live one; on in-order
    arrival every dead slot is in the prefix, so after an expiry it holds
    fewer than twice as many slots as live images. Ids and timestamps sit
    in int64 columns, which ``Index.insert`` guarantees."""

    kind = "ifa"

    def __init__(self, config):
        super().__init__(config)
        self.lat = array("d")
        self.lon = array("d")
        self.t_c = array("q")
        self.ids = array("q")
        self._base = 0          # the slot id of the first column entry
        self.postings = {}     # word -> (array('q') slots, array('d') tf/|I.psi|)

    def _add(self, img):
        slot = self._base + len(self.ids)
        self.ids.append(img.id)
        self.t_c.append(img.t_c)
        self.lat.append(img.lat)
        self.lon.append(img.lon)
        postings = self.postings
        for word, f in img.freq.items():
            cols = postings.get(word)
            if cols is None:
                cols = postings[word] = (array("q"), array("d"))
            cols[0].append(slot)
            cols[1].append(f)

    def search(self, q):
        """Every live image sharing a query word, scored as columns in one
        numpy pass (``QueryContext.visual_columns``) over the slots at or
        after the cutoff; the ``t_c`` column is compared with the cutoff
        only while some slot is dead, that is while the table holds more
        slots than live images. Only the rows costing at most the k-th
        smallest f_stv are sorted by (f_stv, id), which keeps every tie at
        the k-th place; the k best get their breakdown from
        ``combined_score`` of their terms from the search's one
        ``QueryContext`` (``QueryContext.terms``)."""
        p = self.params
        ctx = QueryContext(q, p)    # checks the query location
        stats = SearchStats()
        stats.nodes_visited = len(ctx._floors)     # the query words of the live corpus
        f_v, held = ctx.visual_columns(self.postings, len(self.ids), self._base)
        t_c = np.frombuffer(self.t_c, dtype=np.int64)
        rows = held > 0
        if len(self.ids) != len(self._live):    # some slot is dead
            rows &= t_c >= self._cutoff
        rows = np.flatnonzero(rows)
        stats.images_scored = len(rows)
        if not len(rows):
            return [], stats
        d_lat = q.loc[0] - np.frombuffer(self.lat)[rows]
        d_lon = q.loc[1] - np.frombuffer(self.lon)[rows]
        f_s = np.sqrt(d_lat * d_lat + d_lon * d_lon) / p.domain.delta_max
        # ages from the cutoff, an int64 at or before every live slot: the
        # int64 offsets may wrap, but read as uint64 they are exact, and
        # below 2**53 s they do not round as floats
        t0 = self._cutoff
        t_c = (t_c[rows] - t0).view(np.uint64).astype(np.float64)
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
        best = [live[iid] for iid in ids[np.lexsort((ids, f_stv))[:k]].tolist()]
        entries = [ResultEntry(img.id, combined_score(q, img, p, ctx.terms(img))) for img in best]
        entries.sort(key=lambda e: (e.score.f_stv, e.image_id))
        return entries, stats

    def _drop_older(self, cutoff):
        """Once the table holds at least twice as many slots as live
        images, cuts its dead prefix: each column loses it with one
        ``del``, ``_base`` moves past it, and each posting list loses the
        head of slot ids below the new base, found by ``bisect_left``; a
        word left without a posting leaves ``postings``. With no live
        image the whole table is the prefix, and it is emptied at once.
        A dead slot behind the oldest live one stays until the prefix
        before it dies."""
        if len(self.ids) < 2 * len(self._live):
            return
        dead = next((s for s, t in enumerate(self.t_c) if t >= cutoff), len(self.ids))
        if not dead:
            return
        self._took("IFA trims")
        for col in (self.lat, self.lon, self.t_c, self.ids):
            del col[:dead]
        self._base = base = self._base + dead
        if not self._live:
            self.postings = {}
        emptied = []
        for word, (slots, freqs) in self.postings.items():
            if slots[0] < base:
                cut = bisect_left(slots, base)
                if cut == len(slots):
                    emptied.append(word)
                else:
                    del slots[:cut], freqs[:cut]
        for word in emptied:
            del self.postings[word]


# ---------------------------------------------------------------------
# STVII: 3D R-tree over (lat, lon, t)
# ---------------------------------------------------------------------

def _box(img):
    """The image's degenerate box: its point (lat, lon, t_c), twice."""
    return (img.lat, img.lon, img.t_c, img.lat, img.lon, img.t_c)


def _cover(boxes):
    """The least box holding every box of the non-empty iterable
    ``boxes``, a new list: per axis, the least low edge and the greatest
    high edge."""
    lat0, lon0, t0, lat1, lon1, t1 = zip(*boxes)
    return [min(lat0), min(lon0), min(t0), max(lat1), max(lon1), max(t1)]


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
    """STVII over the 3D R-tree of ``RTree3DNode``: ``config.capacity`` is
    its M, the most images of a leaf and children of an inner node. A
    split makes two nodes, so M below 2 raises ``ConfigError``: at M = 1
    every split would add a level."""

    kind = "stvii"

    def __init__(self, config):
        if config.capacity < 2:
            raise ConfigError(f"stvii capacity must be >= 2, got {config.capacity}")
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
        m = node.mbr
        if m is None:
            node.mbr = list(ebox)
        else:
            # the box grows in place; an edge the point only meets stays,
            # as in ``_cover``
            lat, lon, t = ebox[0], ebox[1], ebox[2]
            if lat < m[0]:
                m[0] = lat
            elif lat > m[3]:
                m[3] = lat
            if lon < m[1]:
                m[1] = lon
            elif lon > m[4]:
                m[4] = lon
            if t < m[2]:
                m[2] = t
            elif t > m[5]:
                m[5] = t
        add_to_aggregates(node, img.t_c, img.freq)
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
        grows inline, in the arithmetic of ``_cover`` and
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
            self._took("STVII inner splits")
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
            node.mbr = _cover(map(_box, items))
            for img in items:
                add_to_aggregates(node, img.t_c, img.freq)
        else:
            node.children = items
            node.mbr = _cover(c.mbr for c in items)
            for c in items:
                add_to_aggregates(node, c.t_max, c.max_freq)
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
        """Drops the images older than the cutoff from the tree in place
        (``_prune``), or opens an empty root when none is left."""
        if self.root.t_max < cutoff:
            self.root = RTree3DNode(leaf=True)
        else:
            self._prune(self.root, cutoff)

    def _prune(self, node, cutoff):
        """Drops from ``node``, which holds an image at or after ``cutoff``,
        every image older than it, in place, as Guttman's condense of a
        deletion path: a leaf drops its expired images and an inner node
        the children left empty, the rest recursing; underfull nodes stay
        as they are and nothing is reinserted. A node whose box starts at
        or after the cutoff is left alone.

        The node ends exactly as a rebuild over what it keeps would leave
        it. Its newest image survives, so ``t_max`` and the box's ``t1``
        hold. A word of ``max_freq`` is taken out and folded back from
        the members kept only where a member dropped, or a child's fallen
        maximum, held the node's maximum of it. A leaf's box is remade as
        the cover of its survivors (``_cover``) only when an expired image
        lay on a lat/lon edge, and else only its ``t0`` moves; an inner box
        is the cover of its kept children's. Returns
        ``{word: old maximum}`` of the words whose maximum fell or left."""
        box = node.mbr
        if box[2] >= cutoff:
            return {}
        mf = node.max_freq
        if node.children is None:
            kept, gone = [], []
            for img in node.images:
                (kept if img.t_c >= cutoff else gone).append(img)
            node.images = kept
            lost = {word for img in gone for word, f in img.freq.items() if mf[word] == f}
            if any(img.lat == box[0] or img.lat == box[3] or img.lon == box[1]
                   or img.lon == box[4] for img in gone):
                node.mbr = _cover(map(_box, kept))
            else:
                box[2] = min(img.t_c for img in kept)
            members = [img.freq for img in kept]
        else:
            kept, lost = [], set()
            for child in node.children:
                if child.t_max < cutoff:
                    fallen = child.max_freq         # every word of an emptied child
                else:
                    kept.append(child)
                    fallen = self._prune(child, cutoff)
                lost.update(word for word, f in fallen.items() if mf[word] == f)
            if len(kept) < len(node.children):
                self._took("STVII prunes that emptied a node")
            node.children = kept
            node.mbr = _cover(c.mbr for c in kept)
            members = [c.max_freq for c in kept]
        if not lost:
            return {}
        old = {word: mf.pop(word) for word in lost}
        # the smaller side is scanned: an image's few words at a leaf, the
        # lost words against a child's many (``keys() &`` walks ``lost``)
        leaf = node.children is None
        for freq in members:
            for word in (lost.intersection(freq) if leaf else freq.keys() & lost):
                f = freq[word]
                if f > mf.get(word, 0.0):
                    mf[word] = f
        return {word: f for word, f in old.items() if mf.get(word) != f}


def _quadratic_split(boxes, min_fill):
    """Quadratic PickSeeds/PickNext over 3D boxes; returns two index
    groups, each holding at least ``min_fill`` items.

    Each step scores every box at once over per-axis numpy columns, with
    the same arithmetic and tie-breaks as a box-at-a-time loop: t columns
    of ints stay int64, so their extents are exact before the product.
    Each group, side 0 or 1, keeps its members, its box as scalars, for
    each axis the extent of its box's union with every box
    (``_extents``), its box's volume and the column of its enlargement to
    take each box, their product less that volume, in the order of
    ``_box_volume``; one PickNext step serves either side. A pick that
    grows a group's box remakes only the extents of the axes it grew."""
    n = len(boxes)
    lo = [np.array([b[k] for b in boxes]) for k in range(3)]
    hi = [np.array([b[k] for b in boxes]) for k in range(3, 6)]
    vol = _box_volume(lo + hi)
    # PickSeeds: the pair wasting most volume, the first in (i, j) order
    waste = _box_volume([np.minimum.outer(l, l) for l in lo]
                        + [np.maximum.outer(h, h) for h in hi]) - vol[:, None] - vol[None, :]
    waste[np.tri(n, dtype=bool)] = -np.inf
    s0, s1 = divmod(int(np.argmax(waste)), n)
    groups = g0, g1 = [s0], [s1]
    # each group's box, grown in place: a copy, never a member's own list
    mbrs = [list(boxes[s0]), list(boxes[s1])]
    vols = [_box_volume(m) for m in mbrs]
    exts = [[_extents(m, lo, hi, a) for a in range(3)] for m in mbrs]
    grows = [e[0] * e[1] * e[2] - v for e, v in zip(exts, vols)]
    taken = np.zeros(n, dtype=bool)
    taken[[s0, s1]] = True
    # PickNext's preference of each free box, -1 once taken; remade only
    # when a group's box grows. A box is compared, not its enlargement:
    # a zero-volume box can grow by 0
    pref = np.abs(grows[0] - grows[1])
    pref[taken] = -1.0
    left = n - 2
    while left:
        # the smaller group, side 0 on a tie, is the first that can need
        # every box left to reach ``min_fill``
        small = groups[len(g1) < len(g0)]
        if len(small) + left == min_fill:
            small.extend(np.flatnonzero(~taken).tolist())
            break
        # PickNext: strongest preference first, the first such box in
        # index order, to the side it enlarges least; ties by smaller
        # volume, then fewer members, then side 0
        i = int(pref.argmax())
        taken[i] = True
        pref[i] = -1.0
        left -= 1
        side = 0 if (grows[0][i], vols[0], len(g0)) <= (grows[1][i], vols[1], len(g1)) else 1
        groups[side].append(i)
        if _grow(mbrs[side], exts[side], boxes[i], lo, hi):
            vols[side] = _box_volume(mbrs[side])
            grows[side] = exts[side][0] * exts[side][1] * exts[side][2] - vols[side]
            pref = np.abs(grows[0] - grows[1])
            pref[taken] = -1.0
    return groups


def _extents(mbr, lo, hi, a):
    """The extent along axis ``a`` of the union of ``mbr`` with each box
    of the columns, counting ticks on t (axis 2) as ``_box_volume`` does."""
    e = np.maximum(hi[a], mbr[a + 3]) - np.minimum(lo[a], mbr[a])
    return e + 1 if a == 2 else e


def _grow(mbr, ext, box, lo, hi):
    """Grows the group box ``mbr`` in place to take ``box`` and remakes the
    extent columns ``ext`` of each axis it grew along; returns whether it
    grew."""
    grew = False
    for a in range(3):
        low, high = box[a] < mbr[a], box[a + 3] > mbr[a + 3]
        if low or high:
            if low:
                mbr[a] = box[a]
            if high:
                mbr[a + 3] = box[a + 3]
            ext[a] = _extents(mbr, lo, hi, a)
            grew = True
    return grew
