"""Hierarchical information quadtree.

Each time segment that holds an image owns a quadtree whose nodes carry
a rectangle, the max timestamp of the subtree and the per-word max
frequency ratios of the subtree; a leaf holds only a list of its images,
which the search scores one image at a time (``QueryContext.score_leaf``).
Node bounds and leaf candidates come from ``engine.TreeIndex``, which
reads a node's rectangle from its four fields (``_rect``).
Each tree hangs on its segment's bucket in the corpus statistics
(``_Bucket.tree``), which already hold the image when HIQ adds it: the
root's ``max_freq`` is the bucket's dict, which ``CorpusStats.add_image``
folds each image into, so each segment holds one copy of its word
maxima, and the root's ``t_max`` is copied from the bucket's.
An insert folds the nodes below the root itself (``HiqIndex._add``): it
descends once, setting each node's ``t_max``, and then climbs each word of
the image from the leaf, writing its ratio into each node until it meets
one that already holds the word at least as high. The climb stops there
exactly, because a node's maxima are never below its child's (the nesting
that ``verify.nesting_violations`` checks): every node above holds the word
at least as high too. ``add_to_aggregates`` folds the children of a split.
A split recurses (``_split``), so a node is inner exactly when it lies
above ``max_depth`` and holds more than ``capacity`` images: a segment's
tree is a function of its images, and a leaf lists its images in arrival
order. A segment's tree opens with its first image and leaves whole with
its bucket; the bucket a cutoff splits, which the statistics rebuild from
its survivors as a new bucket, takes a new tree of them, in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import TreeIndex
from .model import ConfigError, _counts, add_to_aggregates
from .model import mind_visual  # noqa: F401 (perfbench wraps hiq.mind_visual)


# The deepest tree a config may ask for: a split recurses once per level,
# and below 2**-64 of the domain a quadrant no longer separates
# coordinates of the domain's size.
MAX_DEPTH = 64


@dataclass
class HiqConfig:
    domain: object                 # SpatialDomain
    segment_span: int = 3600       # seconds per segment
    window: int = 24               # live segments retained
    capacity: int = 100            # leaf capacity before split
    max_depth: int = 16
    xi: float = 0.5
    decay_base: float = 2.0
    time_unit: float = 3600.0

    def __post_init__(self):
        _counts(self, segment_span=1, window=1, capacity=1, max_depth=1)
        if self.max_depth > MAX_DEPTH:
            raise ConfigError(f"max_depth must be <= {MAX_DEPTH}, got {self.max_depth}")


class QuadNode:
    __slots__ = (
        "min_lat", "min_lon", "max_lat", "max_lon",
        "t_max", "children", "images", "max_freq",
    )

    def __init__(self, min_lat, min_lon, max_lat, max_lon):
        self.min_lat = min_lat
        self.min_lon = min_lon
        self.max_lat = max_lat
        self.max_lon = max_lon
        self.t_max = None
        self.children = None     # inner: list of 4 (NW, NE, SW, SE)
        self.images = []         # leaf only
        self.max_freq = {}       # word -> max tf/|I.psi| in subtree

    def make_children(self):
        mid_lat = (self.min_lat + self.max_lat) / 2.0
        mid_lon = (self.min_lon + self.max_lon) / 2.0
        return [
            QuadNode(mid_lat, self.min_lon, self.max_lat, mid_lon),  # NW
            QuadNode(mid_lat, mid_lon, self.max_lat, self.max_lon),  # NE
            QuadNode(self.min_lat, self.min_lon, mid_lat, mid_lon),  # SW
            QuadNode(self.min_lat, mid_lon, mid_lat, self.max_lon),  # SE
        ]


class Segment(NamedTuple):
    """One span of the window's grid, ``[start, end)``."""

    start: int
    end: int


def _split(node, depth, cfg):
    """Makes the leaf ``node``, at ``depth``, an inner node over its four
    quadrants, each taking its images in arrival order, and splits again
    each child above ``cfg.capacity`` at a depth below ``cfg.max_depth``;
    returns whether it split a child."""
    children = node.make_children()
    nw, ne, sw, se = children
    # the midpoints are NW's lower and right edges; a point on a midpoint
    # goes to the lowest-indexed quadrant that holds it
    mid_lat, mid_lon = nw.min_lat, nw.max_lon
    for img in node.images:
        if img.lat >= mid_lat:
            child = nw if img.lon <= mid_lon else ne
        else:
            child = sw if img.lon <= mid_lon else se
        add_to_aggregates(child, img.t_c, img.freq)
        child.images.append(img)
    node.children = children
    node.images = []
    depth += 1
    split = False
    if depth < cfg.max_depth:
        for child in children:
            if len(child.images) > cfg.capacity:
                _split(child, depth, cfg)
                split = True
    return split


class HiqIndex(TreeIndex):
    """Live sliding-window index over a stream of geo-temporal images: the
    quadtree of each segment that holds a live image hangs on the
    segment's bucket of ``stats``."""

    kind = "hiq"

    @property
    def segments(self):
        """The window's segments, oldest first, whether or not an image
        arrived in them; a segment's tree is its bucket's (``roots``)."""
        if self._start is None:
            return []
        span = self.config.segment_span
        return [Segment(s, s + span) for s in range(self._start, self._head_end, span)]

    # -- ingestion ---------------------------------------------------

    def _drop_older(self, cutoff):
        """A segment wholly before the cutoff left with its bucket and tree;
        the bucket the cutoff split is the one without a tree, which takes
        one of its survivors, in arrival order."""
        for bucket in self.stats.buckets.values():
            if bucket.tree is None:
                self._took("HIQ trees rebuilt after a cutoff")
                for img in bucket.images:
                    self._add(img)

    def _add(self, img):
        cfg = self.config
        t = img.t_c
        bucket = self.stats.buckets[t // cfg.segment_span]
        node = bucket.tree
        if node is None:
            # an empty tree over the domain, whose maxima are its bucket's
            d = cfg.domain
            node = bucket.tree = QuadNode(d.min_lat, d.min_lon, d.max_lat, d.max_lon)
            node.max_freq = bucket.max_freq
        node.t_max = bucket.t_max   # the bucket already holds the image
        depth = 0
        if node.children is not None:
            lat, lon = img.lat, img.lon
            path = []           # the maxima below the root, leaf last
            while node.children is not None:
                # routed by the midpoints, NW's edges, as in _split
                nw, ne, sw, se = node.children
                if lat >= nw.min_lat:
                    node = nw if lon <= nw.max_lon else ne
                else:
                    node = sw if lon <= nw.max_lon else se
                if node.t_max is None or t > node.t_max:
                    node.t_max = t
                path.append(node.max_freq)
            depth = len(path)
            path.reverse()
            # each word climbs from the leaf to the first node that holds it
            # at least as high; every node above that one does too
            for word, f in img.freq.items():
                for mf in path:
                    if f <= mf.get(word, 0.0):
                        break
                    mf[word] = f
        node.images.append(img)
        if len(node.images) > cfg.capacity and depth < cfg.max_depth \
                and _split(node, depth, cfg):
            self._took("multi-level HIQ splits")

    # -- search surface (TreeIndex) ------------------------------------

    def roots(self):
        """One tree per segment that holds an image, in no set order."""
        return [bucket.tree for bucket in self.stats.buckets.values()]

    @staticmethod
    def _rect(node):
        return node.min_lat, node.min_lon, node.max_lat, node.max_lon
