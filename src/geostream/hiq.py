"""Hierarchical information quadtree.

Each time segment that holds an image owns a quadtree whose nodes carry
a rectangle, the max timestamp of the subtree and the per-word max
frequency ratios of the subtree; a leaf holds only a list of its images,
which the search scores one image at a time (``QueryContext.score_leaf``).
Node bounds and leaf candidates come from ``engine.TreeIndex``, which
reads a node's rectangle from its four fields (``_rect``).
A segment's tree opens with its first image and leaves whole, with its
bucket of the corpus statistics, once the window starts after it; a tree
a cutoff splits is rebuilt from its survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import ExpiredArrivalError, TreeIndex, walk  # noqa: F401 (re-exported)
from .model import _counts, add_to_aggregates
from .model import mind_visual  # noqa: F401 (perfbench wraps hiq.mind_visual)


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
        self.max_freq = {}       # word -> max tf/total_tf in subtree

    def quadrant(self, lat, lon):
        # boundary points go to the lowest-indexed containing quadrant
        mid_lat = (self.min_lat + self.max_lat) / 2.0
        mid_lon = (self.min_lon + self.max_lon) / 2.0
        if lat >= mid_lat:
            return 0 if lon <= mid_lon else 1   # NW, NE
        return 2 if lon <= mid_lon else 3       # SW, SE

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
    start: int
    end: int
    root: QuadNode


def _root(domain):
    """An empty quadtree over the whole domain."""
    return QuadNode(domain.min_lat, domain.min_lon, domain.max_lat, domain.max_lon)


def _split(node):
    children = node.make_children()
    for img in node.images:
        child = children[node.quadrant(img.lat, img.lon)]
        add_to_aggregates(child, img)
        child.images.append(img)
    node.children = children
    node.images = []


class HiqIndex(TreeIndex):
    """Live sliding-window index over a stream of geo-temporal images.
    ``_trees`` maps ``t_c // segment_span``, the key of the statistics'
    buckets, to the quadtree of a segment that holds a live image."""

    kind = "hiq"

    def __init__(self, config):
        super().__init__(config)
        self._trees = {}

    @property
    def segments(self):
        """The window's segments, oldest first, each with its tree (an
        empty one where no image arrived)."""
        if self._start is None:
            return []
        span, domain = self.config.segment_span, self.config.domain
        return [Segment(s, s + span, self._trees.get(s // span) or _root(domain))
                for s in range(self._start, self._head_end, span)]

    # -- ingestion ---------------------------------------------------

    def _drop_older(self, cutoff):
        """Pops the tree of each segment that starts before the cutoff and
        adds back the images of the one it splits that are left."""
        span = self.config.segment_span
        for key in [key for key in self._trees if key * span < cutoff]:
            root = self._trees.pop(key)
            if (key + 1) * span > cutoff:
                for img in [img for node in walk([root]) if node.children is None
                            for img in node.images if img.t_c >= cutoff]:
                    self._add(img)

    def _add(self, img):
        cfg = self.config
        key = img.t_c // cfg.segment_span
        node = self._trees.get(key)
        if node is None:
            node = self._trees[key] = _root(cfg.domain)
        depth = 0
        while True:
            add_to_aggregates(node, img)
            if node.children is None:
                node.images.append(img)
                if len(node.images) > cfg.capacity and depth < cfg.max_depth:
                    _split(node)
                return
            node = node.children[node.quadrant(img.lat, img.lon)]
            depth += 1

    # -- search surface (TreeIndex) ------------------------------------

    def roots(self):
        """One tree per segment that holds an image, in no set order."""
        return list(self._trees.values())

    @staticmethod
    def _rect(node):
        return node.min_lat, node.min_lon, node.max_lat, node.max_lon
