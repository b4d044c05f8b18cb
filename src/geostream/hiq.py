"""Hierarchical information quadtree.

Time-partitioned segments, each owning a quadtree whose nodes carry a
rectangle, the max timestamp of the subtree and the per-word max
frequency ratios of the subtree; leaves hold their images in a plain
list. The segments follow the window of ``engine.Index``: a segment
that falls out of it leaves whole, with its tree and its bucket of the
corpus statistics, and a segment a cutoff splits is rebuilt from its
survivors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import kernels
from .engine import ExpiredArrivalError, TreeIndex, walk  # noqa: F401 (re-exported)
from .model import ConfigError, add_to_aggregates, mind_visual


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
        for name in ("segment_span", "window", "capacity", "max_depth"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value != int(value)):
                raise ConfigError(f"{name} must be a whole number, got {value!r}")
            setattr(self, name, int(value))
        if self.segment_span <= 0 or self.window < 1:
            raise ConfigError("segment span must be > 0 and window >= 1")
        if self.capacity < 1 or self.max_depth < 1:
            raise ConfigError("capacity and max_depth must be >= 1")


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


class Segment:
    __slots__ = ("start", "end", "root")

    def __init__(self, start, end, domain):
        self.start = start
        self.end = end
        self.root = _root(domain)


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
    ``segments`` are the window's segments, oldest to newest; a roll pops
    the leaving ones before ``expire``, which then walks no tree."""

    kind = "hiq"

    def __init__(self, config):
        super().__init__(config)
        self.segments = []

    # -- ingestion ---------------------------------------------------

    def _slide(self, start, head_end):
        """Pops the segments before ``start`` and opens those up to
        ``head_end``."""
        segs = self.segments
        while segs and segs[0].start < start:
            segs.pop(0)
        span = self.config.segment_span
        first = segs[-1].end if segs else start
        segs.extend(Segment(s, s + span, self.config.domain)
                    for s in range(first, head_end, span))

    def _drop_older(self, cutoff, n):
        """Rebuilds the tree of each segment that starts before the
        cutoff over its images left."""
        for seg in self.segments:
            if seg.start >= cutoff:
                break
            left = [img for node in walk([seg.root]) if node.children is None
                    for img in node.images if img.t_c >= cutoff]
            seg.root = _root(self.config.domain)
            for img in left:
                self._add(img)

    def _add(self, img):
        cfg = self.config
        # segments are contiguous; locate by start offset
        seg = self.segments[(img.t_c - self.segments[0].start) // cfg.segment_span]
        node = seg.root
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
        return [seg.root for seg in self.segments]

    def mind(self, q, node):
        """Lower bound on f_stv for any image under ``node``."""
        p = self.params
        f_s = kernels.rect_min_cost(
            q.loc[0], q.loc[1],
            node.min_lat, node.min_lon, node.max_lat, node.max_lon,
            p.domain.delta_max,
        )
        f_v = mind_visual(q, node.max_freq, p)
        if node.t_max is None:
            f_t = 1.0
        else:
            f_t = kernels.recency_cost(q.t - node.t_max, p.decay_base, p.time_unit)
        w1, w2, w3 = q.weights
        return kernels.combine(w1, w2, w3, f_s, f_v, f_t)
