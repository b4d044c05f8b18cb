"""Hierarchical information quadtree.

Time-partitioned segments, each owning a quadtree whose nodes carry a
rectangle, the max timestamp of the subtree and the per-word max
frequency ratios of the subtree; leaves hold their images in a plain
list. Expiry drops whole segments once more than ``window`` of them are
live.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import kernels
from .engine import TreeIndex
from .model import (
    ConfigError,
    CorpusStats,
    DomainError,
    ScoreParams,
    add_to_aggregates,
    mind_visual,
)


class ExpiredArrivalError(ValueError):
    """An image older than the oldest live segment was offered."""


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

    @property
    def is_leaf(self):
        return self.children is None

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
    __slots__ = ("start", "end", "root", "images")

    def __init__(self, start, end, domain):
        self.start = start
        self.end = end
        self.root = QuadNode(domain.min_lat, domain.min_lon, domain.max_lat, domain.max_lon)
        self.images = []

    @property
    def image_count(self):
        return len(self.images)


def _split(node):
    children = node.make_children()
    for img in node.images:
        child = children[node.quadrant(img.lat, img.lon)]
        add_to_aggregates(child, img)
        child.images.append(img)
    node.children = children
    node.images = []


class HiqIndex(TreeIndex):
    """Live sliding-window index over a stream of geo-temporal images."""

    kind = "hiq"

    def __init__(self, config):
        self.config = config
        self.segments = []      # oldest -> newest
        self._ids = set()       # ids of live images
        self.stats = CorpusStats()
        self.params = ScoreParams(
            domain=config.domain,
            stats=self.stats,
            xi=config.xi,
            decay_base=config.decay_base,
            time_unit=config.time_unit,
        )

    # -- ingestion ---------------------------------------------------

    def insert(self, img):
        cfg = self.config
        if img.id in self._ids:
            raise ValueError(f"duplicate image id {img.id}")
        if not cfg.domain.contains(img.lat, img.lon):
            raise DomainError(f"image {img.id} location outside domain")
        if not self.segments:
            start = (img.t_c // cfg.segment_span) * cfg.segment_span
            self.segments.append(Segment(start, start + cfg.segment_span, cfg.domain))
        if img.t_c < self.segments[0].start:
            raise ExpiredArrivalError(
                f"image {img.id} older than the live window ({img.t_c} < {self.segments[0].start})"
            )
        head_end = self.segments[-1].end
        if img.t_c >= head_end:
            rolls = (img.t_c - head_end) // cfg.segment_span + 1
            if rolls > cfg.window:
                # a jump past the whole window: skip the empty rolls
                self._restart(head_end + (rolls - cfg.window) * cfg.segment_span)
            else:
                for _ in range(rolls):
                    self.roll_segment(img.t_c)
        seg = self._segment_for(img.t_c)
        self._tree_insert(seg, img)
        seg.images.append(img)
        self._ids.add(img.id)
        self.stats.add_image(img)

    def roll_segment(self, now):
        """Open a fresh head segment and drop segments beyond the window.

        Returns the number of segments expired."""
        cfg = self.config
        if not self.segments:
            start = (int(now) // cfg.segment_span) * cfg.segment_span
            self.segments.append(Segment(start, start + cfg.segment_span, cfg.domain))
            return 0
        prev_end = self.segments[-1].end
        self.segments.append(Segment(prev_end, prev_end + cfg.segment_span, cfg.domain))
        expired = 0
        while len(self.segments) > cfg.window:
            self._expire_oldest()
            expired += 1
        return expired

    def _restart(self, start):
        """Expire every segment and open ``window`` empty ones from
        ``start``: what rolling segment by segment up to them leaves."""
        cfg = self.config
        while self.segments:
            self._expire_oldest()
        span = cfg.segment_span
        self.segments = [
            Segment(start + i * span, start + (i + 1) * span, cfg.domain)
            for i in range(cfg.window)
        ]

    def _expire_oldest(self):
        old = self.segments.pop(0)
        for img in old.images:
            self.stats.remove_image(img)
            self._ids.remove(img.id)

    def _segment_for(self, t_c):
        # segments are contiguous; locate by start offset
        first = self.segments[0].start
        idx = (t_c - first) // self.config.segment_span
        return self.segments[idx]

    def _tree_insert(self, seg, img):
        cfg = self.config
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

    # -- introspection -------------------------------------------------

    def live_images(self):
        for seg in self.segments:
            yield from seg.images

    def image_count(self):
        return sum(len(seg.images) for seg in self.segments)
