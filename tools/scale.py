"""Builds each index kind at growing live counts, each build in a process of
its own, and prints how its ingest cost and its tree grow with the count.

    python tools/scale.py [--kinds K ...] [--counts N ...]

The stream has perfbench's clustered shape (``record_bytes.SHAPES``) and
the seed ``record_bytes.SEED``, and every index uses perfbench's static
configuration, so the whole stream sits in one segment of the window
(``record_bytes.CONFIG``). Each kind and count is built ``REPEATS``
times, in as many rounds; each round starts the kinds in an order
rotated by one from the round before (``schedule``), so no kind always
runs first. Each build is a fresh process, which generates the stream,
collects the heap and inserts every image into a fresh index, timing
each sixth of the inserts on its own (``one_build``), and hands its
figures back as one JSON line. Once every round has run, it prints one
row of the table per kind and count (``row``):

- ``kind``, ``images``: the index kind and the live count it was built to;
- ``us_per_image``, ``us_min``, ``us_max``: the median, least and largest
  of the builds' ingest µs per image, each from a process of its own;
- ``sixths``: the median over the builds of the ingest µs per image over
  each sixth of the build, in order, so that growth with the tree's depth
  shows;
- ``mean_depth``, ``max_depth``: the depth of each image's leaf, the root
  at depth 0, averaged over the images and at its largest; None for IFA,
  which has no tree;
- ``nodes``: the trees' node count; None for IFA.

The depths and node counts are the same in every build, which ``row``
asserts. The table prints None as ``-``.

Times are wall-clock; the depths and node counts do not depend on the
host. It imports the package from the ``src/`` beside it, so it measures
the checkout it sits in. Nothing is gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from record_bytes import CONFIG, SEED, SHAPES  # noqa: E402

from geostream.bench import INDEX_CLASSES  # noqa: E402
from geostream.engine import TreeIndex  # noqa: E402
from geostream.workload import GeneratorConfig, generate_images  # noqa: E402

COUNTS = (30_000, 100_000, 300_000)
PARTS = 6
REPEATS = 3
HEADER = (f"{'kind':6s} {'images':>8s} {'us/img':>7s} {'min':>7s} {'max':>7s} "
          f"{'mean d':>7s} {'max d':>6s} {'nodes':>8s}  us/img per sixth of the build")


def leaf_depths(roots):
    """``(images, depth)`` of each leaf under ``roots`` that holds an image."""
    stack = [(root, 0) for root in roots]
    while stack:
        node, depth = stack.pop()
        if node.children is None:
            if node.images:
                yield len(node.images), depth
        else:
            stack.extend((child, depth + 1) for child in node.children)


def one_build(kind, count):
    """``(µs per image, µs per image of each sixth, shape)`` of one fresh
    ``kind`` index built over the stream of ``count`` images; ``shape`` is
    ``[live count, mean depth, max depth, nodes]``, the last three None
    for IFA."""
    images = generate_images(GeneratorConfig(seed=SEED, image_count=count,
                                             **SHAPES["perfbench clustered"]))
    index = INDEX_CLASSES[kind](CONFIG)
    cuts = [count * i // PARTS for i in range(PARTS + 1)]
    sixths, total_ns = [], 0
    gc.collect()
    for lo, hi in zip(cuts, cuts[1:]):
        t0 = time.perf_counter_ns()
        for img in images[lo:hi]:
            index.insert(img)
        dt = time.perf_counter_ns() - t0
        total_ns += dt
        sixths.append(dt / 1e3 / max(hi - lo, 1))
    shape = [index.image_count(), None, None, None]
    if isinstance(index, TreeIndex):
        leaves = list(leaf_depths(index.roots()))
        shape = [index.image_count(), round(sum(n * d for n, d in leaves) / max(count, 1), 3),
                 max((d for _, d in leaves), default=0), index.node_count()]
    return total_ns / 1e3 / max(count, 1), sixths, shape


def schedule(kinds, counts):
    """The ``(kind, count)`` builds in the order they run: ``REPEATS``
    rounds of every kind and count, each round with the kinds rotated by
    one from the round before."""
    return [(kind, count)
            for r in range(REPEATS)
            for kind in kinds[r % len(kinds):] + kinds[:r % len(kinds)]
            for count in counts]


def row(kind, runs):
    """The row of ``kind`` from its ``one_build`` results ``runs``, all
    over one stream."""
    shapes = {tuple(shape) for _us, _sixths, shape in runs}
    assert len(shapes) == 1, f"{kind}: the builds differ in shape {shapes}"
    us = [run[0] for run in runs]
    live, mean_depth, max_depth, nodes = shapes.pop()
    return {"kind": kind, "images": live, "us_per_image": round(statistics.median(us), 2),
            "us_min": round(min(us), 2), "us_max": round(max(us), 2),
            "sixths": [round(statistics.median(part), 2) for part in zip(*(r[1] for r in runs))],
            "mean_depth": mean_depth, "max_depth": max_depth, "nodes": nodes}


def row_line(row):
    """``row`` as a line of the table under ``HEADER``."""
    mean, top, nodes = ("-" if row[key] is None else str(row[key])
                        for key in ("mean_depth", "max_depth", "nodes"))
    return (f"{row['kind']:6s} {row['images']:8d} {row['us_per_image']:7.2f} "
            f"{row['us_min']:7.2f} {row['us_max']:7.2f} {mean:>7s} {top:>6s} {nodes:>8s}  "
            + " ".join(f"{v:.1f}" for v in row["sixths"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", nargs="+", choices=list(INDEX_CLASSES),
                    default=list(INDEX_CLASSES))
    ap.add_argument("--counts", nargs="+", type=int, default=list(COUNTS),
                    help="live counts, one point each")
    ap.add_argument("--one", nargs=2, metavar=("KIND", "COUNT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        kind, count = args.one
        print(json.dumps(one_build(kind, int(count))))
        return 0
    print(HEADER, flush=True)
    script = str(Path(__file__).resolve())
    runs = {(kind, count): [] for kind in args.kinds for count in args.counts}
    for kind, count in schedule(args.kinds, args.counts):
        out = subprocess.run([sys.executable, script, "--one", kind, str(count)],
                             check=True, capture_output=True, text=True).stdout
        runs[kind, count].append(json.loads(out))
    for (kind, _count), builds in runs.items():
        print(row_line(row(kind, builds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
