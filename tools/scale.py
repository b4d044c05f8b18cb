"""Builds each index kind at growing live counts, each build in a process of
its own, and prints how its ingest cost and its tree grow with the count.

    python tools/scale.py [--kinds K ...] [--counts N ...]

The stream has perfbench's clustered shape (``record_bytes.SHAPES``) and
the seed ``record_bytes.py`` uses by default, and
every index uses perfbench's static configuration, so the whole stream
sits in one segment of the window (``record_bytes.CONFIG``). For each kind
and count, a fresh process generates the stream, collects the heap and
inserts every image, timing each sixth of the inserts on its own, and
prints its row of the table. One row per build (``build``):

- ``kind``, ``images``: the index kind and the live count it was built to;
- ``us_per_image``: the build's ingest µs per image;
- ``sixths``: ingest µs per image over each sixth of the build, in order,
  so that growth with the tree's depth shows;
- ``mean_depth``, ``max_depth``: the depth of each image's leaf, the root
  at depth 0, averaged over the images and at its largest; None for IFA,
  which has no tree;
- ``nodes``: the trees' node count; None for IFA.

The table prints None as ``-``.

Times are wall-clock and one build each; the depths and node counts do
not depend on the host. It imports the package from the ``src/`` beside
it, so it measures the checkout it sits in. Nothing is gated.
"""

from __future__ import annotations

import argparse
import gc
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from record_bytes import CONFIG, SHAPES  # noqa: E402

from geostream.bench import INDEX_CLASSES  # noqa: E402
from geostream.engine import TreeIndex  # noqa: E402
from geostream.workload import GeneratorConfig, generate_images  # noqa: E402

COUNTS = (30_000, 100_000, 300_000)
PARTS = 6
SEED = 1
HEADER = (f"{'kind':6s} {'images':>8s} {'us/img':>7s} {'mean d':>7s} {'max d':>6s} "
          f"{'nodes':>8s}  us/img per sixth of the build")


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


def build(kind, count):
    """The row of one build of ``kind`` over ``count`` images."""
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
        sixths.append(round(dt / 1e3 / max(hi - lo, 1), 2))
    row = {"kind": kind, "images": index.image_count(),
           "us_per_image": round(total_ns / 1e3 / max(count, 1), 2), "sixths": sixths,
           "mean_depth": None, "max_depth": None, "nodes": None}
    if isinstance(index, TreeIndex):
        leaves = list(leaf_depths(index.roots()))
        row.update(mean_depth=round(sum(n * d for n, d in leaves) / max(count, 1), 3),
                   max_depth=max((d for _, d in leaves), default=0),
                   nodes=index.node_count())
    return row


def row_line(row):
    """``row`` as a line of the table under ``HEADER``."""
    mean, top, nodes = ("-" if row[key] is None else str(row[key])
                        for key in ("mean_depth", "max_depth", "nodes"))
    return (f"{row['kind']:6s} {row['images']:8d} {row['us_per_image']:7.2f} "
            f"{mean:>7s} {top:>6s} {nodes:>8s}  " + " ".join(f"{v:.1f}" for v in row["sixths"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kinds", nargs="+", choices=list(INDEX_CLASSES),
                    default=list(INDEX_CLASSES))
    ap.add_argument("--counts", nargs="+", type=int, default=list(COUNTS),
                    help="live counts, one build each")
    ap.add_argument("--one", nargs=2, metavar=("KIND", "COUNT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        kind, count = args.one
        print(row_line(build(kind, int(count))), flush=True)
        return 0
    print(HEADER, flush=True)
    script = str(Path(__file__).resolve())
    for kind in args.kinds:
        for count in args.counts:
            subprocess.run([sys.executable, script, "--one", kind, str(count)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
