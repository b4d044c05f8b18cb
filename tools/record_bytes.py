"""Measures the bytes of the image records and of each index, per image, by
tracemalloc.

    python tools/record_bytes.py

For two stream shapes of ``COUNT`` = 3,000 images drawn with the seed
``SEED`` = 1, the generator's defaults and perfbench's clustered-read
stream (vocabulary 5,000, 15 mean word draws, 12 clusters of sigma 1.5),
it prints one row:

- ``record``: what ``generate_images`` leaves allocated, per image: the
  records and the list that holds them, with the int of each word id, one
  per stream, counted once;
- ``hiq``, ``ifa``, ``stvii``: what a fresh index of that kind and its
  ``CorpusStats`` allocate over the records while every image of the
  stream is inserted, per live image.

Every index uses perfbench's static configuration: one segment of the
window holds the whole stream, capacity 100, depth 16. It imports the
package from the ``src/`` beside it, so it measures the checkout it sits
in. The figures are informational; nothing is gated.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geostream.bench import INDEX_CLASSES  # noqa: E402
from geostream.hiq import HiqConfig  # noqa: E402
from geostream.workload import DEFAULT_DOMAIN, GeneratorConfig, generate_images  # noqa: E402

COUNT = 3000
SEED = 1
SHAPES = {
    "generator defaults": {},
    "perfbench clustered": dict(vocab_size=5000, mean_words=15.0, zipf_exponent=1.0,
                                rate=500.0, spatial_mode="clusters", cluster_count=12,
                                cluster_sigma=1.5),
}
CONFIG = HiqConfig(domain=DEFAULT_DOMAIN, segment_span=10_000_000, window=24,
                   capacity=100, max_depth=16)


def _held():
    """The bytes tracemalloc sees allocated now, after a full collection."""
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def measure(cfg):
    """``(words per image, {"record" or kind: bytes per image})`` of the
    stream ``cfg``."""
    tracemalloc.start()
    try:
        base = _held()
        images = generate_images(cfg)
        n = len(images)
        out = {"record": (_held() - base) / n}
        for kind, cls in INDEX_CLASSES.items():
            before = _held()
            index = cls(CONFIG)
            for img in images:
                index.insert(img)
            out[kind] = (_held() - before) / index.image_count()
            del index
    finally:
        tracemalloc.stop()
    return sum(len(img.freq) for img in images) / n, out


def main():
    print(f"{'stream':22s} {'words/img':>9s} {'record B':>9s} "
          + " ".join(f"{kind + ' B':>9s}" for kind in INDEX_CLASSES))
    for name, kw in SHAPES.items():
        words, out = measure(GeneratorConfig(seed=SEED, image_count=COUNT, **kw))
        print(f"{name:22s} {words:9.1f} {out['record']:9.0f} "
              + " ".join(f"{out[kind]:9.0f}" for kind in INDEX_CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
