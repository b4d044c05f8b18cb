"""Measures the bytes of the image records and of each index, per image, by
walking their objects (``geostream.bench.object_bytes``).

    python tools/record_bytes.py

For two stream shapes of ``COUNT`` = 3,000 images drawn with the seed
``SEED`` = 1, the generator's defaults and perfbench's clustered-read
stream (vocabulary 5,000, 15 mean word draws, 12 clusters of sigma 1.5),
it prints one row:

- ``record``: the bytes of the list ``generate_images`` returns, per
  image: the list, the records and everything they reach, with the int
  of each word id, one per stream, counted once;
- ``hiq``, ``ifa``, ``stvii``: the bytes of a fresh index of that kind
  built over every image of the stream (``estimate_storage``), less those
  of its records, per live image: its trees or columns and postings, its
  ``CorpusStats`` and its ``_live`` map.

Each object is sized by ``sys.getsizeof`` and counted once, so the
figures are CPython's object sizes, which differ between Python versions;
``tests/test_bench.py`` checks the index figure against tracemalloc's.

Every index uses perfbench's static configuration: one segment of the
window holds the whole stream, capacity 100, depth 16. It imports the
package from the ``src/`` beside it, so it measures the checkout it sits
in. The figures are informational; nothing is gated.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geostream.bench import INDEX_CLASSES, estimate_storage, object_bytes  # noqa: E402
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


def measure(cfg):
    """``(words per image, {"record" or kind: bytes per image})`` of the
    stream ``cfg``."""
    images = generate_images(cfg)
    n = len(images)
    records = object_bytes(images)
    out = {"record": object_bytes([images]) / n}
    for kind, cls in INDEX_CLASSES.items():
        index = cls(CONFIG)
        for img in images:
            index.insert(img)
        out[kind] = (estimate_storage(index) - records) / index.image_count()
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
