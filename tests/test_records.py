"""The image record's layout: ``psi`` is derived from ``freq`` and ``tfs``,
word ids and ratios are shared, and every value a reader sees is what the
record with a stored ``psi`` gave."""

import math
import random
import struct
from unittest import mock

import pytest

from geostream import verify, workload
from geostream.engine import brute_force_oracle
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import ConfigError, GeoTemporalImage, InvalidStateError, _real, _whole
from geostream.verify import random_images, random_query, results_match, stats_violations
from geostream.workload import GeneratorConfig, generate_images, parse_dataset, write_dataset


class StoredPsiImage:
    """The record as it was built when ``psi`` was a slot: the pairs kept as
    a tuple of tuples, and ``freq`` divided from them. Kept here as the
    reference of the twin tests."""

    __slots__ = ("id", "lat", "lon", "t_c", "psi", "freq", "total_tf")

    def __init__(self, id, lat, lon, t_c, psi):
        pairs = []
        prev = -1
        total = 0
        for pair in psi:
            w, tf = pair
            if type(w) is not int or type(tf) is not int or type(pair) is not tuple:
                w = _whole(w, f"image {id}: word id", ValueError)
                tf = _whole(tf, f"image {id}: tf", ValueError)
                pair = (w, tf)
            if w <= prev:
                raise ValueError(f"image {id}: words not strictly ascending")
            if tf <= 0 or w < 0:
                raise ValueError(f"image {id}: invalid posting ({w}, {tf})")
            prev = w
            total += tf
            pairs.append(pair)
        if not pairs:
            raise ValueError(f"image {id}: empty visual word vector")
        psi = tuple(pairs)
        self.id = id if type(id) is int else _whole(id, "image id", ValueError)
        self.lat = lat if type(lat) is float and math.isfinite(lat) else _real(lat, f"image {id}: lat")
        self.lon = lon if type(lon) is float and math.isfinite(lon) else _real(lon, f"image {id}: lon")
        self.t_c = t_c if type(t_c) is int else _whole(t_c, f"image {id}: t_c", ConfigError)
        self.psi = psi
        self.freq = {w: tf / total for w, tf in psi}
        self.total_tf = total

    def __eq__(self, other):
        return (
            isinstance(other, StoredPsiImage)
            and self.id == other.id
            and self.lat == other.lat
            and self.lon == other.lon
            and self.t_c == other.t_c
            and self.psi == other.psi
        )

    def __hash__(self):
        return hash(self.id)


def bits(x):
    return struct.pack("<d", x)


def twins(module, make):
    """``(record, reference)`` pairs of every record ``make()`` builds
    through ``module.GeoTemporalImage``: each from the same arguments, once
    as ``GeoTemporalImage`` and once as ``StoredPsiImage``."""
    pairs = []

    def both(id, lat, lon, t_c, psi):
        psi = list(psi)     # a zip or generator can be read only once
        image = GeoTemporalImage(id, lat, lon, t_c, psi)
        pairs.append((image, StoredPsiImage(id, lat, lon, t_c, psi)))
        return image

    with mock.patch.object(module, "GeoTemporalImage", both):
        made = make()
    assert [image for image, _ in pairs] == list(made)
    return pairs


def assert_twins(pairs):
    assert pairs
    for image, ref in pairs:
        assert type(image.psi) is tuple and image.psi == ref.psi
        assert all(type(p) is tuple for p in image.psi)
        assert list(image.freq) == list(ref.freq)
        assert [bits(f) for f in image.freq.values()] == [bits(f) for f in ref.freq.values()]
        assert image.total_tf == ref.total_tf
        assert image.tfs == tuple(tf for _w, tf in ref.psi)
        assert hash(image) == hash(ref)
    # equality between records, including near twins
    images = [image for image, _ in pairs[:40]]
    refs = [ref for _, ref in pairs[:40]]
    for a, ra in zip(images, refs):
        for b, rb in zip(images, refs):
            assert (a == b) == (ra == rb)
        for psi in near_twins(ra.psi):
            assert (a == GeoTemporalImage(a.id, a.lat, a.lon, a.t_c, psi)) == \
                (ra == StoredPsiImage(ra.id, ra.lat, ra.lon, ra.t_c, psi))


def near_twins(psi):
    """Word vectors one step from ``psi``: a tf raised, a word moved up, a
    word added, and, for more than one word, the last dropped."""
    (w, tf), rest = psi[-1], list(psi[:-1])
    out = [rest + [(w, tf + 1)], rest + [(w + 1, tf)], list(psi) + [(w + 1, 1)]]
    if rest:
        out.append(rest)
    return out


class TestTwinOfTheStoredPsiRecord:
    def test_random_images(self, domain):
        pairs = twins(verify, lambda: random_images(random.Random(3), 300, domain))
        assert_twins(pairs)

    @pytest.mark.parametrize("kw", [
        {},
        dict(vocab_size=5000, mean_words=15.0, spatial_mode="clusters", cluster_count=12),
        dict(vocab_size=3, mean_words=40.0),
    ], ids=["defaults", "perfbench-shape", "tiny-vocabulary"])
    def test_generated_stream(self, kw):
        cfg = GeneratorConfig(seed=9, image_count=1500, **kw)
        assert_twins(twins(workload, lambda: generate_images(cfg)))

    def test_dataset_round_trip(self, tmp_path):
        images = generate_images(GeneratorConfig(seed=2, image_count=600, mean_words=30.0))
        images += random_images(random.Random(4), 100, workload.DEFAULT_DOMAIN, id_base=600)
        path = tmp_path / "d.tsv"
        write_dataset(images, path)
        pairs = twins(workload, lambda: list(parse_dataset(path)))
        assert_twins(pairs)
        assert [image for image, _ in pairs] == images
        again = tmp_path / "again.tsv"
        write_dataset([image for image, _ in pairs], again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("args", [
        (0, 0.0, 0.0, 0, []),
        (0, 0.0, 0.0, 0, [(2, 1), (1, 1)]),
        (0, 0.0, 0.0, 0, [(1, 1), (1, 2)]),
        (0, 0.0, 0.0, 0, [(1, 0)]),
        (0, 0.0, 0.0, 0, [(-1, 1)]),
        (0, 0.0, 0.0, 0, [(1.5, 2)]),
        (0, 0.0, 0.0, 0, [(1, 2.7)]),
        (0, 0.0, 0.0, 0, [(True, 1)]),
        (0, 0.0, 0.0, 0, [("7", 1)]),
        (0, 0.0, 0.0, 0, [(1, None)]),
        (0, 0.0, 0.0, 0, [(1, 1, 1)]),
        (0, 0.0, 0.0, 0, [7]),
        (0, 0.0, 0.0, 0, None),
        (1.5, 0.0, 0.0, 0, [(1, 1)]),
        (0, math.nan, 0.0, 0, [(1, 1)]),
        (0, 0.0, "50", 0, [(1, 1)]),
        (0, 0.0, 0.0, 0.5, [(1, 1)]),
    ], ids=["empty", "descending", "repeated", "tf-0", "word-negative", "word-1.5", "tf-2.7",
            "bool-word", "str-word", "none-tf", "triple", "not-a-pair", "no-vector", "id-1.5",
            "lat-nan", "lon-str", "t_c-0.5"])
    def test_bad_input_raises_the_same_error(self, args):
        with pytest.raises(Exception) as new:
            GeoTemporalImage(*args)
        with pytest.raises(Exception) as old:
            StoredPsiImage(*args)
        assert type(new.value) is type(old.value)
        assert str(new.value) == str(old.value)
        assert isinstance(new.value, (ValueError, TypeError))


class TestLayout:
    def test_psi_is_derived(self):
        assert "psi" not in GeoTemporalImage.__slots__
        image = GeoTemporalImage(0, 1.0, 2.0, 3, [(4, 2), (9, 1)])
        assert image.psi == ((4, 2), (9, 1)) and image.tfs == (2, 1)
        with pytest.raises(AttributeError):
            image.psi = ((4, 1),)

    def test_equal_ratios_share_one_float(self):
        images = generate_images(GeneratorConfig(seed=5, image_count=300, mean_words=60.0))
        shared = 0
        for image in images:
            by_tf = {}
            for f, tf in zip(image.freq.values(), image.tfs):
                assert by_tf.setdefault(tf, f) is f
            shared += len(image.tfs) - len(by_tf)
        assert shared > 0

    @staticmethod
    def assert_one_object_per_word(images):
        first = {}
        for image in images:
            for w in image.freq:
                assert first.setdefault(w, w) is w
        assert any(w > 256 for w in first)     # beyond CPython's cached small ints
        return first

    def test_generated_stream_shares_word_ids(self):
        cfg = GeneratorConfig(seed=6, image_count=2500, vocab_size=5000, mean_words=15.0)
        words = self.assert_one_object_per_word(generate_images(cfg))
        # the sharing is scoped to one stream: a second one has its own ints
        again = self.assert_one_object_per_word(generate_images(cfg))
        assert all(again[w] is not words[w] for w in words.keys() & again.keys() if w > 256)

    def test_parsed_file_shares_word_ids(self, tmp_path):
        images = generate_images(GeneratorConfig(seed=7, image_count=1500, vocab_size=5000,
                                                 mean_words=15.0))
        path = tmp_path / "d.tsv"
        write_dataset(images, path)
        self.assert_one_object_per_word(parse_dataset(path))


def test_remove_image_refuses_a_bucket_with_a_tree(domain):
    """Dropping one image from a HIQ index's statistics would rebuild its
    bucket without the segment's tree; it is refused, and the index still
    answers as the oracle does."""
    rng = random.Random(8)
    index = HiqIndex(HiqConfig(domain=domain, segment_span=10**9, window=2, capacity=8))
    images = random_images(rng, 50, domain)
    for image in images:
        index.insert(image)
    version = index.stats.version
    with pytest.raises(InvalidStateError):
        index.stats.remove_image(images[17])
    assert index.stats.version == version
    assert stats_violations(index.stats, images) == []
    assert all(bucket.tree is not None for bucket in index.stats.buckets.values())
    for _ in range(20):
        q = random_query(rng, images, domain)
        expected = brute_force_oracle(q, index.live_images(), index.params)
        assert results_match(index.search(q)[0], expected)
