"""A stateful property test of the shared sliding window: HIQ, IFA and
STVII take the same stream of inserts, rolls, expiries and queries, and
after every step hold the same live images, the same window, term
statistics equal to a recount, answers equal to the brute-force oracle,
tree leaf inverted files equal to a rebuild from their images, one HIQ
tree per segment that holds a live image, and an IFA slot table within
twice its live images."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import brute_force_oracle, walk
from geostream.hiq import ExpiredArrivalError, HiqConfig, HiqIndex
from geostream.model import CorpusStats, GeoTemporalImage, Query, ScoreParams, SpatialDomain
from geostream.verify import results_match
from test_baselines import audit_stvii

DOMAIN = SpatialDomain(0.0, 100.0, 0.0, 100.0)
SPAN = 100
WINDOW = 3
VOCAB = 6
WEIGHTS = ((1 / 3, 1 / 3, 1 / 3), (0.2, 0.6, 0.2), (0.7, 0.2, 0.1), (0.1, 0.1, 0.8))

coords = st.floats(0.0, 100.0, allow_nan=False)
word_vectors = st.dictionaries(st.integers(0, VOCAB - 1), st.integers(1, 3),
                               min_size=1, max_size=3).map(lambda d: sorted(d.items()))
queries = st.builds(
    lambda words, lat, lon, k, weights, ahead: (tuple(sorted(words)), (lat, lon), k,
                                                weights, ahead),
    st.sets(st.integers(0, VOCAB + 1), min_size=1, max_size=4),
    coords, coords, st.integers(1, 6), st.sampled_from(WEIGHTS), st.integers(0, SPAN),
)


def recount(images):
    stats = CorpusStats()
    for img in images:
        stats.add_image(img)
    return stats


def oracle(q, index):
    """The oracle over a recount of the live set, so it shares no cached
    scoring state with the index."""
    live = index.live_images()
    p = index.params
    params = ScoreParams(domain=p.domain, stats=recount(live), xi=p.xi,
                         decay_base=p.decay_base, time_unit=p.time_unit)
    return brute_force_oracle(q, live, params)


class SharedWindow(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        config = HiqConfig(domain=DOMAIN, segment_span=SPAN, window=WINDOW,
                           capacity=3, max_depth=4)
        self.hiq = HiqIndex(config)
        self.indexes = (self.hiq, IfaIndex(config), StviiIndex(config))
        self.next_id = 0
        self.now = None         # latest arrival time
        self.cutoff = None      # latest expire cutoff

    def _image(self, t, lat, lon, psi, id=None):
        if id is None:
            id, self.next_id = self.next_id, self.next_id + 1
        return GeoTemporalImage(id, lat, lon, t, psi)

    def _earliest(self):
        """The earliest time an arrival may have: the window start, or a
        later expire cutoff."""
        start = self.hiq.window_start()
        return start if self.cutoff is None else max(start, self.cutoff)

    def _latest(self):
        """The latest time an arrival may have without moving the window:
        the latest arrival, or the earliest admissible time once rolls or
        expiries pass it."""
        if not self.hiq.segments:
            return 0
        earliest = self._earliest()
        return earliest if self.now is None else max(self.now, earliest)

    def _insert(self, img):
        for index in self.indexes:
            index.insert(img)
        self.now = img.t_c if self.now is None else max(self.now, img.t_c)

    def _rejected(self, img, error, match):
        """Every index raises ``error`` for ``img`` and changes nothing."""
        before = [(index.window_start(), index.stats.version, index.image_count())
                  for index in self.indexes]
        for index in self.indexes:
            with pytest.raises(error, match=match):
                index.insert(img)
        after = [(index.window_start(), index.stats.version, index.image_count())
                 for index in self.indexes]
        assert after == before

    @rule(gap=st.one_of(st.integers(0, SPAN), st.integers(0, (WINDOW + 2) * SPAN)),
          lat=coords, lon=coords, psi=word_vectors)
    def insert_in_order(self, gap, lat, lon, psi):
        self._insert(self._image(self._latest() + gap, lat, lon, psi))

    @precondition(lambda self: self.hiq.segments)
    @rule(data=st.data(), lat=coords, lon=coords, psi=word_vectors)
    def insert_jittered(self, data, lat, lon, psi):
        t = data.draw(st.integers(self._earliest(), self._latest()))
        self._insert(self._image(t, lat, lon, psi))

    @precondition(lambda self: self.hiq.segments)
    @rule(back=st.integers(1, 3 * SPAN), lat=coords, lon=coords, psi=word_vectors)
    def insert_expired(self, back, lat, lon, psi):
        t = self._earliest() - back
        self._rejected(self._image(t, lat, lon, psi), ExpiredArrivalError, "older than")

    @precondition(lambda self: self.hiq.image_count() > 0)
    @rule(data=st.data(), lat=coords, lon=coords, psi=word_vectors)
    def insert_duplicate(self, data, lat, lon, psi):
        id = data.draw(st.sampled_from(sorted(im.id for im in self.hiq.live_images())))
        img = self._image(self._latest(), lat, lon, psi, id=id)
        self._rejected(img, ValueError, "duplicate")

    @rule()
    def roll(self):
        for index in self.indexes:
            index.roll_segment(self._latest())

    @precondition(lambda self: self.hiq.segments)
    @rule(data=st.data())
    def expire(self, data):
        # a segment boundary or any point, up to one past the latest arrival
        start, last = self.hiq.window_start(), self._latest() + 1
        cutoff = data.draw(st.one_of(
            st.integers(start // SPAN, last // SPAN).map(lambda s: s * SPAN),
            st.integers(start, last)))
        older = sum(1 for im in self.hiq.live_images() if im.t_c < cutoff)
        assert [index.expire(cutoff) for index in self.indexes] == [older] * 3
        self.cutoff = cutoff if self.cutoff is None else max(self.cutoff, cutoff)

    @rule(spec=queries)
    def query(self, spec):
        psi, loc, k, weights, ahead = spec
        q = Query(psi=psi, loc=loc, t=self._latest() + ahead, k=k, weights=weights)
        for index in self.indexes:
            assert results_match(index.search(q)[0], oracle(q, index))

    @invariant()
    def indexes_agree(self):
        live = sorted(im.id for im in self.hiq.live_images())
        for index in self.indexes:
            assert sorted(im.id for im in index.live_images()) == live
            assert index.image_count() == len(live)
        if not self.hiq.segments:
            return
        for index in self.indexes:
            assert index.window_start() == self.hiq.segments[0].start
            fresh = recount(index.live_images())
            stats = index.stats
            assert stats.total_word_count == fresh.total_word_count
            assert stats.word_corpus_tf == fresh.word_corpus_tf
            for w in range(VOCAB):
                assert stats.max_freq(w) == fresh.max_freq(w)
        q = Query(psi=(0, 1, 2), loc=(50.0, 50.0), t=self._latest(), k=5,
                  weights=(0.2, 0.6, 0.2))
        for index in self.indexes:
            assert results_match(index.search(q)[0], oracle(q, index))

    @invariant()
    def ifa_slots_derived(self):
        # IFA counts no dead slots: its set flags are its live images, and
        # a table at twice its live images has been compacted
        ifa = self.indexes[1]
        live = ifa.image_count()
        assert sum(ifa.alive) == live
        assert len(ifa.ids) == live or len(ifa.ids) < 2 * live

    @invariant()
    def hiq_trees_hold_images(self):
        # HIQ keeps one tree per segment that holds a live image, and
        # every tree holds one
        roots = self.hiq.roots()
        assert all(root.t_max is not None for root in roots)
        held = {im.t_c // SPAN for im in self.hiq.live_images()}
        assert sorted(root.t_max // SPAN for root in roots) == sorted(held)

    @invariant()
    def stvii_tree_sound(self):
        audit_stvii(self.indexes[2])

    @invariant()
    def leaf_inverted_files_fresh(self):
        # a built inverted file sits on a leaf and equals one rebuilt from
        # the leaf's images
        for index in (self.hiq, self.indexes[2]):
            for node in walk(index.roots()):
                if node.postings is None:
                    continue
                assert node.children is None
                fresh = {}
                for i, img in enumerate(node.images):
                    for v in img.word_tf:
                        fresh.setdefault(v, []).append(i)
                assert node.postings == fresh


SharedWindow.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True,
    database=None,
)
test_shared_window = SharedWindow.TestCase
