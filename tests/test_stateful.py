"""A stateful property test of the shared sliding window: HIQ, IFA and
STVII take the same stream of inserts, rolls, expiries and queries, and
after every step hold the same live images, the same window, answers
equal to the brute-force oracle, and a structure equal to a recount of
their live images (``verify.structure_violations``: term statistics,
HIQ's one tree per held segment and its roots' shared word maxima, node
aggregates and boxes, and IFA's slot table)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import ExpiredArrivalError, brute_force_oracle
from geostream.hiq import HiqConfig, HiqIndex
from geostream.model import CorpusStats, GeoTemporalImage, Query, ScoreParams, SpatialDomain
from geostream.verify import results_match, structure_violations

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
    stats = CorpusStats(SPAN)
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
        # to the head's end, a time in the next segment, so the window moves
        # one span; the first roll opens the window at 0
        now = self.hiq.segments[-1].end if self.hiq.segments else 0
        assert len({index.roll_segment(now) for index in self.indexes}) == 1

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
        q = Query(psi=(0, 1, 2), loc=(50.0, 50.0), t=self._latest(), k=5,
                  weights=(0.2, 0.6, 0.2))
        for index in self.indexes:
            assert results_match(index.search(q)[0], oracle(q, index))

    @invariant()
    def structures_recount(self):
        for index in self.indexes:
            assert structure_violations(index) == []


SharedWindow.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True,
    database=None,
)
test_shared_window = SharedWindow.TestCase


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # under the repo's warning filters, a failing property must end in
    # hypothesis's report of its example, not in a pytest INTERNALERROR
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert False
    """))
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
