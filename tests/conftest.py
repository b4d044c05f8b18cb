import pytest

from geostream.engine import brute_force_oracle
from geostream.model import CorpusStats, ScoreParams, SpatialDomain


@pytest.fixture
def domain():
    return SpatialDomain(0.0, 100.0, 0.0, 100.0)


@pytest.fixture
def empty_stats():
    return CorpusStats(3600)


def oracle_over_live_set(q, index):
    """The oracle over ``index``'s live images, scored against a recount of
    their statistics, so that the expected answer does not read the
    index's own statistics."""
    live = list(index.live_images())
    stats = CorpusStats(index.config.segment_span)
    for img in live:
        stats.add_image(img)
    p = index.params
    params = ScoreParams(domain=p.domain, stats=stats, xi=p.xi,
                         decay_base=p.decay_base, time_unit=p.time_unit)
    return brute_force_oracle(q, live, params)


def stats_snapshot(stats):
    """A copy of what the ``CorpusStats`` ``stats`` hold, for a check that a
    call changed nothing: each bucket key with the bucket's image ids,
    ``total_tf``, ``corpus_tf``, ``t_max`` and ``max_freq``, and
    ``total_word_count``."""
    return ({key: ([img.id for img in b.images], b.total_tf, dict(b.corpus_tf), b.t_max,
                   dict(b.max_freq)) for key, b in stats.buckets.items()},
            stats.total_word_count)
