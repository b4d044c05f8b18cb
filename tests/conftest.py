import pytest

from geostream.model import CorpusStats, ScoreParams, SpatialDomain


@pytest.fixture
def domain():
    return SpatialDomain(0.0, 100.0, 0.0, 100.0)


@pytest.fixture
def empty_stats():
    return CorpusStats(3600)


def make_params(domain, stats, **kw):
    return ScoreParams(domain=domain, stats=stats, **kw)


def stats_snapshot(stats):
    """A copy of what the ``CorpusStats`` ``stats`` hold, for a check that a
    call changed nothing: each bucket key with the bucket's image ids,
    ``total_tf``, ``corpus_tf``, ``t_max`` and ``max_freq``, and
    ``total_word_count``."""
    return ({key: ([img.id for img in b.images], b.total_tf, dict(b.corpus_tf), b.t_max,
                   dict(b.max_freq)) for key, b in stats.buckets.items()},
            stats.total_word_count)
