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
