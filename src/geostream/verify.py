"""Self-checks: oracle equivalence across all indexes and lower-bound
dominance audits on seeded random instances. Shared by ``geostream
verify`` and the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import kernels
from .baselines import IfaIndex, StviiIndex
from .engine import brute_force_oracle, walk
from .hiq import HiqConfig, HiqIndex
from .model import (
    BOUND_TOL,
    GeoTemporalImage,
    Query,
    combined_score,
    spatial_proximity,
)

SCORE_TOL = 1e-9


@dataclass
class VerifyReport:
    ok: bool = True
    lines: list = field(default_factory=list)

    def record(self, name, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.lines.append(f"{status} {name}{suffix}")
        if not passed:
            self.ok = False


def random_images(rng, n, domain, vocab=60, t_lo=0, t_hi=100_000, id_base=0):
    images = []
    for i in range(n):
        n_words = rng.randint(1, 8)
        words = rng.sample(range(vocab), n_words)
        psi = sorted((w, rng.randint(1, 5)) for w in words)
        images.append(
            GeoTemporalImage(
                id_base + i,
                rng.uniform(domain.min_lat, domain.max_lat),
                rng.uniform(domain.min_lon, domain.max_lon),
                rng.randint(t_lo, t_hi),
                psi,
            )
        )
    return images


def random_query(rng, images, domain, vocab=60, max_words=20):
    anchor = rng.choice(images)
    l = rng.randint(1, max_words)
    words = set(rng.sample(range(vocab), min(l, vocab)))
    words.add(rng.choice(list(anchor.freq)))
    w1 = rng.uniform(0.05, 0.9)
    w2 = rng.uniform(0.05, 0.95 - w1)
    w3 = 1.0 - w1 - w2
    return Query(
        psi=tuple(sorted(words)),
        loc=(anchor.lat, anchor.lon),
        t=max(img.t_c for img in images) + rng.randint(0, 1000),
        k=rng.choice((1, 5, 10)),
        weights=(w1, w2, w3),
    )


def build_all(images, config):
    hiq = HiqIndex(config)
    ifa = IfaIndex(config)
    stvii = StviiIndex(config)
    for img in sorted(images, key=lambda im: im.t_c):
        hiq.insert(img)
        ifa.insert(img)
        stvii.insert(img)
    return hiq, ifa, stvii


def results_match(a, b, tol=SCORE_TOL):
    if len(a) != len(b):
        return False
    for ea, eb in zip(a, b):
        if ea.image_id != eb.image_id:
            return False
        if abs(ea.score.f_stv - eb.score.f_stv) > tol:
            return False
    return True


def check_oracle_equivalence(seed, instances, domain, max_images=500,
                             queries_per_dataset=20, capacity=8):
    """Runs (instances) random (dataset, query) pairs through HIQ, IFA,
    STVII and the oracle; returns the number of mismatches. The window
    holds 3 of the data's 20,000 s segments, so the older part of each
    dataset has expired before the queries."""
    rng = random.Random(seed)
    failures = 0
    done = 0
    while done < instances:
        n = rng.randint(5, max_images)
        images = random_images(rng, n, domain)
        config = HiqConfig(
            domain=domain,
            segment_span=20_000,
            window=3,
            capacity=capacity,
            max_depth=8,
        )
        hiq, ifa, stvii = build_all(images, config)
        live = list(hiq.live_images())
        for _ in range(min(queries_per_dataset, instances - done)):
            q = random_query(rng, images, domain)
            expected = brute_force_oracle(q, live, hiq.params)
            if not all(
                results_match(index.search(q)[0], expected)
                for index in (hiq, ifa, stvii)
            ):
                failures += 1
            done += 1
    return failures


def _subtree_images(node):
    return [img for n in walk([node]) if n.children is None for img in n.images]


def check_dominance(seed, pairs, domain, tol=BOUND_TOL):
    """For random (index, query) pairs, asserts mind(q, N) lower-bounds
    the combined score of every image under N, for every node, after
    part of each dataset has expired. For every image of every leaf it
    also asserts the bound behind the leaf scorer's spatial radius
    (``QueryContext.score_leaf``): the image's own spatial cost with the
    leaf's visual bound and its recency cost at ``t_max``. For every
    parent and child it asserts the nesting the search's deferred keys
    rest on (``nesting_violations``). Returns the number of
    violations (``dominance_violations``)."""
    rng = random.Random(seed)
    violations = 0
    done = 0
    while done < pairs:
        images = random_images(rng, rng.randint(20, 150), domain)
        config = HiqConfig(domain=domain, segment_span=20_000, window=3,
                           capacity=6, max_depth=6)
        hiq, _, stvii = build_all(images, config)
        for _ in range(min(10, pairs - done)):
            q = random_query(rng, images, domain)
            violations += dominance_violations(q, hiq, tol) + dominance_violations(q, stvii, tol)
            done += 1
    return violations


def dominance_violations(q, index, tol=BOUND_TOL):
    """The dominance checks of ``check_dominance`` for one query over one
    tree index: the nodes whose ``mind`` exceeds the lowest f_stv under
    them by more than ``tol``, the leaf images of
    ``leaf_bound_violations`` and the pairs of ``nesting_violations``."""
    violations = 0
    for node in walk(index.roots()):
        subtree = _subtree_images(node)
        if not subtree:
            continue
        bound = index.mind(q, node)
        low = min(combined_score(q, img, index.params).f_stv for img in subtree)
        if bound > low + tol:
            violations += 1
        if node.children is None:
            violations += leaf_bound_violations(q, node, index.params, tol)
    return violations + nesting_violations(q, index)


def nesting_violations(q, index):
    """The number of (parent, child) pairs of ``index``'s trees where the
    child's ``t_max`` exceeds its parent's, a word of its ``max_freq``
    exceeds its parent's, or its deferred key (its terms from
    ``index.bounds`` with the parent's visual bound) exceeds its exact
    bound ``index.mind(q, child)``; the key is compared with no tolerance."""
    context = index.params.context(q)
    violations = 0
    for parent in walk(index.roots()):
        children = parent.children
        if children is None:
            continue
        f_v = context.mind_visual(parent.max_freq)
        for child, (spatial, recency) in zip(children, index.bounds(q, children)):
            if child.t_max is not None and (parent.t_max is None or child.t_max > parent.t_max):
                violations += 1
            if any(f > parent.max_freq.get(word, 0.0) for word, f in child.max_freq.items()):
                violations += 1
            if spatial + q.weights[1] * f_v + recency > index.mind(q, child):
                violations += 1
    return violations


def leaf_bound_violations(q, leaf, params, tol=BOUND_TOL):
    """The number of images of ``leaf`` whose f_stv is below
    ``w1 * f_s(image) + w2 * mind_visual(leaf) + w3 * recency(leaf.t_max)``
    by more than ``tol``."""
    w1, w2, w3 = q.weights
    f_v = params.context(q).mind_visual(leaf.max_freq)
    f_t = kernels.recency_cost(q.t - leaf.t_max, params.decay_base, params.time_unit)
    return sum(
        1 for img in leaf.images
        if kernels.combine(w1, w2, w3, spatial_proximity(q, img.loc, params.domain), f_v, f_t)
        > combined_score(q, img, params).f_stv + tol)


def run_verification(seed=0, instances=50, domain=None):
    from .model import SpatialDomain

    if domain is None:
        domain = SpatialDomain(0.0, 100.0, 0.0, 100.0)
    report = VerifyReport()
    mismatches = check_oracle_equivalence(seed, instances, domain, max_images=200)
    report.record(
        "oracle-equivalence", mismatches == 0,
        f"{instances} instances, {mismatches} mismatches",
    )
    violations = check_dominance(seed + 1, max(10, instances // 2), domain)
    report.record(
        "bound-dominance", violations == 0,
        f"{max(10, instances // 2)} pairs, {violations} violations",
    )
    return report
