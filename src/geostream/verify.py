"""Self-checks: oracle equivalence across all indexes, lower-bound
dominance audits on seeded random instances, and one structure check of
any index against a recount of its live images
(``structure_violations``). Shared by ``geostream verify`` and the test
suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import kernels
from .baselines import IfaIndex, StviiIndex
from .engine import brute_force_oracle, walk
from .hiq import HiqConfig, HiqIndex
from .model import (
    BOUND_TOL,
    GeoTemporalImage,
    Query,
    QueryContext,
    combined_score,
)
from .workload import DEFAULT_DOMAIN

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


class IndexRaised(Exception):
    """An index raised inside an operation of a check; the message names
    the index, the operation and the exception."""


@contextmanager
def _naming(index, operation):
    """Re-raises any exception of the block as ``IndexRaised``, naming
    ``index`` and ``operation``."""
    try:
        yield
    except Exception as exc:
        raise IndexRaised(f"{index.kind}: {operation} raised {type(exc).__name__}: {exc}") from exc


def build_all(images, config):
    """HIQ, IFA and STVII over ``images`` in time order; an exception of
    an insert is re-raised as ``IndexRaised``."""
    indexes = HiqIndex(config), IfaIndex(config), StviiIndex(config)
    for img in sorted(images, key=lambda im: im.t_c):
        for index in indexes:
            with _naming(index, f"insert of image {img.id}"):
                index.insert(img)
    return indexes


def results_match(a, b, tol=SCORE_TOL):
    if len(a) != len(b):
        return False
    for ea, eb in zip(a, b):
        if ea.image_id != eb.image_id:
            return False
        if abs(ea.score.f_stv - eb.score.f_stv) > tol:
            return False
    return True


def oracle_stream(rng, n, domain, shape):
    """``n`` random images (``random_images``) of one of the oracle check's
    shapes, in the order they arrive. ``uniform`` as drawn. ``clustered``
    puts every other image in one of two squares 2% of the domain wide, so
    HIQ leaves split over several levels at once. ``jump`` moves every
    image at or after t = 60,000 on by 100,000, so the roll past the gap
    expires every image before it, about 60% of the table, and IFA trims
    it. These three arrive in ``t_c`` order. ``late`` is ``uniform`` with
    every third image arriving up to 20,000 s late, after images of a
    later segment: an image arrives once every image whose ``t_c`` plus
    delay is smaller has arrived. At the check's 20,000 s segments the head
    is then at most one segment past the late image's, so the window never
    starts after it and no arrival is refused; such an image lands in an
    older segment's HIQ tree, may grow an old STVII box, and dies as an
    IFA slot behind live ones."""
    images = random_images(rng, n, domain)
    if shape == "clustered":
        d_lat = 0.02 * (domain.max_lat - domain.min_lat)
        d_lon = 0.02 * (domain.max_lon - domain.min_lon)
        corners = [(rng.uniform(domain.min_lat, domain.max_lat - d_lat),
                    rng.uniform(domain.min_lon, domain.max_lon - d_lon)) for _ in range(2)]
        images = [im if i % 2 else GeoTemporalImage(
            im.id, corners[i % 4 // 2][0] + rng.random() * d_lat,
            corners[i % 4 // 2][1] + rng.random() * d_lon, im.t_c, im.psi)
            for i, im in enumerate(images)]
    elif shape == "jump":
        images = [im if im.t_c < 60_000 else GeoTemporalImage(
            im.id, im.lat, im.lon, im.t_c + 100_000, im.psi) for im in images]
    elif shape == "late":
        delay = {im.id: rng.randrange(20_000) if i % 3 == 0 else 0
                 for i, im in enumerate(images)}
        return sorted(images, key=lambda im: im.t_c + delay[im.id])
    return sorted(images, key=lambda im: im.t_c)


ORACLE_SHAPES = ("uniform", "clustered", "jump", "late")
# every name an index counts in its ``paths``, in the structure line's order
PATH_COUNTS = ("IFA trims", "multi-level HIQ splits", "STVII prunes that emptied a node",
               "STVII inner splits", "HIQ trees rebuilt after a cutoff")


def check_oracle_equivalence(seed, instances, domain, max_images=500):
    """Runs (instances) random (dataset, query) pairs, 20 queries to a
    dataset, through HIQ, IFA, STVII and the oracle; returns the number
    of mismatches, the faults found, each led by the index's kind, and
    how often the streams took each path of ``PATH_COUNTS``, summed over
    the indexes' own ``paths``.
    The faults are the ``structure_violations`` of each index, checked
    whenever the window start moves and after the last insert, and any
    exception an index raised (``IndexRaised``): that ends its dataset,
    whose queries left count as mismatches. The datasets take the shapes
    of ``oracle_stream`` in turn and arrive in its order. The window holds
    3 of the data's 20,000 s segments, at a capacity of 8, so the older
    part of each dataset has expired before the queries, and each dataset
    is then expired once more, at a cutoff inside its oldest held
    segment: a float in the first round of the shapes and every other
    round after it, else an int."""
    rng = random.Random(seed)
    failures = 0
    faults = []
    counts = dict.fromkeys(PATH_COUNTS, 0)
    done = 0
    datasets = 0
    while done < instances:
        n = rng.randint(5, max_images)
        rounds, shape = divmod(datasets, len(ORACLE_SHAPES))
        images = oracle_stream(rng, n, domain, ORACLE_SHAPES[shape])
        datasets += 1
        config = HiqConfig(
            domain=domain,
            segment_span=20_000,
            window=3,
            capacity=8,
            max_depth=8,
        )
        indexes = hiq, ifa, stvii = HiqIndex(config), IfaIndex(config), StviiIndex(config)
        queries = [random_query(rng, images, domain)
                   for _ in range(min(20, instances - done))]
        done += len(queries)
        answered = 0
        try:
            start = None
            for img in images:
                for index in indexes:
                    with _naming(index, f"insert of image {img.id}"):
                        index.insert(img)
                if hiq.window_start() != start:
                    start = hiq.window_start()
                    faults += _structure_faults(indexes)
            faults += _structure_faults(indexes)
            # a cutoff at one of the oldest held segment's images, a float
            # in the first round of the shapes and every other one after it
            buckets = hiq.stats.buckets
            cutoff = rng.choice(buckets[min(buckets)].images).t_c
            cutoff = cutoff if rounds % 2 else cutoff - 0.5
            for index in indexes:
                with _naming(index, f"expire at {cutoff}"):
                    index.expire(cutoff)
            faults += _structure_faults(indexes)
            live = list(hiq.live_images())
            for q in queries:
                expected = brute_force_oracle(q, live, hiq.params)
                if not all(_answers(index, q, expected) for index in indexes):
                    failures += 1
                answered += 1
        except IndexRaised as exc:
            faults.append(str(exc))
            failures += len(queries) - answered
        for index in indexes:
            for name, n in index.paths.items():
                counts[name] += n
    return failures, faults, counts


def _structure_faults(indexes):
    """``structure_violations`` of each of ``indexes``, each led by its kind."""
    out = []
    for index in indexes:
        with _naming(index, "structure check"):
            out += [f"{index.kind}: {fault}" for fault in structure_violations(index)]
    return out


def _answers(index, q, expected):
    """Whether ``index`` answers ``q`` with the oracle's ``expected``."""
    with _naming(index, "search"):
        return results_match(index.search(q)[0], expected)


def _maxima(images):
    """``(t_max, max_freq)`` recounted from ``images``; None and {} for none."""
    t_max, max_freq = None, {}
    for img in images:
        t_max = img.t_c if t_max is None else max(t_max, img.t_c)
        for word, tf in img.psi:
            max_freq[word] = max(max_freq.get(word, 0.0), tf / img.total_tf)
    return t_max, max_freq


def stats_violations(stats, images):
    """How the ``CorpusStats`` ``stats`` differ from a recount of
    ``images``, bucket by bucket (``t_c // segment_span``): the bucket keys,
    each bucket's ids, ``total_tf``, ``corpus_tf``, ``t_max`` and
    ``max_freq``, and ``total_word_count``, their sum. Empty when exact."""
    groups = {}
    for img in images:
        groups.setdefault(img.t_c // stats._span, []).append(img)
    out = [] if groups.keys() == stats.buckets.keys() else ["bucket keys"]
    for key in groups.keys() & stats.buckets.keys():
        group, bucket = groups[key], stats.buckets[key]
        corpus_tf = {}
        for img in group:
            for word, tf in img.psi:
                corpus_tf[word] = corpus_tf.get(word, 0) + tf
        held = (sorted(img.id for img in bucket.images), bucket.total_tf, bucket.corpus_tf,
                bucket.t_max, bucket.max_freq)
        recount = (sorted(img.id for img in group), sum(corpus_tf.values()), corpus_tf,
                   *_maxima(group))
        out += [f"bucket {key}: {name}" for name, a, b in zip(
            ("ids", "total_tf", "corpus_tf", "t_max", "max_freq"), held, recount) if a != b]
    if stats.total_word_count != sum(tf for img in images for tf in img.tfs):
        out.append("total_word_count")
    return out


def structure_violations(index):
    """A short message per fault of ``index`` against a recount of its
    live images; empty when it is sound. Beside ``stats_violations``: no
    live image precedes the cutoff; a tree's leaves hold the live images
    once each, inside their ``_rect``, and each node's ``t_max`` and
    ``max_freq`` are a recount of the images under it. Each HIQ bucket
    holds the tree of its own images, each leaf listing its own in the
    bucket's order, which is arrival order, with the bucket's very
    ``max_freq`` at the root; children tile their parent at the midpoints,
    and a leaf exceeds ``capacity`` only at ``max_depth``. No STVII node is
    empty, each ``mbr`` bounds its points, and fan-out and leaves are at
    most ``capacity``. IFA: ``_ifa_violations``."""
    live = index.live_images()
    out = stats_violations(index.stats, live)
    if live and min(img.t_c for img in live) < index._cutoff:
        out.append("a live image older than the cutoff")
    if isinstance(index, IfaIndex):
        return out + _ifa_violations(index, live)
    if isinstance(index, HiqIndex):
        trees = [(key, bucket.tree, bucket) for key, bucket in index.stats.buckets.items()]
    else:
        trees = [(0, root, None) for root in index.roots()]
    held = []
    for key, root, bucket in trees:
        images = _node_violations(index, root, 0, out)
        held += images
        if bucket is None:
            continue
        if root.max_freq is not bucket.max_freq:
            out.append(f"root of segment {key}: max_freq is not its bucket's")
        rank = {img.id: i for i, img in enumerate(bucket.images)}      # arrival order
        ranks = [[rank.get(img.id, -1) for img in leaf.images]
                 for leaf in walk([root]) if leaf.children is None]
        if sorted(img.id for img in images) != sorted(rank) or any(r != sorted(r) for r in ranks):
            out.append(f"tree of segment {key}: not its bucket's images in arrival order")
    if sorted(img.id for img in held) != sorted(img.id for img in live):
        out.append("the leaves do not hold the live images once each")
    return out


def _node_violations(index, node, depth, out):
    """Appends the tree faults of ``structure_violations`` at ``node``, at
    ``depth``, and below it to ``out``; returns the images under it."""
    hiq = isinstance(index, HiqIndex)
    capacity = index.config.capacity
    if node.children is None:
        images = node.images
        if len(images) > capacity and not (hiq and depth == index.config.max_depth):
            out.append(f"leaf at depth {depth}: {len(images)} images")
        if images:
            min_lat, min_lon, max_lat, max_lon = index._rect(node)
            out += [f"image {img.id} outside its leaf" for img in images
                    if not (min_lat <= img.lat <= max_lat and min_lon <= img.lon <= max_lon)]
    else:
        if hiq and list(map(index._rect, node.children)) != \
                list(map(index._rect, node.make_children())):
            out.append(f"node at depth {depth}: children do not tile it")
        if not hiq and len(node.children) > capacity:
            out.append(f"node at depth {depth}: {len(node.children)} children")
        images = [img for child in node.children
                  for img in _node_violations(index, child, depth + 1, out)]
    if not hiq and (not images or list(node.mbr) != [
            f(getattr(img, axis) for img in images) for f in (min, max)
            for axis in ("lat", "lon", "t_c")]):
        out.append(f"node at depth {depth}: {'mbr' if images else 'empty'}")
    t_max, max_freq = _maxima(images)
    out += [f"node at depth {depth}: {name}" for name, a, b in (
        ("t_max", node.t_max, t_max), ("max_freq", node.max_freq, max_freq)) if a != b]
    return images


def _ifa_violations(index, live):
    """IFA's faults, each named by its message: the four columns of equal
    length; the slots at or after the cutoff, which must be the live
    images'; each posting list's slot ids strictly ascending inside the
    table, ``[_base, _base + n)``, so none before ``_base``; the live
    postings, exactly the live images' words and ratios; and the table
    below twice the live count, or its first slot live."""
    ids, base, alive = index.ids, index._base, [t >= index._cutoff for t in index.t_c]
    n = len(ids)
    if not len(index.lat) == len(index.lon) == len(alive) == n:
        return ["the slot columns differ in length"]
    slot_of = {ids[s]: base + s for s in range(n) if alive[s]}
    if sorted(ids[s] for s in range(n) if alive[s]) != sorted(img.id for img in live):
        return ["the slots at or after the cutoff are not the live images' slots"]
    expected = {}
    for img in live:
        for word, tf in img.psi:
            expected.setdefault(word, []).append((slot_of[img.id], tf / img.total_tf))
    out, held = [], {}
    for word, (slots, freqs) in index.postings.items():
        if len(freqs) != len(slots) or list(slots) != sorted(set(slots)):
            out.append(f"postings of word {word}: not one per slot in slot order")
        inside = [(s, f) for s, f in zip(slots, freqs) if base <= s < base + n]
        if len(inside) != len(slots):
            out.append(f"postings of word {word}: a slot outside the table")
        held[word] = [(s, f) for s, f in inside if alive[s - base]]
    if {w: p for w, p in held.items() if p} != {w: sorted(p) for w, p in expected.items()}:
        out.append("the live postings are not the live images' words")
    if n >= 2 * len(live) and n != len(live) and not alive[0]:
        out.append(f"{n} slots for {len(live)} live images")
    return out


def _subtree_images(node):
    return [img for n in walk([node]) if n.children is None for img in n.images]


def check_dominance(seed, pairs, domain, tol=BOUND_TOL):
    """For random (index, query) pairs, asserts mind(ctx, N) lower-bounds
    the combined score of every image under N, for every node, after
    part of each dataset has expired. For every image of every leaf it
    also asserts the bound behind the leaf scorer's spatial radius
    (``QueryContext.score_leaf``): the image's own spatial cost with the
    leaf's visual bound and its recency cost at ``t_max``. For every
    parent and child it asserts the nesting that the search's inherited
    visual bounds rest on (``nesting_violations``), and for a lone root
    the 0.0 visual bound the search gives it (``lone_root_violations``).
    The datasets take the shapes of ``oracle_stream`` in turn and arrive
    in its order; the window holds 3 of their 20,000 s segments, and
    each dataset is then expired once more, half a second before one
    image of a held segment drawn at random: HIQ rebuilds that segment's
    tree from its survivors when the cutoff splits it, and is left one
    tree when the segment is the newest.
    Returns the number of violations (``dominance_violations``); an
    exception of an index is re-raised as ``IndexRaised``."""
    rng = random.Random(seed)
    violations = 0
    done = 0
    datasets = 0
    while done < pairs:
        shape = ORACLE_SHAPES[datasets % len(ORACLE_SHAPES)]
        datasets += 1
        images = oracle_stream(rng, rng.randint(20, 150), domain, shape)
        config = HiqConfig(domain=domain, segment_span=20_000, window=3,
                           capacity=6, max_depth=6)
        indexes = HiqIndex(config), StviiIndex(config)
        for img in images:
            for index in indexes:
                with _naming(index, f"insert of image {img.id}"):
                    index.insert(img)
        buckets = indexes[0].stats.buckets
        cutoff = rng.choice(buckets[rng.choice(list(buckets))].images).t_c - 0.5
        for index in indexes:
            with _naming(index, f"expire at {cutoff}"):
                index.expire(cutoff)
        for _ in range(min(10, pairs - done)):
            q = random_query(rng, images, domain)
            for index in indexes:
                with _naming(index, "bound check"):
                    violations += dominance_violations(q, index, tol)
            done += 1
    return violations


def dominance_violations(q, index, tol=BOUND_TOL):
    """The dominance checks of ``check_dominance`` for one query over one
    tree index: the nodes whose ``mind`` exceeds the lowest f_stv under
    them by more than ``tol``, the leaf images of
    ``leaf_bound_violations``, the pairs of ``nesting_violations`` and
    the lone root of ``lone_root_violations``. It builds the query's one
    ``QueryContext``, scores from it and passes it to each of those."""
    params = index.params
    ctx = QueryContext(q, params)
    violations = 0
    for node in walk(index.roots()):
        subtree = _subtree_images(node)
        if not subtree:
            continue
        bound = index.mind(ctx, node)
        low = min(combined_score(q, img, params, ctx.terms(img)).f_stv for img in subtree)
        if bound > low + tol:
            violations += 1
        if node.children is None:
            violations += leaf_bound_violations(ctx, node, params, tol)
    return violations + nesting_violations(ctx, index) + lone_root_violations(ctx, index)


def lone_root_violations(ctx, index):
    """1 when ``index`` has exactly one root and the ``mind_visual`` of
    the root's ``max_freq`` under the query context ``ctx`` is not
    exactly 0.0, else 0, compared with no tolerance. The search gives a
    lone root the visual bound 0.0 without computing it; that rests on
    the root holding every live image, so that its per-word maxima are
    the live maxima and ``mind_visual`` sums the very logs of the
    context's denominator."""
    roots = index.roots()
    return int(len(roots) == 1 and ctx.mind_visual(roots[0].max_freq) != 0.0)


def nesting_violations(ctx, index):
    """The number of (parent, child) pairs of ``index``'s trees where the
    child's ``t_max`` exceeds its parent's, a word of its ``max_freq``
    exceeds its parent's, or its terms from ``index.bounds`` with the
    parent's visual bound exceed its exact bound ``index.mind(ctx, child)``,
    compared with no tolerance. The search gives a child its parent's
    visual bound, 1.0, when the miss count decided the parent's; that
    rests on the child's ``max_freq`` keys being a subset of its
    parent's, which the ``max_freq`` check implies. ``ctx`` is the
    query's ``QueryContext``."""
    q = ctx.q
    violations = 0
    for parent in walk(index.roots()):
        children = parent.children
        if children is None:
            continue
        f_v = ctx.mind_visual(parent.max_freq)
        for child, (spatial, recency) in zip(children, index.bounds(q, children)):
            if child.t_max is not None and (parent.t_max is None or child.t_max > parent.t_max):
                violations += 1
            if any(f > parent.max_freq.get(word, 0.0) for word, f in child.max_freq.items()):
                violations += 1
            if spatial + q.weights[1] * f_v + recency > index.mind(ctx, child):
                violations += 1
    return violations


def leaf_bound_violations(ctx, leaf, params, tol=BOUND_TOL):
    """The number of images of ``leaf`` whose f_stv is below
    ``w1 * f_s(image) + w2 * mind_visual(leaf) + w3 * recency(leaf.t_max)``
    by more than ``tol``, all from the query context ``ctx``."""
    q = ctx.q
    w1, w2, w3 = q.weights
    f_v = ctx.mind_visual(leaf.max_freq)
    f_t = kernels.recency_cost(q.t - leaf.t_max, params.decay_base, params.time_unit)
    violations = 0
    for img in leaf.images:
        terms = ctx.terms(img)
        if kernels.combine(w1, w2, w3, terms[0], f_v, f_t) \
                > combined_score(q, img, params, terms).f_stv + tol:
            violations += 1
    return violations


def run_verification(seed=0, instances=50, domain=DEFAULT_DOMAIN):
    report = VerifyReport()
    mismatches, faults, counts = check_oracle_equivalence(seed, instances, domain,
                                                          max_images=200)
    report.record(
        "oracle-equivalence", mismatches == 0,
        f"{instances} instances, {mismatches} mismatches",
    )
    report.record(
        "structure", not faults,
        f"every index the oracle check built, {len(faults)} violations; "
        + ", ".join(f"{n} {name}" for name, n in counts.items())
        + (f"; first: {faults[0]}" if faults else ""),
    )
    pairs = max(10, instances // 2)
    try:
        violations = check_dominance(seed + 1, pairs, domain)
    except IndexRaised as exc:
        report.record("bound-dominance", False, str(exc))
    else:
        report.record("bound-dominance", violations == 0,
                      f"{pairs} pairs, {violations} violations")
    return report
