import random
import re
from itertools import accumulate

import pytest

from geostream import verify
from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import ResultEntry, TreeIndex, walk
from geostream.hiq import HiqConfig
from geostream.model import QueryContext, ScoreBreakdown
from geostream.verify import (
    build_all,
    check_oracle_equivalence,
    oracle_stream,
    random_images,
    results_match,
    run_verification,
    structure_violations,
)


def node_max_freq(hiq, ifa, stvii):
    roots = hiq.roots()
    node = next(n for n in walk(roots) if n.max_freq and all(n is not r for r in roots))
    node.max_freq[next(iter(node.max_freq))] /= 2
    return hiq, ": max_freq"


def root_copies_its_bucket(hiq, ifa, stvii):
    root = hiq.roots()[0]
    root.max_freq = dict(root.max_freq)
    return hiq, "max_freq is not its bucket's"


def leaf_above_capacity(hiq, ifa, stvii):
    # four leaves folded into their parent in arrival order, as a split
    # that did not recurse would leave them
    node = next(n for n in walk(hiq.roots())
                if n.children and all(c.children is None for c in n.children))
    arrival = {im.id: i for i, im in enumerate(hiq.live_images())}
    node.images = sorted((im for child in node.children for im in child.images),
                         key=lambda im: arrival[im.id])
    node.children = None
    return hiq, "images"


def leaf_out_of_order(hiq, ifa, stvii):
    next(n for n in walk(hiq.roots()) if n.children is None and len(n.images) > 1).images.reverse()
    return hiq, "in arrival order"


def grown_box(hiq, ifa, stvii):
    next(n for n in walk(stvii.roots()) if n.children is None).mbr[0] -= 1.0
    return stvii, ": mbr"


def alive_expired_slot(hiq, ifa, stvii):
    # an expired slot moved to the cutoff, where a slot is live
    ifa.t_c[next(s for s, t in enumerate(ifa.t_c) if t < ifa._cutoff)] = ifa._cutoff
    return ifa, "slots at or after the cutoff"


def slot_before_the_base(hiq, ifa, stvii):
    # a dead posting kept at a slot id the table no longer holds
    slots, freqs = next(iter(ifa.postings.values()))
    slots.insert(0, ifa._base - 1)
    freqs.insert(0, 0.5)
    return ifa, "a slot outside the table"


def bucket_corpus_tf(hiq, ifa, stvii):
    bucket = next(iter(stvii.stats.buckets.values()))
    bucket.corpus_tf[next(iter(bucket.corpus_tf))] += 1
    return stvii, ": corpus_tf"


def total_word_count(hiq, ifa, stvii):
    hiq.stats.total_word_count += 1
    return hiq, "total_word_count"


def live_before_the_cutoff(hiq, ifa, stvii):
    # the cutoff moved past the oldest live image, which stays
    stvii._cutoff = min(im.t_c for im in stvii.live_images()) + 1
    return stvii, "a live image older than the cutoff"


def image_held_twice(hiq, ifa, stvii):
    # a second copy of an image in its own leaf, which keeps the leaf's
    # box, aggregates and capacity
    leaf = next(n for n in walk(stvii.roots())
                if n.children is None and len(n.images) < stvii.capacity)
    leaf.images.append(leaf.images[0])
    return stvii, "the leaves do not hold the live images once each"


def children_out_of_order(hiq, ifa, stvii):
    # the same four quadrants, NE first: each still holds its own images
    node = next(n for n in walk(hiq.roots()) if n.children)
    node.children[0], node.children[1] = node.children[1], node.children[0]
    return hiq, "children do not tile it"


def grandchildren_lifted(hiq, ifa, stvii):
    # an inner node takes its grandchildren as children: the same box and
    # aggregates over the same images, more children than capacity allows
    node = next(n for n in walk(stvii.roots())
                if n.children and all(c.children for c in n.children)
                and sum(len(c.children) for c in n.children) > stvii.capacity)
    node.children = [g for c in node.children for g in c.children]
    return stvii, f"{len(node.children)} children"


def slot_columns_differ(hiq, ifa, stvii):
    ifa.lat.append(50.0)
    return ifa, "the slot columns differ in length"


def posting_without_its_slot(hiq, ifa, stvii):
    slots, freqs = next(iter(ifa.postings.values()))
    freqs.append(0.5)
    return ifa, "not one per slot in slot order"


def live_posting_ratio(hiq, ifa, stvii):
    # a live slot's posting at half its image's ratio
    base = ifa._base
    slots, freqs = next(cols for cols in ifa.postings.values()
                        if ifa.t_c[cols[0][-1] - base] >= ifa._cutoff)
    freqs[-1] /= 2
    return ifa, "the live postings are not the live images' words"


def untrimmed_dead_prefix(hiq, ifa, stvii):
    # dead slots ahead of the table, which a trim would have cut: no
    # posting names them, and the table holds twice the live images
    n, live = len(ifa.ids), ifa.image_count()
    dead = max(1, 2 * live - n)
    for col, value in ((ifa.lat, 50.0), (ifa.lon, 50.0), (ifa.t_c, ifa._cutoff - 1),
                       (ifa.ids, -1)):
        col[:0] = type(col)(col.typecode, [value] * dead)
    ifa._base -= dead
    return ifa, f"{n + dead} slots for {live} live images"


@pytest.mark.parametrize("plant", [
    node_max_freq, root_copies_its_bucket, leaf_above_capacity, leaf_out_of_order, grown_box,
    alive_expired_slot, slot_before_the_base, bucket_corpus_tf, total_word_count,
    live_before_the_cutoff, image_held_twice, children_out_of_order, grandchildren_lifted,
    slot_columns_differ, posting_without_its_slot, live_posting_ratio, untrimmed_dead_prefix,
], ids=lambda plant: plant.__name__)
def test_a_planted_fault_is_reported(domain, plant):
    # a plant breaks one index of a sound trio, whose window rolled and
    # whose last cutoff left IFA dead slots, and names the one fault
    config = HiqConfig(domain=domain, segment_span=20_000, window=3, capacity=4)
    hiq, ifa, stvii = build_all(random_images(random.Random(5), 400, domain), config)
    for index in (hiq, ifa, stvii):
        assert index.expire(index.window_start() + 2_000) > 0
        assert structure_violations(index) == []
    index, message = plant(hiq, ifa, stvii)
    faults = structure_violations(index)
    assert len(faults) == 1 and message in faults[0], faults


def test_an_index_that_raises_is_a_fault(domain, monkeypatch):
    # a roll or an expiry whose prune raises ends its dataset with one
    # fault naming the index, the operation and the exception; the check
    # goes on to the next dataset, and the queries left unanswered count
    # as mismatches
    def broken_prune(self, node, cutoff):
        raise KeyError(17)

    monkeypatch.setattr(StviiIndex, "_prune", broken_prune)
    mismatches, faults, _counts = check_oracle_equivalence(7, 100, domain, max_images=200)
    assert len(faults) >= 2, faults
    assert all(re.fullmatch(r"stvii: (insert of image \d+|expire at [\d.]+) raised KeyError: 17",
                            f) for f in faults)
    assert mismatches == 20 * len(faults)
    report = run_verification(seed=7, instances=100, domain=domain)
    assert not report.ok
    assert any(line.startswith("FAIL structure") and "raised KeyError: 17" in line
               for line in report.lines), report.lines
    assert any(line.startswith("FAIL bound-dominance (stvii: insert of image")
               for line in report.lines), report.lines


def test_late_arrivals_reach_the_checks(domain, monkeypatch):
    # the ``late`` shape puts images behind images of a later segment;
    # at CI's seed and sizes no arrival is refused, and some structure
    # check meets an IFA table with a dead slot behind a live one
    images = oracle_stream(random.Random(3), 200, domain, "late")
    heads = accumulate((im.t_c // 20_000 for im in images), max)
    assert any(im.t_c // 20_000 < head for im, head in zip(images[1:], heads))
    seen = []
    check = verify.structure_violations

    def watched(index):
        if isinstance(index, IfaIndex):
            alive = [t >= index._cutoff for t in index.t_c]
            seen.append(True in alive and False in alive[alive.index(True):])
        return check(index)

    monkeypatch.setattr(verify, "structure_violations", watched)
    # the whole result, so a change to the datasets shows in the path counts
    # that ``geostream verify --instances 500 --seed 7`` prints
    assert check_oracle_equivalence(7, 500, domain, max_images=200) == (0, [], {
        "IFA trims": 21, "multi-level HIQ splits": 17, "STVII prunes that emptied a node": 68,
        "STVII inner splits": 43, "HIQ trees rebuilt after a cutoff": 22})
    assert any(seen)


def test_the_dominance_check_meets_lone_and_several_roots(domain, monkeypatch):
    # at CI's seed and size the bound-dominance check (``run_verification``
    # seeds it one past its own) meets STVII's lone root on every pair,
    # HIQ's when the expiry left it one segment, and HIQ's several roots
    seen = set()
    check = verify.lone_root_violations

    def watched(ctx, index):
        seen.add((index.kind, min(len(index.roots()), 2)))
        return check(ctx, index)

    monkeypatch.setattr(verify, "lone_root_violations", watched)
    assert verify.check_dominance(8, 250, domain) == 0
    assert seen == {("hiq", 1), ("hiq", 2), ("stvii", 1)}


def test_results_match_compares_ids_and_costs_within_the_tolerance():
    def entries(*pairs):
        return [ResultEntry(i, ScoreBreakdown(0.0, 0.0, 0.0, f)) for i, f in pairs]

    answer = entries((3, 0.25), (7, 0.5))
    assert results_match(answer, entries((3, 0.25), (7, 0.5 + 1e-10)))
    assert not results_match(answer, entries((3, 0.25)))
    assert not results_match(answer, entries((3, 0.25), (8, 0.5)))
    assert not results_match(answer, entries((3, 0.25), (7, 0.5 + 2e-9)))


def test_a_wrong_answer_fails_the_oracle_line(domain, monkeypatch):
    # IFA's every answer moved 1e-6 up: each query is a mismatch, and the
    # oracle line of the report fails while the other two still pass
    real = IfaIndex.search

    def shifted(self, q):
        results, stats = real(self, q)
        return [e._replace(score=e.score._replace(f_stv=e.score.f_stv + 1e-6))
                for e in results], stats

    monkeypatch.setattr(IfaIndex, "search", shifted)
    assert check_oracle_equivalence(3, 40, domain, max_images=100)[:2] == (40, [])
    report = run_verification(seed=3, instances=40, domain=domain)
    assert not report.ok
    assert report.lines[0] == "FAIL oracle-equivalence (40 instances, 40 mismatches)"
    assert [line.split()[0] for line in report.lines[1:]] == ["PASS", "PASS"]


def test_a_bound_above_its_subtree_is_a_dominance_violation(domain, monkeypatch):
    # every node bound raised by 0.5: each node with an image under it
    # costs less than its bound, and the report's dominance line fails
    real = TreeIndex.mind
    monkeypatch.setattr(TreeIndex, "mind", lambda self, ctx, node: real(self, ctx, node) + 0.5)
    assert verify.check_dominance(8, 20, domain) > 0
    report = run_verification(seed=7, instances=40, domain=domain)
    assert [line.split()[0] for line in report.lines] == ["PASS", "PASS", "FAIL"]
    assert report.lines[2].startswith("FAIL bound-dominance (20 pairs, ")


def test_a_child_bound_below_its_parents_terms_is_a_nesting_violation(domain, monkeypatch):
    # a looser child bound, 0.5 lower, is still a lower bound, but it falls
    # below the child's own terms with its parent's visual bound, which
    # the search may give it in its place
    config = HiqConfig(domain=domain, segment_span=20_000, window=3, capacity=4)
    hiq, _ifa, stvii = build_all(random_images(random.Random(5), 400, domain), config)
    q = verify.random_query(random.Random(6), hiq.live_images(), domain)
    real = TreeIndex.mind
    for index in (hiq, stvii):
        assert verify.nesting_violations(QueryContext(q, index.params), index) == 0
        inner = sum(len(n.children) for n in walk(index.roots()) if n.children)
        with monkeypatch.context() as m:
            m.setattr(TreeIndex, "mind", lambda self, ctx, node: real(self, ctx, node) - 0.5)
            assert verify.nesting_violations(QueryContext(q, index.params), index) == inner
            assert verify.dominance_violations(q, index) == inner
