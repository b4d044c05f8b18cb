import random
import re
from itertools import accumulate

import pytest

from geostream import verify
from geostream.baselines import IfaIndex, StviiIndex
from geostream.engine import walk
from geostream.hiq import HiqConfig
from geostream.verify import (
    build_all,
    check_oracle_equivalence,
    oracle_stream,
    random_images,
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


@pytest.mark.parametrize("plant", [
    node_max_freq, root_copies_its_bucket, leaf_above_capacity, leaf_out_of_order, grown_box,
    alive_expired_slot, slot_before_the_base, bucket_corpus_tf,
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
    assert check_oracle_equivalence(7, 500, domain, max_images=200)[:2] == (0, [])
    assert any(seen)


def test_the_dominance_check_meets_lone_and_several_roots(domain, monkeypatch):
    # at CI's seed and size the bound-dominance check (``run_verification``
    # seeds it one past its own) meets STVII's lone root on every pair,
    # HIQ's when the expiry left it one segment, and HIQ's several roots
    seen = set()
    check = verify.lone_root_violations

    def watched(q, index):
        seen.add((index.kind, min(len(index.roots()), 2)))
        return check(q, index)

    monkeypatch.setattr(verify, "lone_root_violations", watched)
    assert verify.check_dominance(8, 250, domain) == 0
    assert seen == {("hiq", 1), ("hiq", 2), ("stvii", 1)}
