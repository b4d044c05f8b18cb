"""Alternates untraced benchmark runs of two checkouts and summarises each
end-to-end metric of the pairs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seed S] [--seconds T]

Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones. ``--seconds`` defaults to the benchmark's
``run_seconds``. For each end-to-end metric of ``BENCHMARK.json`` the
summary gives each side's median and quartiles, the change of the
median, and the pairs the change won (ties count for neither side); then
it lists each pair's two values. A gain is marked where the change won
at least nine tenths of the pairs and its median is better than the
parent's by more than the distance between the parent's quartiles. A
loss is marked where the change's median is worse than the parent's by
more than the metric's ``bound``, a share of the parent's median, as the
benchmark's gate reads it. A metric is marked unresolved where its
spread, the distance between the parent's quartiles over the parent's
median, is wider than its bound, unless every run of the change is
better than every run of the parent: such a metric cannot be called
unchanged. Then come informational rows for the roll stalls,
``hiq/ifa/stvii.roll_stall_ms``, which perfbench prints on its
human-readable lines but not in its JSON: each side's median and each
pair's values, with no mark, as they are not metrics of
``BENCHMARK.json``. The last line counts the runs that were not
``correct``; any such run makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a roll stall on perfbench's human-readable lines: name, value, unit
ROLL_STALL = re.compile(r"^(\w+\.roll_stall_ms)\s+(-?\d[\d.eE+-]*)\s")


def run_once(checkout, workload, seed, seconds):
    """The result object of one untraced run in ``checkout``, with the
    roll stalls of its other lines under ``roll_stalls``, or ``None`` when
    the run printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result["roll_stalls"] = roll_stalls(lines[:-1])
    return result


def roll_stalls(lines):
    """``{name: ms}`` of the roll stalls that perfbench's human-readable
    ``lines`` give a value, in their order."""
    found = (ROLL_STALL.match(line) for line in lines)
    return {m.group(1): float(m.group(2)) for m in found if m}


def quartiles(values):
    """``(q1, median, q3)`` of at least one value, by the inclusive
    method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worse_than_bound(parent, change, lower, bound):
    """Whether the median ``change`` is worse than the median ``parent``
    by more than ``bound`` times ``parent``; never for a metric with no
    bound."""
    if bound is None:
        return False
    if lower:
        return change > parent * (1.0 + bound)
    return change < parent * (1.0 - bound)


def unresolved(both, lower, bound):
    """Whether the parent's runs of ``both``, ``(parent, change)`` pairs,
    spread wider than ``bound``, their quartile distance over their
    median, while some run of the change is no better than some run of
    the parent; never for a metric with no bound."""
    if bound is None:
        return False
    parent, change = [a for a, _ in both], [b for _, b in both]
    q1, median, q3 = quartiles(parent)
    if q3 - q1 <= bound * abs(median):
        return False
    return max(change) >= min(parent) if lower else min(change) <= max(parent)


def summarise(pairs, metrics):
    """One row per end-to-end metric over ``pairs`` of ``(parent result,
    change result)``. A metric missing from either run of a pair leaves
    that pair out of its row."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                for a, b in pairs
                if a and b and name in a.get("metrics", {}) and name in b.get("metrics", {})]
        if not both:
            continue
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        gap = parent[1] - change[1] if lower else change[1] - parent[1]
        rows.append({
            "name": name,
            "unit": m["unit"],
            "parent": parent,
            "change": change,
            "delta": (change[1] - parent[1]) / parent[1] if parent[1] else None,
            "wins": wins,
            "pairs": len(both),
            "gain": wins >= 0.9 * len(both) and gap > parent[2] - parent[0],
            "worse": worse_than_bound(parent[1], change[1], lower, m.get("bound")),
            "unresolved": unresolved(both, lower, m.get("bound")),
            "values": both,
        })
    return rows


def summarise_stalls(pairs):
    """One informational row per roll stall over the pairs whose two runs
    both give it: each side's median and the pairs' values, unmarked."""
    values = {}
    for a, b in pairs:
        theirs = b.get("roll_stalls", {}) if b else {}
        for name, ms in (a.get("roll_stalls", {}) if a else {}).items():
            if name in theirs:
                values.setdefault(name, []).append((ms, theirs[name]))
    return [{"name": name, "parent": statistics.median(a for a, _ in both),
             "change": statistics.median(b for _, b in both), "values": both}
            for name, both in values.items()]


def format_stalls(rows):
    """Each roll stall's medians and change of the median, then each
    pair's values."""
    lines = [f"{'roll stall (no gate)':26s} {'unit':5s} {'parent median':>14s} "
             f"{'change median':>14s} {'median':>7s}"]
    for r in rows:
        delta = f"{100 * (r['change'] - r['parent']) / r['parent']:+.1f}%" if r["parent"] else "-"
        lines.append(f"{r['name']:26s} {'ms':5s} {num(r['parent']):>14s} "
                     f"{num(r['change']):>14s} {delta:>7s}")
    return lines + format_pairs(rows)


def num(v):
    return f"{v:.4f}" if abs(v) < 100 else f"{v:.2f}" if abs(v) < 10_000 else f"{v:.0f}"


def format_rows(rows):
    def side(q):
        return f"{num(q[1])} [{num(q[0])}, {num(q[2])}]"

    lines = [f"{'metric':26s} {'unit':5s} {'parent median [q1, q3]':>28s} "
             f"{'change median [q1, q3]':>28s} {'median':>7s} {'wins':>7s}"]
    for r in rows:
        delta = "-" if r["delta"] is None else f"{100 * r['delta']:+.1f}%"
        mark = "".join(f"  {name}" for name, on in (
            ("gain", r["gain"]), ("WORSE THAN BOUND", r["worse"]),
            ("unresolved", r["unresolved"])) if on)
        lines.append(f"{r['name']:26s} {r['unit']:5s} {side(r['parent']):>28s} "
                     f"{side(r['change']):>28s} {delta:>7s} {r['wins']:>3d}/{r['pairs']:<3d}{mark}")
    return lines


def format_pairs(rows):
    """One line per row with each pair's ``parent/change`` values, in
    pair order."""
    return [f"{r['name']:26s} " + " ".join(f"{num(a)}/{num(b)}" for a, b in r["values"])
            for r in rows]


def not_correct(pairs):
    """The number of runs that printed no result or were not correct."""
    return sum(1 for pair in pairs for r in pair if not (r and r.get("correct")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    checkouts, pairs = (args.parent, args.change), []
    for i in range(args.pairs):
        seed = args.seed + i
        pair = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
        pairs.append(tuple(pair))
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr, flush=True)
    print(f"# {args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{seconds:g} s a run")
    rows = summarise(pairs, bench["end_to_end"])
    for line in format_rows(rows):
        print(line)
    print("# each pair, parent/change")
    for line in format_pairs(rows):
        print(line)
    print("# informational, parent/change")
    for line in format_stalls(summarise_stalls(pairs)):
        print(line)
    bad = not_correct(pairs)
    print(f"{bad} of {2 * len(pairs)} runs not correct")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
