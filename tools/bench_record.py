"""Records the benchmark's deterministic counts in BENCH_<pr>.json, or
checks a fresh run against the newest such file.

    python tools/bench_record.py N         # writes BENCH_N.json at the root
    python tools/bench_record.py --check   # exit 1 if a count moved

Each workload of ``BENCHMARK.json`` runs once as ``perfbench/run.py
--trace 1 --seed 1 --seconds 8``, a single traced pass whose counts
repeat exactly across runs and processes. The file keeps every count-unit metric,
``engine.scored_per_result`` and the modelled ``*.model_bytes`` per
workload. ``--check`` names each of them
that moved; it prints the per-layer timings of the fresh run beside them
but never gates on a timing. A change that moves a count commits its own
``BENCH_<pr>.json`` in place of the last one, and ``git log -p --
'BENCH_*.json'`` is the record.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# read, not listed, so that a workload the benchmark adds is not skipped
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
RUN_ARGS = ("--trace", "1", "--seed", "1", "--seconds", "8")
# counts that read 0 on every workload, and why
ZERO = {
    "hiq.mind.calls": "the search asks bounds(q, nodes), not mind",
    "stvii.mind.calls": "the search asks bounds(q, nodes), not mind",
    "kernels.relevance_cost.calls": "QueryContext folds visual relevance; only the oracle calls it",
    "kernels.visual_weight.calls": "QueryContext folds the word weights; only the oracle calls it",
    "model.mind_visual.calls":
        "top_k_search calls the query context directly; perfbench wraps the module names",
}


def run_workload(workload):
    """``(counts, timings, stamp)`` of one traced run; exits if the run
    failed or checked an answer wrong."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, *RUN_ARGS],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.exit(f"{workload}: perfbench run failed (exit {proc.returncode})\n"
                 + proc.stdout[-2000:] + proc.stderr[-2000:])
    stamp = next((json.loads(line[len("stamp "):]) for line in lines
                  if line.startswith("stamp ")), {})
    counts, timings = {}, {}
    for name, m in result["metrics"].items():
        if (m["unit"] == "count" or name == "engine.scored_per_result"
                or name.endswith(".model_bytes")):
            counts[name] = m["value"]
        else:
            timings[name] = m["value"]
    return counts, timings, stamp


def record(pr):
    counts, stamp = {}, {}
    for workload in WORKLOADS:
        counts[workload], _, stamp = run_workload(workload)
    data = {
        "command": "python3 perfbench/run.py --workload NAME " + " ".join(RUN_ARGS),
        "python": stamp.get("python"),
        "numpy": stamp.get("numpy"),
        "zero_counts": ZERO,
        "counts": counts,
    }
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out.name}")


def newest():
    """The ``BENCH_<pr>.json`` at the root with the largest ``pr``."""
    found = [(int(m.group(1)), p) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    if not found:
        sys.exit("no BENCH_<pr>.json to check against")
    return max(found)[1]


def moved(old, new):
    """``(workload, name, old value, new value)`` for each recorded
    metric that differs, is missing or is new."""
    out = []
    for workload in sorted(set(old) | set(new)):
        a, b = old.get(workload, {}), new.get(workload, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                out.append((workload, name, a.get(name), b.get(name)))
    return out


def check():
    path = newest()
    old = json.loads(path.read_text())["counts"]
    new = {}
    for workload in WORKLOADS:
        new[workload], timings, _ = run_workload(workload)
        for name, value in timings.items():
            print(f"{workload:15s} {name:36s} {value:14.3f}  (timing, not gated)")
    diff = moved(old, new)
    for workload, name, a, b in diff:
        print(f"MOVED {workload} {name}: {a} -> {b}")
    print(f"{len(diff)} counts moved against {path.name}")
    return 1 if diff else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pr", nargs="?", type=int, help="write BENCH_<pr>.json")
    ap.add_argument("--check", action="store_true",
                    help="compare a fresh run with the newest BENCH_<pr>.json")
    args = ap.parse_args(argv)
    if args.check == (args.pr is not None):
        ap.error("give either a PR number or --check")
    if args.check:
        return check()
    record(args.pr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
