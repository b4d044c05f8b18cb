"""Tiny-size smoke runs of every benchmark workload, untraced and traced.

Checks the output contract: every metric named in BENCHMARK.json is
printed with its unit, no operation fails and the traced counts repeat.
Run with ``python -m pytest perfbench``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "clustered-read": dict(images=300, queries=30, side_every=5, oracle=3),
    "rolling-stream": dict(window=12, segment_span=3, rate=2.0, timed_images=60,
                           query_every=2, side_every=3, oracle=3),
    "wide-query": dict(images=200, queries=20, side_every=5, oracle=3),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "SIZES", TINY)


def _run(workload, trace, capsys):
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_lists_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tiny, capsys):
    code, lines, result = _run(workload, 0, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:2] == ["failed_ops", "0.000000"] for line in lines)
    assert any(line.startswith("stamp {") for line in lines)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload, tiny, capsys):
    code, _, result = _run(workload, 1, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(bench.PER_LAYER)
    assert result["metrics"]["hiq.insert.calls"]["value"] > 0
    assert result["metrics"]["engine.score.calls"]["value"] > 0


def test_tracing_leaves_the_program_as_it_was():
    scorer = bench.engine.combined_score
    add_image = bench.model.CorpusStats.add_image
    with bench.Pass(bench.Recorder(), bench.Tracer(), check=False).instrumented():
        assert bench.engine.combined_score is not scorer
    assert bench.engine.combined_score is scorer
    assert bench.model.CorpusStats.add_image is add_image
