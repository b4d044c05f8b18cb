import csv
import json
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import pytest

from geostream import bench, cli
from geostream.baselines import IfaIndex
from geostream.cli import _index_config, build_parser, main
from geostream.hiq import HiqConfig, HiqIndex
from geostream.workload import SPATIAL_MODES, GeneratorConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.tsv"
    code = main([
        "generate", "--out", str(path), "--count", "300", "--vocab", "60",
        "--mean-words", "8", "--seed", "11",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_dataset(self, dataset):
        assert dataset.exists()
        assert len(dataset.read_text().splitlines()) == 300

    def test_deterministic(self, tmp_path, dataset):
        other = tmp_path / "again.tsv"
        main(["generate", "--out", str(other), "--count", "300", "--vocab", "60",
              "--mean-words", "8", "--seed", "11"])
        assert other.read_bytes() == dataset.read_bytes()

    def test_domain_that_starts_with_a_minus(self, tmp_path, capsys):
        # the whole globe: a value that opens with a minus sign and a digit
        # is the flag's, not an option
        out = tmp_path / "globe.tsv"
        code, _, err = run(["generate", "--out", str(out), "--count", "50",
                            "--domain", "-90,90,-180,180"], capsys)
        assert (code, err) == (0, "")
        lats = [float(line.split("\t")[1]) for line in out.read_text().splitlines()]
        assert len(lats) == 50 and min(lats) < 0


class TestQuery:
    def test_single_match_k1(self, tmp_path, capsys):
        data = tmp_path / "tiny.tsv"
        data.write_text("5\t10.0\t10.0\t1000\t1:2,3:1\n")
        code, out, _ = run([
            "query", "--data", str(data), "--index", "hiq",
            "--lat", "10", "--lon", "10", "--words", "1", "--k", "1",
        ], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        qid, rank, iid, score = lines[0].split("\t")
        assert (qid, rank, iid) == ("0", "1", "5")
        float(score)

    @pytest.mark.parametrize("lat", ["-1e1", "-10", "-10.0", "-.1e2"])
    def test_latitude_that_starts_with_a_minus(self, lat, tmp_path, capsys):
        data = tmp_path / "south.tsv"
        data.write_text("5\t-10.0\t-20.0\t1000\t1:2,3:1\n")
        code, out, err = run([
            "query", "--data", str(data), "--domain", "-90,90,-180,180",
            "--lat", lat, "--lon", "-20", "--words", "1", "--k", "1",
        ], capsys)
        assert (code, err) == (0, "")
        assert out == "0\t1\t5\t0.000000\n"

    def test_cross_index_byte_identical(self, dataset, tmp_path, capsys):
        outputs = []
        for kind in ("hiq", "ifa", "stvii"):
            code, out, _ = run([
                "query", "--data", str(dataset), "--index", kind,
                "--lat", "50", "--lon", "50", "--words", "0,1,2,3", "--k", "10",
            ], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].strip()

    def test_every_index_applies_the_window(self, tmp_path, capsys):
        # ten images one hour apart; a window of three one-hour segments
        # holds only the last three
        data = tmp_path / "hourly.tsv"
        data.write_text("".join(f"{i}\t10.0\t10.0\t{3600 * i}\t1:1\n" for i in range(10)))
        outputs = []
        for kind in ("hiq", "ifa", "stvii"):
            code, out, _ = run([
                "query", "--data", str(data), "--index", kind, "--window", "3",
                "--lat", "10", "--lon", "10", "--words", "1", "--k", "10",
            ], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert [line.split("\t")[2] for line in outputs[0].splitlines()] == ["9", "8", "7"]

    def test_each_query_is_answered_at_its_own_time(self, tmp_path, capsys):
        # ten images one hour apart: a query at t = 3600 sees images 0 and
        # 1 only, not the later ones that would score f_t = 0
        data = tmp_path / "hourly.tsv"
        data.write_text("".join(f"{i}\t10.0\t10.0\t{3600 * i}\t1:1\n" for i in range(10)))
        queries = tmp_path / "early.tsv"
        queries.write_text("0\t10.0\t10.0\t3600\t3\t0.2,0.2,0.6\t1\n")
        for kind in ("hiq", "ifa", "stvii"):
            for argv in (["--queries", str(queries)],
                         ["--lat", "10", "--lon", "10", "--words", "1", "--k", "3",
                          "--w1", "0.2", "--w2", "0.2", "--w3", "0.6", "--t", "3600"]):
                code, out, err = run(["query", "--data", str(data), "--index", kind, *argv],
                                     capsys)
                assert (code, err) == (0, "")
                assert [line.split("\t")[2] for line in out.splitlines()] == ["1", "0"]

    def test_query_inside_a_long_stream_equals_the_oracle_at_its_time(self, tmp_path, capsys):
        # a stream of about 13 ten-minute segments through a window of 3;
        # the query file lists its times out of order
        from geostream.engine import brute_force_oracle
        from geostream.workload import (
            DEFAULT_DOMAIN, GeneratorConfig, QueryConfig, generate_images, generate_queries,
            write_dataset, write_queries,
        )

        images = generate_images(GeneratorConfig(seed=4, image_count=400, vocab_size=20,
                                                 mean_words=3.0, rate=0.05))
        data = tmp_path / "stream.tsv"
        write_dataset(images, data)
        last = images[-1].t_c
        times = [images[0].t_c + (last - images[0].t_c) * i // 6 for i in (3, 1, 5, 2, 4)]
        queries = [replace(q, t=t) for q, t in zip(
            generate_queries(QueryConfig(seed=5, count=5, words_per_query=3, k=8),
                             images).queries, times)]
        qfile = tmp_path / "queries.tsv"
        write_queries(queries, qfile)
        window = ["--segment-span", "600", "--window", "3"]
        for kind in ("hiq", "ifa", "stvii"):
            code, out, err = run(["query", "--data", str(data), "--queries", str(qfile),
                                  "--index", kind, *window], capsys)
            assert (code, err) == (0, "")
            lines = [line.split("\t") for line in out.splitlines()]
            assert [int(f[0]) for f in lines] == sorted(int(f[0]) for f in lines)
            for qid, q in enumerate(queries):
                at_t = HiqIndex(HiqConfig(domain=DEFAULT_DOMAIN, segment_span=600, window=3))
                for img in images:
                    if img.t_c > q.t:
                        break
                    at_t.insert(img)
                want = brute_force_oracle(q, at_t.live_images(), at_t.params)
                got = [(int(f[2]), float(f[3])) for f in lines if int(f[0]) == qid]
                assert [i for i, _ in got] == [e.image_id for e in want]
                assert [f for _, f in got] == pytest.approx(
                    [e.score.f_stv for e in want], abs=1e-6)
                assert all(images[i].t_c <= q.t for i, _ in got)
                assert len(got) == q.k

    def test_query_file(self, dataset, tmp_path, capsys):
        from geostream.workload import QueryConfig, generate_queries, parse_dataset, write_queries

        images = list(parse_dataset(dataset))
        wl = generate_queries(QueryConfig(seed=1, count=3, words_per_query=4, k=5), images)
        qfile = tmp_path / "queries.tsv"
        write_queries(wl.queries, qfile)
        code, out, _ = run(["query", "--data", str(dataset), "--queries", str(qfile)], capsys)
        assert code == 0
        qids = {line.split("\t")[0] for line in out.splitlines()}
        assert qids == {"0", "1", "2"}

    def test_explain_prints_search_stats_after_each_query(self, dataset, tmp_path, capsys):
        from geostream.workload import QueryConfig, generate_queries, parse_dataset, write_queries

        images = list(parse_dataset(dataset))
        wl = generate_queries(QueryConfig(seed=2, count=3, words_per_query=4, k=5), images)
        qfile = tmp_path / "queries.tsv"
        write_queries(wl.queries, qfile)
        argv = ["query", "--data", str(dataset), "--queries", str(qfile)]
        code, plain, _ = run(argv, capsys)
        assert code == 0
        code, out, _ = run(argv + ["--explain"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert [line for line in lines if not line.startswith("{")] == plain.splitlines()
        explained = [json.loads(line) for line in lines if line.startswith("{")]
        assert [e["qid"] for e in explained] == [0, 1, 2]
        # each query's JSON line is the last line of its query
        qids = [json.loads(line)["qid"] if line.startswith("{") else int(line.split("\t")[0])
                for line in lines]
        assert qids == sorted(qids)
        assert [i for i, line in enumerate(lines) if line.startswith("{")] == [
            i for i in range(len(lines)) if i + 1 == len(lines) or qids[i + 1] > qids[i]]
        for e in explained:
            assert e["roots"] == 1 and e["bounds_evaluated"] >= 1
            assert e["stop"] in ("bound", "exhausted")
            assert e["lam"] is None or e["lam"] >= 0.0

    def test_invalid_weights_exit_usage(self, dataset, capsys):
        code, _, err = run([
            "query", "--data", str(dataset), "--lat", "50", "--lon", "50",
            "--words", "1", "--w1", "0.9", "--w2", "0.9", "--w3", "0.9",
        ], capsys)
        assert code == 1
        assert "--w1" in err

    def test_stvii_capacity_below_two_exit_usage(self, dataset, capsys):
        argv = ["query", "--data", str(dataset), "--lat", "50", "--lon", "50",
                "--words", "1,2,3", "--capacity", "1"]
        code, out, err = run(argv + ["--index", "stvii"], capsys)
        assert (code, out) == (1, "")
        assert "capacity must be >= 2" in err
        code, out, _ = run(argv + ["--index", "hiq"], capsys)
        assert code == 0 and out.startswith("0\t1\t")

    def test_invalid_k_names_k(self, dataset, capsys):
        code, _, err = run([
            "query", "--data", str(dataset), "--lat", "50", "--lon", "50",
            "--words", "1", "--k", "0",
        ], capsys)
        assert code == 1
        assert "--k" in err

    @pytest.mark.parametrize("words", ["a", "1,"])
    def test_malformed_words_exit_usage(self, dataset, words, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--data", str(dataset), "--lat", "10", "--lon", "10",
                  "--words", words])
        assert exc.value.code == 1
        assert "--words" in capsys.readouterr().err

    def test_missing_data_file_exit_data(self, tmp_path, capsys):
        code, _, err = run([
            "query", "--data", str(tmp_path / "nope.tsv"),
            "--lat", "0", "--lon", "0", "--words", "1",
        ], capsys)
        assert code == 2

    def test_malformed_data_exit_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("garbage line\n")
        code, _, err = run([
            "query", "--data", str(bad), "--lat", "0", "--lon", "0", "--words", "1",
        ], capsys)
        assert code == 2
        assert "line 1" in err

    def test_query_time_outside_int64_exit_usage(self, dataset, capsys):
        code, out, err = run([
            "query", "--data", str(dataset), "--lat", "50", "--lon", "50",
            "--words", "1", "--t", str(2 ** 63),
        ], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--t" in err and "int64" in err

    def test_max_depth_past_its_bound_exit_usage(self, tmp_path, capsys):
        # two images at one point split once per level down to max_depth,
        # one recursion each: 1,200 levels overflowed Python's stack
        twins = tmp_path / "twins.tsv"
        twins.write_text("1\t10.0\t10.0\t5\t1:2\n2\t10.0\t10.0\t6\t1:2\n")
        code, out, err = run([
            "query", "--data", str(twins), "--lat", "10", "--lon", "10", "--words", "1",
            "--capacity", "1", "--max-depth", "1200",
        ], capsys)
        assert (code, out) == (1, "")
        assert err == "error: max_depth must be <= 64, got 1200\n"

    def test_timestamp_outside_int64_exit_data(self, tmp_path, capsys):
        far = tmp_path / "far.tsv"
        far.write_text(f"5\t10.0\t10.0\t{10 ** 30}\t1:2\n")
        code, out, err = run([
            "query", "--data", str(far), "--lat", "10", "--lon", "10", "--words", "1",
        ], capsys)
        assert (code, out) == (2, "")
        assert err == "error: image 5: id or t_c outside int64\n"

    def test_unknown_flag_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--bogus"])
        assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "x.tsv", "--window", "3"],
    ["verify", "--capacity", "5"],
    ["query", "--data", "x.tsv", "--seed", "1"],
])
def test_subcommand_rejects_flags_it_does_not_read(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    "--rate=nan", "--rate=inf", "--zipf=nan", "--mean-words=nan", "--mean-words=-1",
    "--sigma=inf", "--sigma=-1", "--clusters=0", "--rate=0", "--count=-1", "--vocab=0",
])
def test_bad_generator_parameter_exit_usage(flag, tmp_path, capsys):
    out = tmp_path / "data.tsv"
    code, _, err = run(["generate", "--out", str(out), "--count", "5", flag], capsys)
    assert code == 1
    assert "must be" in err and not out.exists()


@pytest.mark.parametrize("flags, reason", [
    (["--start-time", str(2 ** 63 - 1), "--rate", "0.5"], "last timestamp"),
    (["--rate", "1e-300"], "last timestamp"),
    (["--start-time", str(2 ** 70)], "start_time must be within int64"),
], ids=["start-at-the-last-second", "rate-1e-300", "start-past-int64"])
def test_generated_timestamps_outside_int64_exit_usage(flags, reason, tmp_path, capsys):
    # an int64 add would wrap the first two to negative timestamps, and
    # numpy cannot take the third's start as an int64
    out = tmp_path / "w.tsv"
    code, stdout, err = run(["generate", "--out", str(out), "--count", "3", *flags], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err
    assert not out.exists()


@pytest.mark.parametrize("spec, reason", [
    ("a,b,c,d", "could not convert"),
    ("0,100,0", "4 comma-separated values"),
    ("0,100,100,0", "positive extent"),
    ("0,1e200,0,1", "diagonal"),
    ("0,1e-200,0,1e-200", "diagonal"),
])
def test_malformed_domain_exit_usage(spec, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--domain", spec])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--domain" in err and reason in err


@pytest.mark.parametrize("command", [
    ["query", "--data", "x.tsv"],
    ["bench", "--out", "x.csv"],
])
def test_every_index_flag_reaches_the_config(command):
    argv = [*command, "--domain", "0,10,0,20"]
    expected = {}
    for f in fields(HiqConfig):
        if f.name != "domain":
            expected[f.name] = f.default + 1 if isinstance(f.default, int) else f.default + 0.25
            argv += ["--" + f.name.replace("_", "-"), str(expected[f.name])]
    config = _index_config(build_parser().parse_args(argv))
    assert {name: getattr(config, name) for name in expected} == expected
    assert (config.domain.max_lat, config.domain.max_lon) == (10.0, 20.0)


class _Captured(Exception):
    pass


def stream_config(module, argv, monkeypatch):
    """The ``GeneratorConfig`` that ``main(argv)`` hands to
    ``module.generate_images``, which then stops the run."""
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(module, "generate_images", capture)
    with pytest.raises(_Captured):
        main(argv)
    return seen[0]


def test_every_generator_field_is_a_generate_flag(tmp_path, monkeypatch):
    # each field but the seed and the domain, under its short name where
    # it has one, and no other stream flag
    short = {"image_count": "count", "vocab_size": "vocab", "zipf_exponent": "zipf",
             "cluster_count": "clusters", "cluster_sigma": "sigma"}
    argv = ["generate", "--out", str(tmp_path / "d.tsv"), "--seed", "4",
            "--domain", "0,10,0,20"]
    expected, flags = {}, set()
    for f in fields(GeneratorConfig):
        if f.name in ("seed", "domain"):
            continue
        if f.name == "spatial_mode":
            value = next(mode for mode in SPATIAL_MODES if mode != f.default)
        else:
            value = f.default + 1 if isinstance(f.default, int) else f.default + 0.25
        flag = "--" + short.get(f.name, f.name).replace("_", "-")
        flags.add(flag)
        expected[f.name] = value
        argv += [flag, str(value)]
    config = stream_config(cli, argv, monkeypatch)
    assert {name: getattr(config, name) for name in expected} == expected
    assert (config.seed, config.domain.max_lat, config.domain.max_lon) == (4, 10.0, 20.0)
    taken = {s for a in build_parser().commands["generate"]._actions for s in a.option_strings}
    assert taken - flags == {"-h", "--help", "--out", "--seed", "--domain", "--config"}


@pytest.mark.parametrize("flags, given", [
    ([], dict(image_count=5000, vocab_size=500, mean_words=40.0, spatial_mode="clusters")),
    (["--count", "7", "--vocab", "33", "--mean-words", "5.5", "--spatial-mode", "uniform"],
     dict(image_count=7, vocab_size=33, mean_words=5.5, spatial_mode="uniform")),
], ids=["defaults", "flags"])
def test_bench_stream_flags_reach_the_config(flags, given, tmp_path, monkeypatch):
    # bench's four stream flags keep their own defaults; every other
    # field keeps GeneratorConfig's
    config = stream_config(bench, ["bench", "--out", str(tmp_path / "b.csv"), "--seed", "3",
                                   *flags], monkeypatch)
    expected = {f.name: f.default for f in fields(GeneratorConfig) if f.name != "domain"}
    expected.update(given, seed=3)
    assert {name: getattr(config, name) for name in expected} == expected
    assert config.domain == GeneratorConfig().domain


class TestBench:
    def test_axis_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run([
            "bench", "--out", str(out), "--axis", "k", "--count", "200",
            "--vocab", "50", "--mean-words", "6", "--segment-span", "600",
        ], capsys)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "value", "index", "metric", "mean", "p50", "p95"]
        k_values = {r[1] for r in rows[1:] if r[3] == "response_ms"}
        assert len(k_values) == 5  # k swept 10..100
        kinds = {r[2] for r in rows[1:]}
        assert kinds == {"hiq", "ifa", "stvii"}

    def test_wrong_answer_exit_verify(self, tmp_path, capsys, monkeypatch):
        real = IfaIndex.search

        def drop_last(self, q):
            results, stats = real(self, q)
            return results[:-1], stats

        monkeypatch.setattr(IfaIndex, "search", drop_last)
        out = tmp_path / "bench.csv"
        code, _, err = run([
            "bench", "--out", str(out), "--axis", "k", "--count", "200",
            "--vocab", "50", "--mean-words", "6", "--segment-span", "600",
        ], capsys)
        assert code == 3
        assert "k=10: ifa" in err and not out.exists()

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_no_images_exit_usage(self, count, tmp_path, capsys):
        # a sweep over no image answers no query, so it writes no file
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--out", str(out), "--axis", "k", "--count", count])
        assert exc.value.code == 1
        assert "--count: must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_passes_on_small_run(self, capsys):
        code, out, _ = run(["verify", "--instances", "10", "--seed", "3"], capsys)
        assert code == 0
        assert "PASS oracle-equivalence" in out
        assert "PASS structure" in out
        assert "PASS bound-dominance" in out

    def test_domain_that_starts_with_a_minus(self, capsys):
        code, out, err = run(["verify", "--instances", "5", "--domain", "-90,90,-180,180"],
                             capsys)
        assert (code, err) == (0, "")
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["PASS", "oracle-equivalence"], ["PASS", "structure"], ["PASS", "bound-dominance"]]

    def test_structure_line_counts_the_paths_it_reached(self, capsys):
        # CI's seed: the streams trim IFA, split HIQ leaves over more
        # than one level, empty STVII nodes, split STVII inner nodes (the
        # split's box path) and rebuild HIQ trees after a cutoff inside
        # their segment, so the check sees them. The exact counts pin the
        # trees on the late, clustered and jump shapes and after off-grid
        # expiry: a change that builds other trees moves them
        code, out, _ = run(["verify", "--instances", "100", "--seed", "7"], capsys)
        assert code == 0
        line = next(line for line in out.splitlines() if line.startswith("PASS structure"))
        found = re.search(r"(\d+) IFA trims, (\d+) multi-level HIQ splits, "
                          r"(\d+) STVII prunes that emptied a node, (\d+) STVII inner splits, "
                          r"(\d+) HIQ trees rebuilt after a cutoff", line)
        assert found and [int(n) for n in found.groups()] == [3, 5, 9, 8, 4], line

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_exit_usage(self, instances, capsys):
        # a run over no instance checks nothing, so it cannot pass
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", instances])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "--instances: must be at least 1" in captured.err
        assert "PASS" not in captured.out


class TestConfigFile:
    def test_config_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("count=5\nseed=9\n")
        out = tmp_path / "data.tsv"
        code, _, _ = run(["generate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_required_flag_from_config(self, tmp_path, capsys):
        out = tmp_path / "data.tsv"
        cfg = tmp_path / "geo.cfg"
        cfg.write_text(f"out={out}\ncount=3\n")
        code, _, _ = run(["generate", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("count=5\n")
        out = tmp_path / "data.tsv"
        code, _, _ = run([
            "generate", "--config", str(cfg), "--out", str(out), "--count", "7",
        ], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 7

    def test_index_flag_beats_config(self, tmp_path, capsys, monkeypatch):
        # 100 is --capacity's default, and the command line still wins;
        # count is a generate key, which query ignores
        from geostream import bench

        cfg = tmp_path / "geo.cfg"
        cfg.write_text("capacity=7\nwindow=3\ncount=5\n")
        data = tmp_path / "tiny.tsv"
        data.write_text("5\t10.0\t10.0\t1000\t1:2,3:1\n")
        built = []
        real = bench.build_index
        monkeypatch.setattr(bench, "build_index",
                            lambda kind, config: built.append(config) or real(kind, config))
        code, _, _ = run([
            "query", "--config", str(cfg), "--data", str(data), "--capacity", "100",
            "--lat", "10", "--lon", "10", "--words", "1",
        ], capsys)
        assert code == 0
        assert (built[0].capacity, built[0].window) == (100, 3)

    @pytest.mark.parametrize("flag, reason", [
        ("--co", "ambiguous option"), ("--conf", "--config must be spelled out"),
    ])
    def test_config_prefix_exit_usage(self, flag, reason, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "data.tsv"), flag, "5"])
        assert exc.value.code == 1
        assert reason in capsys.readouterr().err

    def test_bad_config_value_exit_usage(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("capacity=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["query", "--config", str(cfg), "--data", str(tmp_path / "data.tsv")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--capacity" in err and "abc" in err

    @pytest.mark.parametrize("command", ["generate", "query", "bench", "verify"])
    def test_unknown_config_key_exit_data(self, command, tmp_path, capsys):
        # a misspelt key would otherwise leave its flag at the default
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("seed=3\ncapacty=5\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 2" in err and "'capacty'" in err
        assert out == ""

    def test_config_line_without_value_exit_data(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("capacity\n")
        code, _, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert "line 1" in err


def test_readme_cli_block_parses():
    # every ``geostream ...`` line of the README's CLI block
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
    commands = [line for line in block.splitlines() if line.startswith("geostream ")]
    assert len(commands) >= 4
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])
