"""``geostream`` command line: generate | query | bench | verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .hiq import HiqConfig
from .model import ConfigError, DomainError, Query, SpatialDomain
from .workload import (
    DataFormatError,
    GeneratorConfig,
    QueryConfig,
    generate_images,
    generate_queries,
    parse_dataset,
    parse_queries,
    write_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"line {lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--xi", type=float, default=0.5)
    p.add_argument("--decay-base", type=float, default=2.0)
    p.add_argument("--time-unit", type=float, default=3600.0)
    p.add_argument("--segment-span", type=int, default=3600)
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--capacity", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=16)
    p.add_argument("--domain", default="0,100,0,100",
                   help="min_lat,max_lat,min_lon,max_lon")


def _parse_domain(spec):
    parts = [float(x) for x in spec.split(",")]
    if len(parts) != 4:
        raise ConfigError("--domain needs 4 comma-separated values")
    return SpatialDomain(*parts)


def _index_config(args):
    return HiqConfig(
        domain=_parse_domain(args.domain),
        segment_span=args.segment_span,
        window=args.window,
        capacity=args.capacity,
        max_depth=args.max_depth,
        xi=args.xi,
        decay_base=args.decay_base,
        time_unit=args.time_unit,
    )


def build_parser():
    parser = _Parser(prog="geostream",
                     description="streaming top-k spatial-temporal image search")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    _add_common(g)
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=1000)
    g.add_argument("--vocab", type=int, default=1000)
    g.add_argument("--mean-words", type=float, default=120.0)
    g.add_argument("--zipf", type=float, default=1.0)
    g.add_argument("--rate", type=float, default=200.0)
    g.add_argument("--start-time", type=int, default=1_600_000_000)
    g.add_argument("--spatial-mode", choices=("uniform", "clusters"), default="uniform")
    g.add_argument("--clusters", type=int, default=8)
    g.add_argument("--sigma", type=float, default=2.0)

    q = sub.add_parser("query", help="build an index from a dataset and run queries")
    _add_common(q)
    q.add_argument("--data", required=True)
    q.add_argument("--index", choices=("hiq", "ifa", "stvii"), default="hiq")
    q.add_argument("--queries", help="query TSV file; omit for a single inline query")
    q.add_argument("--lat", type=float)
    q.add_argument("--lon", type=float)
    q.add_argument("--t", type=int)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--words", help="comma-separated query word ids")
    q.add_argument("--w1", type=float, default=1 / 3)
    q.add_argument("--w2", type=float, default=1 / 3)
    q.add_argument("--w3", type=float, default=1 / 3)

    b = sub.add_parser("bench", help="run the measurement harness")
    _add_common(b)
    b.add_argument("--out", required=True)
    b.add_argument("--axis", default="all",
                   choices=("all", "arrival_rate", "node_capacity", "l", "k", "n",
                            "omega1", "omega2", "omega3", "storage"))
    b.add_argument("--count", type=int, default=5000)
    b.add_argument("--vocab", type=int, default=500)
    b.add_argument("--mean-words", type=float, default=40.0)
    b.add_argument("--spatial-mode", choices=("uniform", "clusters"), default="clusters")

    v = sub.add_parser("verify", help="oracle-equivalence and bound-dominance suites")
    _add_common(v)
    v.add_argument("--instances", type=int, default=50)
    return parser


def cmd_generate(args):
    cfg = GeneratorConfig(
        seed=args.seed,
        image_count=args.count,
        vocab_size=args.vocab,
        mean_words=args.mean_words,
        zipf_exponent=args.zipf,
        spatial_mode=args.spatial_mode,
        cluster_count=args.clusters,
        cluster_sigma=args.sigma,
        rate=args.rate,
        start_time=args.start_time,
        domain=_parse_domain(args.domain),
    )
    write_dataset(generate_images(cfg), args.out)
    return EXIT_OK


def cmd_query(args):
    config = _index_config(args)
    index = bench_mod.build_index(args.index, config)
    for img in parse_dataset(args.data):
        index.insert(img)

    if args.queries:
        queries = parse_queries(args.queries)
    else:
        if args.words is None or args.lat is None or args.lon is None:
            raise ConfigError("inline query needs --words, --lat and --lon")
        try:
            q = Query(
                psi=tuple(int(w) for w in args.words.split(",")),
                loc=(args.lat, args.lon),
                t=args.t if args.t is not None else max(
                    (img.t_c for img in index.live_images()), default=0
                ),
                k=args.k,
                weights=(args.w1, args.w2, args.w3),
            )
        except ConfigError as exc:
            raise ConfigError(f"--w1/--w2/--w3: {exc}") from exc
        queries = [q]

    for qid, q in enumerate(queries):
        results, _ = index.search(q)
        for rank, entry in enumerate(results, start=1):
            print(f"{qid}\t{rank}\t{entry.image_id}\t{entry.score.f_stv:.6f}")
    return EXIT_OK


def cmd_bench(args):
    gen_cfg = GeneratorConfig(
        seed=args.seed,
        image_count=args.count,
        vocab_size=args.vocab,
        mean_words=args.mean_words,
        spatial_mode=args.spatial_mode,
        domain=_parse_domain(args.domain),
    )
    index_cfg = _index_config(args)
    rows = []
    axes = (
        ["arrival_rate", "node_capacity", "l", "k", "n", "omega1", "storage"]
        if args.axis == "all"
        else [args.axis]
    )
    for axis in axes:
        if axis == "arrival_rate":
            rows.extend(bench_mod.run_insertion_bench(gen_cfg, index_cfg))
            rows.extend(bench_mod.run_deletion_bench(gen_cfg, index_cfg))
        elif axis == "storage":
            rows.extend(bench_mod.storage_rows(gen_cfg, index_cfg))
        else:
            rows.extend(bench_mod.run_query_bench(gen_cfg, index_cfg, axis))
    bench_mod.write_csv(rows, args.out)
    return EXIT_OK


def cmd_verify(args):
    from .verify import run_verification

    report = run_verification(seed=args.seed, instances=args.instances,
                              domain=_parse_domain(args.domain))
    for line in report.lines:
        print(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = _load_config_file(args.config)
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_DATA
        defaults = {}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for a in action.choices[args.command]._actions:
                    defaults[a.dest] = a.default
            else:
                defaults[action.dest] = action.default
        # a config value applies unless the flag was set away from its default
        for key, val in overrides.items():
            if hasattr(args, key) and getattr(args, key) == defaults.get(key):
                current = defaults.get(key)
                caster = type(current) if current is not None else str
                setattr(args, key, caster(val))
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "query":
            return cmd_query(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "verify":
            return cmd_verify(args)
        return EXIT_USAGE
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (DataFormatError, DomainError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
