"""``geostream`` command line: generate | query | bench | verify.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, fields

from . import bench as bench_mod
from .hiq import HiqConfig
from .model import ConfigError, DomainError, Query, SpatialDomain
from .verify import run_verification
from .workload import (
    SPATIAL_MODES,
    DataFormatError,
    GeneratorConfig,
    generate_images,
    parse_dataset,
    parse_queries,
    write_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token of a minus sign and a digit or a point, such as the
        # domain -90,90,-180,180 or the latitude -1e1, is a value, which the
        # flag before it takes; argparse reads only -N and -N.N so
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config_file(path, known):
    """The ``key=value`` lines of a config file, keys with ``_`` for
    ``-``. A line with no ``=`` or a key outside ``known`` raises
    ``DataFormatError``."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"line {lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise DataFormatError(f"line {lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def _parse_domain(spec):
    """The type of ``--domain``: ``min_lat,max_lat,min_lon,max_lon``."""
    try:
        parts = [float(x) for x in spec.split(",")]
        if len(parts) != 4:
            raise ValueError("needs 4 comma-separated values")
        return SpatialDomain(*parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_words(spec):
    """The type of ``--words``: comma-separated query word ids."""
    try:
        return tuple(int(w) for w in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated word ids, got {spec!r}") from None


def _at_least_one(spec):
    """The type of ``verify --instances`` and ``bench --count``: a whole
    number of at least 1, since a run over none checks or measures
    nothing."""
    try:
        n = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {spec!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# every HiqConfig field but the domain is one index flag of the same name
_INDEX_FIELDS = [f for f in fields(HiqConfig) if f.name != "domain"]


def _index_config(args):
    return HiqConfig(domain=args.domain,
                     **{f.name: getattr(args, f.name) for f in _INDEX_FIELDS})


# every GeneratorConfig field but the seed and the domain is one generate
# flag, of the field's name unless it has a short one here
_SHORT = {"image_count": "count", "vocab_size": "vocab", "zipf_exponent": "zipf",
          "cluster_count": "clusters", "cluster_sigma": "sigma"}
_STREAM_FIELDS = {f: _SHORT.get(f.name, f.name) for f in fields(GeneratorConfig)
                  if f.name not in ("seed", "domain")}


def _generator_config(args):
    """The stream of ``generate`` or ``bench``: each stream flag the
    subcommand has, and ``GeneratorConfig``'s default for the rest."""
    given = vars(args)
    return GeneratorConfig(seed=args.seed, domain=args.domain,
                           **{f.name: given[dest] for f, dest in _STREAM_FIELDS.items()
                              if dest in given})


def build_parser():
    parser = _Parser(prog="geostream",
                     description="streaming top-k spatial-temporal image search")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--domain", type=_parse_domain, default="0,100,0,100",
                        help="min_lat,max_lat,min_lon,max_lon")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    indexed = argparse.ArgumentParser(add_help=False)
    for f in _INDEX_FIELDS:
        indexed.add_argument("--" + f.name.replace("_", "-"),
                             type=type(f.default), default=f.default)

    g = sub.add_parser("generate", help="write a synthetic dataset", parents=[common, seeded])
    g.add_argument("--out", required=True)
    for f, dest in _STREAM_FIELDS.items():
        g.add_argument("--" + dest.replace("_", "-"), type=type(f.default), default=f.default,
                       choices=SPATIAL_MODES if f.name == "spatial_mode" else None)

    q = sub.add_parser("query", help="build an index from a dataset and run queries",
                       parents=[common, indexed])
    q.add_argument("--data", required=True)
    q.add_argument("--index", choices=bench_mod.INDEX_KINDS, default="hiq")
    q.add_argument("--queries", help="query TSV file; omit for a single inline query")
    q.add_argument("--lat", type=float)
    q.add_argument("--lon", type=float)
    q.add_argument("--t", type=int)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--words", type=_parse_words, help="comma-separated query word ids")
    q.add_argument("--w1", type=float, default=1 / 3)
    q.add_argument("--w2", type=float, default=1 / 3)
    q.add_argument("--w3", type=float, default=1 / 3)
    q.add_argument("--explain", action="store_true",
                   help="print each query's search stats as one JSON line after its results")

    b = sub.add_parser("bench", help="run the measurement harness",
                       parents=[common, seeded, indexed])
    b.add_argument("--out", required=True)
    b.add_argument("--axis", default="all", choices=("all", *bench_mod.AXES))
    b.add_argument("--count", type=_at_least_one, default=5000)
    b.add_argument("--vocab", type=int, default=500)
    b.add_argument("--mean-words", type=float, default=40.0)
    b.add_argument("--spatial-mode", choices=SPATIAL_MODES, default="clusters")

    v = sub.add_parser("verify", help="oracle-equivalence, structure and bound-dominance suites",
                       parents=[common, seeded])
    v.add_argument("--instances", type=_at_least_one, default=50)
    parser.commands = sub.choices
    return parser


def cmd_generate(args):
    write_dataset(generate_images(_generator_config(args)), args.out)
    return EXIT_OK


def cmd_query(args):
    """Inserts the images in file order and answers each query at its own
    time: in ascending ``t``, each once every image before the first one
    newer than its ``t`` is in (at equal times, images first). The images
    left are inserted after the last query, and the answers are printed in
    qid order. An inline query without ``--t`` asks at the file's newest
    timestamp, after every image is in."""
    config = _index_config(args)
    index = bench_mod.build_index(args.index, config)
    images = parse_dataset(args.data)

    if args.queries:
        queries = parse_queries(args.queries)
    else:
        if args.words is None or args.lat is None or args.lon is None:
            raise ConfigError("inline query needs --words, --lat and --lon")
        if args.t is None:
            for img in images:
                index.insert(img)
        try:
            q = Query(
                psi=args.words,
                loc=(args.lat, args.lon),
                t=args.t if args.t is not None else max(
                    (img.t_c for img in index.live_images()), default=0
                ),
                k=args.k,
                weights=(args.w1, args.w2, args.w3),
            )
        except ConfigError as exc:
            raise ConfigError(f"--words/--lat/--lon/--t/--k/--w1/--w2/--w3: {exc}") from exc
        queries = [q]

    answers = [None] * len(queries)
    pending = next(images, None)
    for qid in sorted(range(len(queries)), key=lambda i: queries[i].t):
        while pending is not None and pending.t_c <= queries[qid].t:
            index.insert(pending)
            pending = next(images, None)
        answers[qid] = index.search(queries[qid])
    if pending is not None:
        index.insert(pending)
    for img in images:
        index.insert(img)

    for qid, (results, stats) in enumerate(answers):
        for rank, entry in enumerate(results, start=1):
            print(f"{qid}\t{rank}\t{entry.image_id}\t{entry.score.f_stv:.6f}")
        if args.explain:
            print(json.dumps(_explain(qid, stats)))
    return EXIT_OK


def _explain(qid, stats):
    """A query's ``SearchStats`` as a JSON object, with an infinite λ
    (fewer than k images found) as null."""
    out = {"qid": qid, **asdict(stats)}
    if math.isinf(out["lam"]):
        out["lam"] = None
    return out


def cmd_bench(args):
    gen_cfg = _generator_config(args)
    index_cfg = _index_config(args)
    # ``all`` sweeps one weight, omega1
    axes = ([a for a in bench_mod.AXES if a not in ("omega2", "omega3")]
            if args.axis == "all" else [args.axis])
    rows = [row for axis in axes for row in bench_mod.sweep(gen_cfg, index_cfg, axis)]
    bench_mod.write_csv(rows, args.out)
    return EXIT_OK


def cmd_verify(args):
    report = run_verification(seed=args.seed, instances=args.instances,
                              domain=args.domain)
    for line in report.lines:
        print(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


_COMMANDS = {"generate": cmd_generate, "query": cmd_query, "bench": cmd_bench,
             "verify": cmd_verify}


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # --config is found ahead of the parse, so the file can give a required
    # flag; spelled out, so that an ambiguous prefix such as --co is not it
    peek = _Parser(prog=parser.prog, add_help=False, allow_abbrev=False)
    peek.add_argument("--config")
    config = peek.parse_known_args(argv)[0].config
    if config:
        # a key no subcommand takes is an error; one that another
        # subcommand takes is ignored, so one file can serve them all
        dests = {name: {a.dest for a in p._actions} - {"help"}
                 for name, p in parser.commands.items()}
        try:
            values = _load_config_file(config, set().union(*dests.values()))
        except (OSError, DataFormatError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_DATA
        # the file's keys this subcommand takes become flags ahead of the
        # command line's own, so a flag given there wins
        taken = dests.get(argv[0], set())
        argv = [argv[0], *(f"--{key.replace('_', '-')}={val}"
                           for key, val in values.items() if key in taken), *argv[1:]]
    args = parser.parse_args(argv)
    if args.config != config:
        parser.error("--config must be spelled out in full")
    try:
        return _COMMANDS[args.command](args)
    except bench_mod.AnswerMismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (DataFormatError, DomainError, OSError, OverflowError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
