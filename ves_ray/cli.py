"""CLI driver — the ``ray job submit`` entry point.

    python -m ves_ray.cli run --input DIR --out DIR [--lookup PARQUET]
                              [--shard-size N] [--num-cpus N]
    python -m ves_ray.cli gen --out DIR --rows N [--files N] [--seed S]
    python -m ves_ray.cli plan --input DIR --out DIR

On a real cluster, drop --num-cpus and submit with
``ray job submit -- python -m ves_ray.cli run ...`` — the driver then
attaches to the cluster instead of starting a local session. This is
the only module besides bench.py/tests that owns a Ray session.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    from .tuning import tune_memory_allocator
    tune_memory_allocator()
    if ray.is_initialized():
        return
    kwargs = dict(include_dashboard=False, logging_level="ERROR")
    if num_cpus is not None:
        ray.init(address="local", num_cpus=num_cpus, **kwargs)
    else:
        ray.init(**kwargs)       # attach to RAY_ADDRESS / cluster
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False


def cmd_run(args) -> int:
    import pyarrow.parquet as pq

    from .fixtures import make_sources_table
    from .pipelines.flagship import FlagshipPipeline

    _init_ray(args.num_cpus)
    lookup = pq.read_table(args.lookup) if args.lookup else make_sources_table()
    pipe = FlagshipPipeline(args.input, lookup, args.out,
                            shard_size=args.shard_size,
                            shard_parallelism=args.shard_parallelism,
                            split_fragment_rows=args.split_fragment_rows,
                            enrich_concurrency=args.enrich_concurrency)
    res = pipe.run()
    summary = {k: v for k, v in res.items()
               if k not in ("route_counts", "source_hist")}
    summary["route_counts"] = res["route_counts"].to_pylist()
    print(json.dumps(summary, default=str))
    return 0


def cmd_gen(args) -> int:
    from .fixtures import write_sequences, write_sources
    paths = write_sequences(args.out, seed=args.seed, n_rows=args.rows,
                            n_files=args.files)
    write_sources(args.out + "-lookup")
    print(json.dumps({"files": len(paths), "rows": args.rows}))
    return 0


def cmd_query(args) -> int:
    """Run a catalog query (pipelines.queries) over an sf-style dir."""
    from .pipelines.queries import QUERIES

    if args.name == "list" or args.name not in QUERIES:
        names = "\n".join(sorted(QUERIES))
        print(names if args.name == "list"
              else f"unknown query {args.name!r}; one of:\n{names}",
              file=sys.stdout if args.name == "list" else sys.stderr)
        return 0 if args.name == "list" else 2
    _init_ray(args.num_cpus)
    out = QUERIES[args.name](args.sf_dir)
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    if args.out:
        out.to_parquet(args.out, index=False)
        print(json.dumps({"query": args.name, "rows": len(out),
                          "out": args.out}))
    else:
        print(out.head(args.head).to_string(index=False))
        print(json.dumps({"query": args.name, "rows": len(out)}))
    return 0


def cmd_compact(args) -> int:
    """Merge small files in a partitioned sink (state.compact)."""
    from .state.compact import compact_partitions

    _init_ray(args.num_cpus)
    stats = compact_partitions(args.root, min_files=args.min_files,
                               min_rows_per_file=args.min_rows_per_file)
    print(json.dumps(stats))
    return 0


def cmd_export(args) -> int:
    """Ship a flagship run's aggregate tables as a checksummed JSONL
    export (state.export — the T10 wire-format analogue)."""
    import os

    from .sources.sequences import read_parquet_sized
    from .state.export import export_results, verify_export

    _init_ray(args.num_cpus)
    tables = {}
    for name in ("route_counts", "source_hist"):
        path = os.path.join(args.run_dir, "counts", f"{name}.parquet")
        if os.path.exists(path):
            import pyarrow.parquet as pq
            tables[name] = pq.read_table(path)
    routed = os.path.join(args.run_dir, "routed")
    if args.include_rows and os.path.isdir(routed):
        tables["routed"] = read_parquet_sized(routed)
    if not tables:
        print(f"nothing to export under {args.run_dir}", file=sys.stderr)
        return 2
    man = export_results(tables, args.out, overwrite=args.overwrite)
    ok = verify_export(args.out)
    print(json.dumps({"tables": {k: v["rows"]
                                 for k, v in man["tables"].items()},
                      "verified": ok}))
    return 0 if all(ok.values()) else 1


def cmd_plan(args) -> int:
    """Resume-planner dry run: what would be processed."""
    from .sources.sequences import expand_paths
    from .state.checkpoint import CheckpointStore, build_manifest, diff_manifest

    manifest = build_manifest(expand_paths(args.input))
    store = CheckpointStore(args.out)
    d = diff_manifest(manifest, store.completed())
    print(json.dumps({k: [f.path for f in v] if k != "removed" else v
                      for k, v in d.items()}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="ves_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run the flagship pipeline")
    r.add_argument("--input", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--lookup", default=None)
    r.add_argument("--shard-size", type=int, default=None)
    r.add_argument("--shard-parallelism", type=int, default=1,
                   help="shards in flight (driver threads); raise for "
                        "many small shards on a big cluster")
    r.add_argument("--split-fragment-rows", type=int, default=None,
                   help="checkpoint fragments above this row count at "
                        "row-group-range granularity")
    r.add_argument("--enrich-concurrency", type=int, default=4)
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_run)

    g = sub.add_parser("gen", help="generate synthetic sequences input")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=100_000)
    g.add_argument("--files", type=int, default=16)
    g.add_argument("--seed", type=int, default=7)
    g.set_defaults(fn=cmd_gen)

    q = sub.add_parser("query", help="run a catalog query (or 'list')")
    q.add_argument("name")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.add_argument("--out", default=None,
                   help="write result parquet here instead of printing")
    q.add_argument("--head", type=int, default=20)
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    c = sub.add_parser("compact", help="merge small sink files")
    c.add_argument("--root", required=True)
    c.add_argument("--min-files", type=int, default=2)
    c.add_argument("--min-rows-per-file", type=int, default=100_000)
    c.add_argument("--num-cpus", type=int, default=None)
    c.set_defaults(fn=cmd_compact)

    e = sub.add_parser("export", help="ship run results as JSONL export")
    e.add_argument("--run-dir", required=True,
                   help="a flagship --out dir (counts/ + routed/)")
    e.add_argument("--out", required=True)
    e.add_argument("--include-rows", action="store_true",
                   help="also export the routed row data (distributed)")
    e.add_argument("--overwrite", action="store_true")
    e.add_argument("--num-cpus", type=int, default=None)
    e.set_defaults(fn=cmd_export)

    pl = sub.add_parser("plan", help="show the resume plan (dry run)")
    pl.add_argument("--input", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(fn=cmd_plan)

    args = p.parse_args(argv)
    code = args.fn(args)
    import ray
    if ray.is_initialized():
        ray.shutdown()
    return code


if __name__ == "__main__":
    sys.exit(main())
