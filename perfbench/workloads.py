"""The three benchmark workloads.

Each workload has two halves. ``make_inputs`` and ``expected`` run in
the benchmark's parent process without Ray: they write the seeded
inputs and compute the expected results with DuckDB, independently of
the program. ``setup``, ``warmup``, ``op``, ``check`` and
``layer_metrics`` run in the session process that owns the Ray
session. ``op`` is the timed operation; ``check`` runs after it,
outside the timed window.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written down in README.md beside this file.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

QUERY_NAMES = ["user_sessions", "event_sessions", "dedup_exact",
               "dedup_keep", "order_revenue", "region_revenue"]

# every per-layer metric with its unit, in the order printed
PER_LAYER_UNITS = {
    "session.init_s": "s", "session.warmup_s": "s",
    "sources.read_s": "s", "sources.read_tasks": "count",
    "sources.blocks": "count", "sources.rows_per_block": "rows",
    "transform.wall_s": "s", "transform.udf_s": "s",
    "transform.tasks": "count",
    "parse.ns_per_row": "ns", "lineage.ns_per_row": "ns",
    "enrich.ns_per_row": "ns", "route.ns_per_row": "ns",
    "write.wall_s": "s", "write.files": "count", "write.bytes": "bytes",
    "stats.wall_s": "s", "stats.blocks": "count",
    "checkpoint.plan_s": "s", "checkpoint.markers": "count",
    "finish.wall_s": "s", "aggregate.merge_s": "s",
    "aggregate.shards": "count", "metrics.collector_s": "s",
    "follow.append_s": "s", "follow.rescan_s": "s", "follow.remove_s": "s",
    **{f"query.{q}.wall_s": "s" for q in QUERY_NAMES},
    "exchange.shuffle_ops": "count", "exchange.blocks": "count",
    "exchange.shuffle_s": "s",
    "serial.read_s": "s", "serial.transform_s": "s",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_s": "s", "trace.layer_coverage": "ratio",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# layers whose metrics a workload measures itself; the traced run
# takes every other layer from one-operation probes (see session.py)
FLAGSHIP_LAYERS = ("sources", "transform", "write", "stats", "checkpoint",
                   "finish", "aggregate", "metrics", "serial", "parse",
                   "lineage", "enrich", "route")


def _lookup():
    from ves_ray.fixtures import make_sources_table
    return make_sources_table()


def _duck_aggregates(paths: list[str]) -> dict:
    """route_counts and source_hist of the flagship over ``paths``,
    computed by DuckDB from the input and the lookup: unknown sources go
    to the default route."""
    import duckdb

    from ves_ray.schema import DEFAULT_ROUTE
    con = duckdb.connect()
    con.register("lookup", _lookup())
    files = ", ".join(f"'{p}'" for p in sorted(paths))
    con.execute(f"CREATE VIEW seqs AS SELECT * FROM read_parquet([{files}])")
    routed = (f"SELECT coalesce(l.route, '{DEFAULT_ROUTE}') AS route, "
              "s.source, s.n_tok FROM seqs s LEFT JOIN lookup l "
              "ON s.source = l.source")
    counts = con.sql(f"SELECT route, count(*), sum(n_tok) FROM ({routed}) "
                     "GROUP BY 1 ORDER BY 1").fetchall()
    hist = con.sql(f"SELECT route, source, count(*) FROM ({routed}) "
                   "GROUP BY 1, 2 ORDER BY 1, 2").fetchall()
    rows, tokens = con.sql("SELECT count(*), sum(n_tok) FROM seqs").fetchone()
    return {"route_counts": [list(r) for r in counts],
            "source_hist": [list(r) for r in hist],
            "rows": int(rows), "tokens": int(tokens)}


def _aggregate_mismatch(res: dict, exp: dict) -> str | None:
    got_counts = sorted(tuple(r.values())
                        for r in res["route_counts"].to_pylist())
    got_hist = sorted(tuple(r.values())
                      for r in res["source_hist"].to_pylist())
    if got_counts != [tuple(r) for r in exp["route_counts"]]:
        return "route_counts differ from the DuckDB oracle"
    if got_hist != [tuple(r) for r in exp["source_hist"]]:
        return "source_hist differs from the DuckDB oracle"
    return None


def _parquet_files(root: str) -> list[str]:
    return [os.path.join(d, f) for d, _, fs in os.walk(root)
            for f in fs if f.endswith(".parquet")]


class Workload:
    name = ""
    op_cap_s = 60.0           # an operation running longer has failed
    layers: tuple[str, ...] = ()

    def __init__(self, work_dir: str, seed: int, size: str = "full"):
        self.work = work_dir
        self.seed = seed
        self.size = size
        self.in_dir = os.path.join(work_dir, "in", self.name)
        self.out_dir = os.path.join(work_dir, "out", self.name)
        self.expected_path = os.path.join(work_dir, f"expected-{self.name}.json")

    # -- parent side ----------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def expected(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> float:
        """Generate the inputs (timed, returned) and the expected
        results (untimed). Marks the input complete."""
        shutil.rmtree(self.in_dir, ignore_errors=True)
        t0 = time.perf_counter()
        self.make_inputs()
        gen_s = time.perf_counter() - t0
        with open(self.expected_path, "w") as f:
            json.dump(self.expected(), f)
        with open(os.path.join(self.in_dir, "_complete"), "w") as f:
            f.write("ok")
        return gen_s

    # -- session side ---------------------------------------------------
    def check_inputs(self) -> None:
        if not os.path.exists(os.path.join(self.in_dir, "_complete")):
            raise RuntimeError(f"inputs of {self.name} are missing")
        with open(self.expected_path) as f:
            self.exp = json.load(f)

    def setup(self) -> None:
        pass

    def discard(self) -> None:
        """Drop what the previous operation left (outside the timed
        window)."""

    def warmup(self) -> None:
        self.check(self.op(-1))

    def op(self, i: int):
        raise NotImplementedError

    def check(self, res) -> str | None:
        raise NotImplementedError

    def rows(self) -> int:
        raise NotImplementedError

    def trace_hooks(self) -> None:
        """Set up what traced operations need beyond the tracer."""

    def layer_metrics(self, res, tracer, plans) -> dict:
        return {}

    def after_loop(self, tracer) -> dict:
        """Untimed per-layer probes run once after the closed loop of a
        traced run."""
        return {}


class _PipelineLayers:
    """Per-layer metrics of FlagshipPipeline runs, shared by the
    flagship_batch and follow_cycle workloads."""

    def pipeline_layers(self, runs: list[dict], tracer, plans) -> dict:
        from tracing import attribute, layer_counts, operator_records
        ops = operator_records(plans)
        write_ops = [o for o in ops if o["phase"] == "write"]
        shards = [s for r in runs for s in r["shards"]]
        write_s = sum(s["write_s"] for s in shards)
        stats_s = sum(s["stats_s"] for s in shards)
        op = tracer.op_id
        # run()'s own wall_s stops before it drains the metrics actor
        # and writes metrics.json, so time run() from outside
        wall = tracer.span_s("FlagshipPipeline.run", op)
        share = attribute(write_ops, write_s)
        counts = layer_counts(write_ops)
        m = {
            "sources.read_s": share.get("read", 0.0),
            "transform.wall_s": share.get("transform", 0.0),
            "write.wall_s": share.get("write", 0.0),
            "sources.read_tasks": counts.get("sources.read_tasks", 0),
            "sources.blocks": counts.get("sources.blocks", 0),
            "sources.rows_per_block": (counts.get("sources.rows", 0)
                                       / max(counts.get("sources.blocks", 0), 1)),
            "transform.udf_s": counts.get("transform.udf_s", 0.0),
            "transform.tasks": counts.get("transform.tasks", 0),
            "stats.wall_s": stats_s,
            "stats.blocks": sum(o["blocks"] for o in ops
                                if o["phase"] == "stats" and o["kind"] == "read"
                                and not o["limited"]),
            "finish.wall_s": wall - write_s - stats_s,
            "checkpoint.plan_s": sum(tracer.span_s(f"{owner}.{fn}", op) for owner, fn in (
                ("FlagshipPipeline", "_manifest"),
                ("FlagshipPipeline", "_drop_removed"),
                ("FlagshipPipeline", "_recover_markers"),
                ("FlagshipPipeline", "_invalidate_rotated"),
                ("CheckpointStore", "pending"))),
            "checkpoint.markers": tracer.counts.pop("checkpoint.markers", 0),
            "aggregate.merge_s": tracer.span_s(
                "FlagshipPipeline.compute_aggregates", op),
            "aggregate.shards": len([n for n in os.listdir(
                os.path.join(self.out_path(), "lineage"))
                if n.startswith("shard=")]),
        }
        return m

    def collector_probe(self, out_dir: str, reps: int = 3) -> dict:
        """Idle rescans of a finished output with and without the
        stage-metrics collector: the difference is the collector's
        fixed cost per run."""
        from ves_ray.pipelines.flagship import FlagshipPipeline
        walls = {True: [], False: []}
        for _ in range(reps):
            for on in (True, False):
                t0 = time.perf_counter()
                FlagshipPipeline(self.in_dir, _lookup(), out_dir,
                                 **self.pipeline_kwargs(),
                                 stage_metrics=on).run()
                walls[on].append(time.perf_counter() - t0)
        return {"metrics.collector_s": statistics.median(walls[True])
                - statistics.median(walls[False])}

    def serial(self, paths: list[str]) -> dict:
        from tracing import serial_baseline
        return serial_baseline(sorted(paths), _lookup())


class FlagshipBatch(Workload, _PipelineLayers):
    """One operation: one full FlagshipPipeline.run() of the corpus into
    a fresh output directory."""

    name = "flagship_batch"
    layers = FLAGSHIP_LAYERS
    # the bench corpus (200k rows, 64 fragments, 50k rows per file)
    # scaled down 4x with its shape kept: 3,125 rows per fragment and
    # four write tasks
    SIZES = {"full": dict(rows=50_000, files=16, min_rows_per_file=12_500),
             "tiny": dict(rows=2_000, files=4, min_rows_per_file=500)}

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.cfg = self.SIZES[self.size]
        self._last_out = None

    def make_inputs(self):
        from ves_ray.fixtures import write_sequences
        write_sequences(self.in_dir, seed=self.seed, n_rows=self.cfg["rows"],
                        n_files=self.cfg["files"])

    def input_paths(self):
        return [os.path.join(self.in_dir, f) for f in os.listdir(self.in_dir)
                if f.endswith(".parquet")]

    def expected(self):
        return _duck_aggregates(self.input_paths())

    def rows(self):
        return self.cfg["rows"]

    def pipeline_kwargs(self):
        return {"min_rows_per_file": self.cfg["min_rows_per_file"]}

    def out_path(self):
        return self._last_out

    def op(self, i):
        from ves_ray.pipelines.flagship import FlagshipPipeline
        out = os.path.join(self.out_dir, f"op{i}")
        shutil.rmtree(out, ignore_errors=True)
        self._last_out = out
        return FlagshipPipeline(self.in_dir, _lookup(), out,
                                **self.pipeline_kwargs()).run()

    def check(self, res):
        exp = self.exp
        if res["rows"] != exp["rows"] or res["tokens"] != exp["tokens"]:
            return (f"rows/tokens {res['rows']}/{res['tokens']} != "
                    f"{exp['rows']}/{exp['tokens']}")
        return _aggregate_mismatch(res, exp)

    def discard(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def layer_metrics(self, res, tracer, plans):
        m = self.pipeline_layers([res], tracer, plans)
        files = _parquet_files(os.path.join(self._last_out, "routed"))
        m["write.files"] = len(files)
        m["write.bytes"] = sum(os.path.getsize(f) for f in files)
        return m

    def after_loop(self, tracer):
        m = self.collector_probe(self._last_out)
        m.update(self.serial(self.input_paths()))
        return m


class FollowCycle(Workload, _PipelineLayers):
    """One operation: one follow cycle over a checkpointed base state of
    many small shards: append fragments and run, rescan idle, delete
    the appended fragments and run. State returns to the base."""

    name = "follow_cycle"
    layers = FLAGSHIP_LAYERS + ("follow",)
    SIZES = {"full": dict(base_files=12, rows_per_file=400, append_files=2,
                          shard_size=2),
             "tiny": dict(base_files=4, rows_per_file=100, append_files=2,
                          shard_size=2)}

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.cfg = self.SIZES[self.size]
        self.late_dir = os.path.join(self.work, "in", "follow_late")
        self.observe = None

    def _write(self, out_dir, name, index, n_files):
        import pyarrow.parquet as pq

        from ves_ray.fixtures import make_sequences_table
        os.makedirs(out_dir, exist_ok=True)
        per = self.cfg["rows_per_file"]
        for k in range(n_files):
            t = make_sequences_table(self.seed, per,
                                     row_offset=(index + k) * per)
            pq.write_table(t, os.path.join(out_dir, f"{name}-{k:05d}.parquet"),
                           row_group_size=max(64, per // 2))

    def make_inputs(self):
        shutil.rmtree(self.late_dir, ignore_errors=True)
        self._write(self.in_dir, "sequences", 0, self.cfg["base_files"])
        self._write(self.late_dir, "late", self.cfg["base_files"],
                    self.cfg["append_files"])

    def _paths(self, d):
        return sorted(os.path.join(d, f) for f in os.listdir(d)
                      if f.endswith(".parquet"))

    def expected(self):
        base = self._paths(self.in_dir)
        return {"base": _duck_aggregates(base),
                "appended": _duck_aggregates(base + self._paths(self.late_dir)),
                "append_rows": self.rows()}

    def rows(self):
        return self.cfg["append_files"] * self.cfg["rows_per_file"]

    def pipeline_kwargs(self):
        return {"shard_size": self.cfg["shard_size"]}

    def out_path(self):
        return self.out_dir

    def _run(self):
        from ves_ray.pipelines.flagship import FlagshipPipeline
        return FlagshipPipeline(self.in_dir, _lookup(), self.out_dir,
                                **self.pipeline_kwargs()).run()

    def setup(self):
        """Build the checkpointed base state."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        err = _aggregate_mismatch(self._run(), self.exp["base"])
        if err:
            raise RuntimeError(f"base state: {err}")
        self._base_shards = set(os.listdir(self._routed()))

    def op(self, i):
        late = self._paths(self.late_dir)
        t0 = time.perf_counter()
        for p in late:
            shutil.copy(p, self.in_dir)
        appended = self._run()
        t1 = time.perf_counter()
        if self.observe is not None:
            self.observe()
        t2 = time.perf_counter()
        rescan = self._run()
        t3 = time.perf_counter()
        for p in late:
            os.remove(os.path.join(self.in_dir, os.path.basename(p)))
        removed = self._run()
        t4 = time.perf_counter()
        steps = {"follow.append_s": t1 - t0, "follow.rescan_s": t3 - t2,
                 "follow.remove_s": t4 - t3}
        return {"runs": [appended, rescan, removed], "steps": steps,
                "untimed_s": t2 - t1}

    def check(self, res):
        appended, rescan, removed = res["runs"]
        if appended["rows"] != self.exp["append_rows"]:
            return (f"append step processed {appended['rows']} rows, "
                    f"expected {self.exp['append_rows']}")
        err = _aggregate_mismatch(appended, self.exp["appended"])
        if err:
            return f"after append: {err}"
        if rescan["rows"] != 0 or rescan["pending_fragments"] != 0:
            return "idle rescan processed data"
        err = _aggregate_mismatch(removed, self.exp["base"])
        return f"after removal: {err}" if err else None

    def layer_metrics(self, res, tracer, plans):
        m = self.pipeline_layers(res["runs"], tracer, plans)
        m.update(res["steps"])
        m.update(self._observed)
        return m

    def _routed(self):
        return os.path.join(self.out_dir, "routed")

    def trace_hooks(self):
        """In traced operations, count the appended shard's files right
        after the append step."""
        def observe():
            files = [f for d in os.listdir(self._routed())
                     if d not in self._base_shards
                     for f in _parquet_files(os.path.join(self._routed(), d))]
            self._observed = {"write.files": len(files),
                              "write.bytes": sum(os.path.getsize(f)
                                                 for f in files)}
        self._observed = {}
        self.observe = observe

    def after_loop(self, tracer):
        m = self.collector_probe(self.out_dir)
        m.update(self.serial(self._paths(self.in_dir)))
        return m


class QueryExchange(Workload):
    """One operation: one pass over six catalog queries that all go
    through the sort-shuffle bucket exchange."""

    name = "query_exchange"
    op_cap_s = 90.0
    layers = ("sources", "transform", "exchange", "query")

    def make_inputs(self):
        from datagen import write_query_tables
        write_query_tables(self.in_dir, self.seed, self.size)

    def expected(self):
        import duckdb

        from check_queries import value_hash
        from ves_ray.pipelines.queries import ORACLE_SQL
        con = duckdb.connect()
        for f in os.listdir(self.in_dir):
            if f.endswith(".parquet"):
                con.execute(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                            f"read_parquet('{os.path.join(self.in_dir, f)}')")
        out = {}
        for q in QUERY_NAMES:
            df = con.sql(ORACLE_SQL[q]).df()
            out[q] = {"rows": len(df), "cols": sorted(df.columns),
                      "hash": value_hash(df)}
        return out

    def rows(self):
        """Input rows of the tables the six queries read."""
        import pyarrow.parquet as pq
        return sum(pq.ParquetFile(os.path.join(self.in_dir, f)).metadata.num_rows
                   for f in os.listdir(self.in_dir) if f.endswith(".parquet"))

    def op(self, i):
        from check_queries import to_pandas

        from ves_ray.pipelines.queries import QUERIES
        walls, results = {}, {}
        for q in QUERY_NAMES:
            t0 = time.perf_counter()
            results[q] = to_pandas(QUERIES[q](self.in_dir))
            walls[q] = time.perf_counter() - t0
        return {"walls": walls, "results": results}

    def check(self, res):
        from check_queries import value_hash
        for q in QUERY_NAMES:
            df, exp = res["results"][q], self.exp[q]
            if len(df) != exp["rows"] or sorted(df.columns) != exp["cols"]:
                return f"{q}: shape differs from ORACLE_SQL"
            if value_hash(df) != exp["hash"]:
                return f"{q}: value hash differs from ORACLE_SQL"
        return None

    def layer_metrics(self, res, tracer, plans):
        from tracing import attribute, layer_counts, operator_records
        ops = operator_records(plans)
        m = {"sources.read_s": 0.0, "transform.wall_s": 0.0,
             "exchange.shuffle_s": 0.0}
        for q, wall in res["walls"].items():
            m[f"query.{q}.wall_s"] = wall
            share = attribute([o for o in ops if o["phase"] == f"query.{q}"],
                              wall)
            m["sources.read_s"] += share.get("read", 0.0)
            m["transform.wall_s"] += share.get("transform", 0.0)
            m["exchange.shuffle_s"] += share.get("exchange", 0.0)
        counts = layer_counts(ops)
        m.update({
            "sources.read_tasks": counts.get("sources.read_tasks", 0),
            "sources.blocks": counts.get("sources.blocks", 0),
            "sources.rows_per_block": (counts.get("sources.rows", 0)
                                       / max(counts.get("sources.blocks", 0), 1)),
            "transform.udf_s": counts.get("transform.udf_s", 0.0),
            "transform.tasks": counts.get("transform.tasks", 0),
            "exchange.shuffle_ops": counts.get("exchange.shuffle_ops", 0),
            "exchange.blocks": counts.get("exchange.blocks", 0),
        })
        return m


WORKLOADS = {w.name: w for w in (FlagshipBatch, FollowCycle, QueryExchange)}


def probe_names(name: str) -> list[str]:
    """Workloads whose one-operation probe a traced run of ``name``
    needs, to cover the layers ``name`` does not exercise."""
    own = set(WORKLOADS[name].layers)
    return [p for p in ("follow_cycle", "query_exchange")
            if p != name and not set(WORKLOADS[p].layers) <= own]
