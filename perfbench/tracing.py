"""Spans around the calls into each ves_ray layer, and Ray Data
per-operator stats of every Dataset those calls execute.

Tracing is installed from outside the program: ``Tracer.install``
wraps the public entry points of each layer in the Ray driver process and
records a span (name, start, end, parent, operation) per call, plus
the ``ExecutionPlan`` of every Dataset executed while a span is open.
Wrappers check ``Tracer.enabled`` on every call, so one installed
tracer serves both the traced and the untraced operations of a run.
Spans stay in memory until ``dump`` writes them out.

Work inside Ray tasks (parse, checksum, enrich, salt) is seen through
the per-operator stats Ray Data keeps for each execution; the serial
per-row kernel times come from ``serial_baseline``.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

_BLOCKS_RE = re.compile(r"(\d+) blocks produced")
_EXCHANGE_PREFIXES = ("Sort", "Aggregate", "Repartition", "RandomShuffle",
                      "HashShuffle", "HashAggregate", "Shuffle")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.plans: list[tuple[str | None, object]] = []
        self._stack: list[int] = []
        self._phase: list[str] = []

    # -- spans -----------------------------------------------------------
    def call(self, name, fn, args, kwargs, phase=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = {"name": name, "op": self.op_id, "start": time.perf_counter(),
               "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        if phase:
            self._phase.append(phase)
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if phase:
                self._phase.pop()

    def wrap(self, owner, attr, name, phase=None):
        """Trace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, phase)

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    def span_s(self, name, op=None) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None
                   and (op is None or s["op"] == op))

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        from ray.data._internal.plan import ExecutionPlan

        from ves_ray.pipelines import flagship, queries
        from ves_ray.state.checkpoint import CheckpointStore

        fp = flagship.FlagshipPipeline
        for attr in ("run", "plan", "build_routed_dataset",
                     "compute_aggregates", "_manifest", "_drop_removed",
                     "_recover_markers", "_invalidate_rotated"):
            self.wrap(fp, attr, f"FlagshipPipeline.{attr}")
        self.wrap(fp, "_process_shard", "FlagshipPipeline._process_shard",
                  phase="write")
        self.wrap(flagship, "_read_routed", "flagship._read_routed")
        read_routed = flagship._read_routed

        def read_back(*args, **kwargs):
            # the read-back executes lazily after this call returns, so
            # its phase lasts until the enclosing shard span ends
            if self.enabled and self._phase:
                self._phase[-1] = "stats"
            return read_routed(*args, **kwargs)

        flagship._read_routed = read_back
        self.wrap(CheckpointStore, "pending", "CheckpointStore.pending")
        mark_done = CheckpointStore.mark_done

        def counted_mark_done(store, *args, **kwargs):
            if self.enabled:
                self.counts["checkpoint.markers"] += 1
            return mark_done(store, *args, **kwargs)

        CheckpointStore.mark_done = counted_mark_done
        # a catalog entry may return a lazy Dataset: its span covers
        # gathering the result, so the execution lands in its phase
        from check_queries import to_pandas
        for name, fn in list(queries.QUERIES.items()):
            queries.QUERIES[name] = functools.partial(
                lambda fn, *a, **kw: to_pandas(fn(*a, **kw)), fn)
            self.wrap(queries.QUERIES, name, f"queries.{name}",
                      phase=f"query.{name}")

        # record every executed plan with the phase it ran in
        for attr in ("execute", "execute_to_iterator"):
            orig = getattr(ExecutionPlan, attr)

            def recording(plan, *args, _orig=orig, **kwargs):
                if self.enabled:
                    self.plans.append(
                        (self._phase[-1] if self._phase else None, plan))
                return _orig(plan, *args, **kwargs)

            setattr(ExecutionPlan, attr, recording)

    def take_plans(self) -> list:
        out, self.plans = self.plans, []
        return out

    def dump(self, path: str) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            json.dump([{**s, "start": s["start"] - t0,
                        "end": (s["end"] or s["start"]) - t0}
                       for s in self.spans], f)


# -- Ray Data per-operator stats ------------------------------------------
def _kind(name: str) -> str:
    if "ReadParquet" in name:
        return "read"
    if name.startswith(_EXCHANGE_PREFIXES):
        return "exchange"
    if "Write" in name:
        return "write"
    if "Map" in name or "Project" in name or "Filter" in name:
        return "transform"
    return "other"


def _chain(summary):
    yield summary
    for parent in summary.parents:
        yield from _chain(parent)


def operator_records(plans) -> list[dict]:
    """One record per executed operator: phase, kind, task seconds,
    UDF seconds, tasks, blocks and rows, and whether its plan ends in a
    limit (a schema probe). A plan that was executed more than once (a
    write re-reads its own stats) is counted once."""
    out, seen = [], set()
    for phase, plan in plans:
        chain = list(_chain(plan.stats().to_summary()))
        limited = any(op.operator_name.startswith("limit=")
                      for s in chain for op in s.operators_stats)
        for op in (op for s in chain for op in s.operators_stats):
            key = (op.operator_name, op.earliest_start_time,
                   op.latest_end_time)
            if key in seen:
                continue
            seen.add(key)
            m = _BLOCKS_RE.search(op.block_execution_summary_str or "")
            out.append({
                "phase": phase, "name": op.operator_name,
                "kind": _kind(op.operator_name), "limited": limited,
                "task_s": (op.wall_time or {}).get("sum", 0.0),
                "udf_s": (op.udf_time or {}).get("sum", 0.0),
                "tasks": (op.task_rows or {}).get("count", 0),
                "blocks": int(m.group(1)) if m else 0,
                "rows": (op.output_num_rows or {}).get("sum", 0),
            })
    return out


def attribute(ops: list[dict], phase_wall: float) -> dict[str, float]:
    """Split one phase's wall among read, transform, write and exchange
    by their share of the phase's task time. The operators of a phase
    run concurrently (streaming), so their own walls overlap; shares of
    the phase wall add up to it. A fused ``MapBatches->Write`` operator
    counts its UDF time as transform and the rest as write."""
    busy = Counter()
    for op in ops:
        if op["kind"] == "write":
            busy["transform"] += op["udf_s"]
            busy["write"] += max(op["task_s"] - op["udf_s"], 0.0)
        else:
            busy[op["kind"]] += op["task_s"]
    busy.pop("other", None)
    total = sum(busy.values())
    if total <= 0:
        return {}
    return {k: phase_wall * v / total for k, v in busy.items()}


def layer_counts(ops: list[dict]) -> dict[str, float]:
    """Counts and task seconds per operator kind over ``ops``. A plan
    that ends in a limit stops after however many blocks arrived first,
    so its operators are left out and the counts repeat exactly."""
    out: Counter = Counter()
    for op in ops:
        if op["limited"]:
            continue
        k = op["kind"]
        if k == "read":
            out["sources.read_tasks"] += op["tasks"]
            out["sources.blocks"] += op["blocks"]
            out["sources.rows"] += op["rows"]
        elif k in ("transform", "write"):
            out["transform.udf_s"] += op["udf_s"]
            if k == "transform" or op["udf_s"] > 0:
                out["transform.tasks"] += op["tasks"]
        if k == "exchange":
            out["exchange.blocks"] += op["blocks"]
            # a sort or aggregate shows up as a map and a reduce
            # sub-operator: count each exchange once, by its reduce side
            if "Reduce" in op["name"] or not op["name"].endswith("Map"):
                out["exchange.shuffle_ops"] += 1
    return dict(out)


# -- serial single-process baseline ---------------------------------------
def serial_baseline(paths: list[str], lookup: pa.Table, reps: int = 3) -> dict:
    """Read the corpus with pyarrow and run the four flagship kernels on
    it in this process, one thread, no Ray. Medians over ``reps``."""
    from ves_ray.stages.enrich import Enricher
    from ves_ray.stages.parse import parse_batch
    from ves_ray.stages.route import hot_route_salts, make_salter
    from ves_ray.state.lineage import add_row_checksum_batch

    enricher = Enricher(lookup)
    salter = make_salter(hot_route_salts(lookup))
    samples: dict[str, list[float]] = {k: [] for k in (
        "read", "parse", "lineage", "enrich", "route")}
    rows = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        tables = [pq.read_table(p, use_threads=False) for p in paths]
        samples["read"].append(time.perf_counter() - t0)
        spent = Counter()
        rows = 0
        for p, t in zip(paths, tables):
            rows += len(t)
            t = t.append_column("fragment", pa.array([p] * len(t)))
            for name, fn in (("parse", parse_batch),
                             ("lineage", add_row_checksum_batch),
                             ("enrich", enricher), ("route", salter)):
                t1 = time.perf_counter()
                t = fn(t)
                spent[name] += time.perf_counter() - t1
        for name in ("parse", "lineage", "enrich", "route"):
            samples[name].append(spent[name])
    med = {k: statistics.median(v) for k, v in samples.items()}
    out = {"serial.read_s": med["read"],
           "serial.transform_s": sum(med[k] for k in (
               "parse", "lineage", "enrich", "route"))}
    for k in ("parse", "lineage", "enrich", "route"):
        out[f"{k}.ns_per_row"] = med[k] / max(rows, 1) * 1e9
    return out
