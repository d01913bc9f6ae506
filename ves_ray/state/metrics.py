"""Run metrics (SURVEY T12): Ray Data's per-operator stats and a host
snapshot.

The reference declares ``prometheus`` + ``hdrhistogram`` self-metrics
(components/core-agent/Cargo.toml:45,51). The batch analogue needs no
collector of its own: Ray Data already records, per operator of every
executed Dataset, task wall and CPU time, UDF time, tasks, blocks, rows
and bytes. This module only folds those stats into plain dicts for the
run result and ``metrics.json``. They are observability only; lineage
and aggregates come from the written sink.
"""

from __future__ import annotations

import re

_BLOCKS_RE = re.compile(r"(\d+) blocks produced")
_FIELDS = ("wall_s", "cpu_s", "udf_s", "tasks", "blocks", "rows", "bytes")


def _chain(summary):
    yield summary
    for parent in summary.parents:
        yield from _chain(parent)


def operator_stats(ds) -> dict[str, dict]:
    """Per-operator stats of an executed Dataset, keyed by operator name
    in plan order. ``wall_s``, ``cpu_s`` and ``udf_s`` sum over the
    operator's tasks."""
    out = {}
    for summary in reversed(list(_chain(ds._plan.stats().to_summary()))):
        for op in summary.operators_stats:
            m = _BLOCKS_RE.search(op.block_execution_summary_str or "")
            out[op.operator_name] = {
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                "udf_s": (op.udf_time or {}).get("sum", 0.0),
                "tasks": (op.task_rows or {}).get("count", 0),
                "blocks": int(m.group(1)) if m else 0,
                "rows": (op.output_num_rows or {}).get("sum", 0),
                "bytes": (op.output_size_bytes or {}).get("sum", 0),
            }
    return out


def merge_operator_stats(per_shard: list[dict[str, dict]]) -> dict[str, dict]:
    """Sum operator stats of several executions by operator name."""
    out: dict[str, dict] = {}
    for ops in per_shard:
        for name, rec in ops.items():
            acc = out.setdefault(name, dict.fromkeys(_FIELDS, 0))
            for k in _FIELDS:
                acc[k] += rec[k]
    return {name: {k: round(v, 4) if isinstance(v, float) else v
                   for k, v in rec.items()} for name, rec in out.items()}


def host_snapshot() -> dict:
    """Self/host metrics (the reference's ``sysinfo`` role): the cores
    this process may run on, the Ray session's CPUs and object-store
    capacity (Ray Data admits an operator's first wave of tasks against
    half of it), load and driver peak RSS, stdlib-only."""
    import os
    import resource

    import ray
    ru = resource.getrusage(resource.RUSAGE_SELF)
    res = ray.cluster_resources() if ray.is_initialized() else None
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_cpus": int(res.get("CPU", 0)) if res is not None else None,
        "object_store_mb": (round(res.get("object_store_memory", 0) / 2**20)
                            if res is not None else None),
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "driver_maxrss_mb": round(ru.ru_maxrss / 1024, 1),
        "driver_utime_s": round(ru.ru_utime, 2),
        "driver_stime_s": round(ru.ru_stime, 2),
    }
