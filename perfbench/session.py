"""One Ray session of a benchmark run, in its own process.

``run.py`` starts this file as a child in a new process session, so
that the child, its Ray head processes and every Ray worker share one
process group that ``run.py`` can kill as a whole. The child reports
progress as JSON lines on the file descriptor given by ``--events``;
its stdout and stderr go to a log file.

Roles:
- ``start``: start the Ray session, check that the inputs are in
  place, report ``ready`` and shut down. ``run.py`` starts the session
  several times per run and reports the median start time.
- ``main``: the same start, then the workload's set-up and warm-up,
  then the closed loop: one operation at a time on this one thread,
  each checked after its timed window, until ``--seconds`` have passed.
  With ``--trace 1`` operations alternate between untraced and traced,
  and the per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


class Events:
    def __init__(self, fd: int):
        self._f = os.fdopen(fd, "w", buffering=1)

    def emit(self, ev: str, **fields) -> None:
        self._f.write(json.dumps({"ev": ev, **fields}, default=float) + "\n")


def start_ray(work_rel: str, num_cpus: int):
    import ray
    import ray.data
    from ray.data.context import ShuffleStrategy

    from ves_ray.tuning import tune_memory_allocator
    tune_memory_allocator()
    # Ray's socket paths must fit in 107 bytes, which a deep checkout
    # path can exceed; /proc/<pid>/cwd is short and resolves to the
    # checkout for every process of the session (they share this cwd)
    temp = f"/proc/{os.getpid()}/cwd/{work_rel}/ray"
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=temp,
             object_store_memory=768 << 20)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED

    @ray.remote
    def ping():
        return 1

    ray.get(ping.remote())


def traced_metrics(wl, probes: list, tracer) -> dict:
    """Untimed per-layer probes after the loop: the workload's own, then
    one traced operation of each probe workload on the small inputs for
    layers this workload does not exercise."""
    m = wl.after_loop(tracer)
    for probe in probes:
        tracer.op_id = f"probe:{probe.name}"
        probe.check_inputs()
        probe.setup()
        probe.trace_hooks()
        probe.discard()
        tracer.enabled = True
        res = probe.op(0)
        tracer.enabled = False
        err = probe.check(res)
        if err:
            raise RuntimeError(f"probe {probe.name}: {err}")
        got = probe.layer_metrics(res, tracer, tracer.take_plans())
        got.update(probe.after_loop(tracer))
        for k, v in got.items():
            if k.split(".", 1)[0] not in wl.layers and k not in m:
                m[k] = v
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=["start", "main"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--events", type=int, required=True)
    args = ap.parse_args()
    events = Events(args.events)
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "tools")]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.work, args.seed, args.size)
    try:
        start_ray(args.work, args.cpus)
        wl.check_inputs()
    except Exception:
        events.emit("error", where="start", detail=traceback.format_exc())
        return 1
    events.emit("ready")
    if args.role == "start":
        import ray
        ray.shutdown()
        return 0
    try:
        return run_main(wl, args, events)
    except Exception:
        events.emit("error", where="main", detail=traceback.format_exc())
        return 1
    finally:
        import ray
        ray.shutdown()


def run_main(wl, args, events) -> int:
    from workloads import WORKLOADS, probe_names

    tracer = None
    probes = []
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        wl.trace_hooks()
        probes = [WORKLOADS[name](args.work, args.seed, "tiny")
                  for name in probe_names(wl.name)]

    t0 = time.perf_counter()
    wl.setup()
    t1 = time.perf_counter()
    wl.warmup()
    t2 = time.perf_counter()
    events.emit("setup", base_s=t1 - t0, warmup_s=t2 - t1)

    walls = {False: [], True: []}
    layer_samples: dict[str, list[float]] = {}
    deadline = time.perf_counter() + args.seconds
    i = 0
    # closed loop; a traced run goes on until it has both kinds of op
    while (time.perf_counter() < deadline
           or (args.trace and not (walls[False] and walls[True]))):
        traced = bool(args.trace) and i % 2 == 1
        wl.discard()
        events.emit("op_start", i=i)
        if traced:
            tracer.op_id = i
            tracer.enabled = True
        err = None
        res = None
        t_op = time.perf_counter()
        try:
            res = wl.op(i)
        except Exception:
            err = traceback.format_exc()
        wall = time.perf_counter() - t_op
        if tracer is not None:
            tracer.enabled = False
        if isinstance(res, dict):
            wall -= res.get("untimed_s", 0.0)
        if err is None:
            err = wl.check(res)
        if err is None:
            walls[traced].append(wall)
            if traced:
                for k, v in wl.layer_metrics(res, tracer,
                                             tracer.take_plans()).items():
                    layer_samples.setdefault(k, []).append(v)
        events.emit("op_end", i=i, wall_s=wall, ok=err is None, error=err,
                    traced=traced)
        i += 1

    done = {"walls": walls[False]}
    if args.trace:
        layers = {k: statistics.median(v) for k, v in layer_samples.items()}
        tw = statistics.median(walls[True])
        uw = statistics.median(walls[False])
        layers["trace.traced_wall_s"] = tw
        layers["trace.untraced_wall_s"] = uw
        layers["trace.overhead_s"] = tw - uw
        # the layers that together make up an operation's wall
        layers["trace.layer_coverage"] = sum(layers.get(k, 0.0) for k in (
            "sources.read_s", "transform.wall_s", "write.wall_s",
            "exchange.shuffle_s", "stats.wall_s", "finish.wall_s")) / uw
        layers.update(traced_metrics(wl, probes, tracer))
        tracer.dump(os.path.join(args.work, "spans", f"{wl.name}.json"))
        done["layers"] = layers
    events.emit("done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
