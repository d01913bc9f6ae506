"""ves-ray benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload flagship_batch --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The run generates its inputs from
``--seed`` under ``.perfbench_work/``, starts the Ray session
``SESSION_STARTS`` times in fresh child processes (each in its own
process session) and keeps the last one for the measurement, whose
closed loop lasts ``--seconds``. Each child is torn down with
``ray.shutdown()`` and then by killing its whole process group; a
process that outlives that counts as a failed operation.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is the ``host`` block.
Progress and errors go to stderr; the session's own log is under
``.perfbench_work/logs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_REL = ".perfbench_work"
SESSION_STARTS = 3          # set-up repetitions per run; median reported
RUN_BUDGET_S = 165.0        # the whole run, teardown included, ends by then
# An operation during which the hypervisor gave more than this share of
# the host's CPU time to other guests ran on a contended host (see how
# main() takes wall_s)
STEAL_LIMIT = 0.02
TOKEN_VAR = "PERFBENCH_SESSION"


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# -- /proc helpers ---------------------------------------------------------
def _proc_pids():
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _stat(pid: int):
    """(state, pgid) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
        return rest[0], int(rest[2])
    except (OSError, IndexError, ValueError):
        return None


def _has_token(pid: int, token: str) -> bool:
    try:
        with open(f"/proc/{pid}/environ", "rb") as f:
            return f"{TOKEN_VAR}={token}".encode() in f.read()
    except OSError:
        return False


def session_pids(pgid: int, token: str) -> list[int]:
    """Live (non-zombie) processes of a session: its process group, plus
    any descendant that left the group but kept the session's token."""
    out = []
    for pid in _proc_pids():
        st = _stat(pid)
        if st is None or st[0] == "Z":
            continue
        if st[1] == pgid or _has_token(pid, token):
            out.append(pid)
    return out


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def host_facts() -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {"affinity_cores": len(os.sched_getaffinity(0)), "nproc": nproc,
            "ray_cpus": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(), "cpu_times": cpu_times()}


# -- one Ray session in a child process ------------------------------------
class Session:
    def __init__(self, role: str, args, env: dict, cpus: int, log_path: str):
        self.token = env[TOKEN_VAR]
        r, w = os.pipe()
        cmd = [sys.executable, os.path.join(HERE, "session.py"),
               "--role", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--work", WORK_REL, "--cpus", str(cpus),
               "--events", str(w)]
        self.t_spawn = time.perf_counter()
        with open(log_path, "ab") as logf:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=logf, stderr=subprocess.STDOUT, pass_fds=(w,),
                start_new_session=True)
        os.close(w)
        self.pgid = self.proc.pid
        self._r = r
        self._buf = b""
        self.hwm: dict[int, int] = {}

    def event(self, timeout: float) -> dict | None:
        """Next event, or None if none came within ``timeout`` or the
        child closed its end."""
        end = time.monotonic() + max(timeout, 0.0)
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([self._r], [], [], left)[0]:
                return None
            chunk = os.read(self._r, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def sample_rss(self) -> None:
        for pid in session_pids(self.pgid, self.token):
            self.hwm[pid] = max(self.hwm.get(pid, 0), vm_hwm_kb(pid))

    def peak_rss_mb(self) -> float:
        return sum(self.hwm.values()) / 1024.0

    def teardown(self, grace_s: float) -> int:
        """Let the child finish its ray.shutdown(), then kill the process
        group. Returns how many processes outlived that."""
        try:
            self.proc.wait(timeout=max(grace_s, 0.0))
        except subprocess.TimeoutExpired:
            pass
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.pgid, sig)
            except ProcessLookupError:
                break
            for _ in range(10):
                if not session_pids(self.pgid, self.token):
                    break
                time.sleep(0.05)
        self.proc.wait()
        os.close(self._r)
        end = time.monotonic() + 5.0
        while True:
            alive = session_pids(self.pgid, self.token)
            if not alive or time.monotonic() > end:
                break
            time.sleep(0.2)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if alive:
            log(f"{len(alive)} session process(es) outlived the group kill")
        return len(alive)


def child_env(token: str) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    # Ray workers import ves_ray whatever their cwd
    env["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    env["VES_CHECK_INVARIANTS"] = "0"
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env[TOKEN_VAR] = token
    return env


# -- the run ----------------------------------------------------------------
class Run:
    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.cpus = len(os.sched_getaffinity(0))
        self.log_path = os.path.join(ROOT, WORK_REL, "logs",
                                     f"{args.workload}.log")

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.t0)

    def fail(self, msg: str) -> None:
        self.attempted += 1
        self.failed += 1
        log(msg)

    def spawn(self, role: str) -> Session:
        return Session(role, self.args, child_env(uuid.uuid4().hex),
                       self.cpus, self.log_path)

    def start_once(self, role: str) -> tuple[Session, float | None]:
        s = self.spawn(role)
        ev = s.event(min(90.0, self.left()))
        if not ev or ev["ev"] != "ready":
            self.fail(f"session start failed: "
                      f"{(ev or {}).get('detail', 'no ready event')}")
            return s, None
        t = time.perf_counter() - s.t_spawn
        log(f"{role} session ready in {t:.2f} s")
        return s, t

    def close(self, s: Session, grace_s: float) -> None:
        t0 = time.perf_counter()
        if s.teardown(min(grace_s, max(self.left(), 0.0))):
            self.fail("session processes survived teardown")
        log(f"session torn down in {time.perf_counter() - t0:.2f} s")

    def measure(self, wl) -> dict:
        """Session starts, set-up, warm-up and the closed loop."""
        args = self.args
        starts = []
        for _ in range(SESSION_STARTS - 1):
            s, t = self.start_once("start")
            self.close(s, 20.0)
            if t is None:
                return {}
            starts.append(t)
        s, t = self.start_once("main")
        out = {"walls": [], "steal": [], "starts": starts}
        try:
            if t is None:
                return out
            starts.append(t)
            ev = s.event(min(120.0, self.left()))
            if not ev or ev["ev"] != "setup":
                self.fail(f"set-up failed: {(ev or {}).get('detail', 'timeout')}")
                return out
            out["base_s"], out["warmup_s"] = ev["base_s"], ev["warmup_s"]
            log(f"base state {ev['base_s']:.2f} s, warm-up {ev['warmup_s']:.2f} s")
            s.sample_rss()
            cap = args.op_cap or wl.op_cap_s
            while True:
                ev = s.event(min(cap, self.left()) + 5.0)
                if ev is None:
                    self.fail("session ended without a result")
                    return out
                if ev["ev"] == "op_start":
                    host0 = cpu_times()
                    ev = s.event(min(cap, self.left()))
                    if ev is None:
                        self.fail(f"operation exceeded its {cap:.0f} s cap; "
                                  "session killed")
                        return out
                if ev["ev"] == "op_end":
                    self.attempted += 1
                    s.sample_rss()
                    if not ev["ok"]:
                        self.failed += 1
                        log(f"operation {ev['i']} failed: {ev['error']}")
                    else:
                        log(f"operation {ev['i']}: {ev['wall_s']:.3f} s"
                            + (" (traced)" if ev["traced"] else ""))
                        if not ev["traced"]:
                            d = [b - a for a, b in zip(host0, cpu_times())]
                            out["walls"].append(ev["wall_s"])
                            out["steal"].append(d[7] / max(sum(d), 1))
                elif ev["ev"] == "done":
                    s.sample_rss()
                    out["layers"] = ev.get("layers", {})
                    return out
                elif ev["ev"] == "error":
                    self.fail(f"session error: {ev['detail']}")
                    return out
        finally:
            out["peak_rss_mb"] = s.peak_rss_mb()
            # a session stopped by its cap gets no grace period
            self.close(s, 20.0 if "layers" in out else 0.0)


def clean_work(work: str) -> None:
    """Remove the previous run's inputs, outputs and Ray session files;
    logs and spans stay for inspection."""
    for name in ("in", "out", "ray", "tmp"):
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    for name in ("logs", "spans", "tmp"):
        os.makedirs(os.path.join(work, name), exist_ok=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # the self-test's knobs: tiny inputs, and a short operation cap
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--op-cap", type=float, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    # a terminated run still tears its sessions down (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "ves_ray", "__init__.py")):
        log(f"no ves_ray package under {ROOT}: run from a full checkout")
        return 2
    sys.path[:0] = [HERE, ROOT, os.path.join(ROOT, "tools")]
    from workloads import (END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS,
                           probe_names)
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2

    host = host_facts()
    work = os.path.join(ROOT, WORK_REL)
    clean_work(work)
    # temporary files of this process and its sessions stay in the checkout
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    run = Run(args)
    wl = WORKLOADS[args.workload](work, args.seed, args.size)
    gen_s = wl.prepare()
    rows = wl.rows()
    log(f"inputs generated in {gen_s:.2f} s")
    if args.trace:
        for name in probe_names(args.workload):
            WORKLOADS[name](work, args.seed, "tiny").prepare()
    try:
        res = run.measure(wl)
    finally:
        clean_work(work)
    walls = res.get("walls", [])
    # host contention (other guests' CPU steal) slows an operation by
    # far more than the stolen share; when some operations of the run
    # saw none, wall_s is the median of those
    clean = [w for w, st in zip(walls, res.get("steal", []))
             if st <= STEAL_LIMIT]
    if not walls and not run.failed:
        run.fail("no operation completed")

    import pyarrow
    import ray
    # share of CPU time the hypervisor gave to other guests during the run
    delta = [b - a for a, b in zip(host.pop("cpu_times"), cpu_times())]
    host.update(steal_share=delta[7] / max(sum(delta), 1),
                loadavg_after=os.getloadavg(), ray=ray.__version__,
                pyarrow=pyarrow.__version__, operations=len(walls),
                operation_steal=res.get("steal", []),
                operations_uncontended=len(clean))
    print(json.dumps({"host": host}))
    log(f"run took {time.monotonic() - run.t0:.1f} s")

    wall = statistics.median(clean or walls) if walls else 0.0
    if args.trace:
        layers = res.get("layers", {})
        layers["session.init_s"] = (statistics.median(res["starts"])
                                    if res.get("starts") else 0.0)
        layers["session.warmup_s"] = res.get("warmup_s", 0.0)
        values = layers
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": wall,
            "setup_s": (gen_s + (statistics.median(res["starts"])
                                 if res.get("starts") else 0.0)
                        + res.get("base_s", 0.0) + res.get("warmup_s", 0.0)),
            "rows_per_s": rows / wall if wall else 0.0,
            "peak_rss_mb": res.get("peak_rss_mb", 0.0),
        }
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing and walls:
        run.fail(f"metrics not measured: {missing}")
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
               for k, u in units.items()}
    print(json.dumps({"correct": run.failed == 0 and bool(walls),
                      "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
