"""The four benchmark workloads.

Each workload is a function ``unit(ctx) -> Unit`` that runs one complete
repetition: set-up (input generation, store or server start, session
construction), the timed phase, and the output checks.  The runner in
``child.py`` repeats units until the run's time is spent, so every
repetition of one run sees the same inputs and must produce the same
coreset and cost.

Sizes are fixed here, not derived from the run length, so a faster or
slower machine changes only how many repetitions fit in a run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

import gen

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Unit:
    """What one repetition measured and checked."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    updates: int = 0
    ingest_s: float = 0.0
    extend_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    coreset_s: float = 0.0
    coreset_points: int = 0
    solution_cost: float = 0.0
    #: ``MPCStats.total_communication``; on single-machine workloads a fixed
    #: reference equal to the input size
    comm_points: int = 0
    machine_peak_points: int = 0
    #: peak RSS: the server's on serve-sessions, else set by the runner
    rss_mb: "float | None" = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """One output check; a failed one counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def op(self, fn, *args, **kwargs):
        """One operation on the program; an exception counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)}: "
                                 f"{type(exc).__name__}: {exc}")
            raise


class _NoTrace:
    """Stands in for the tracer on untraced units."""

    def span(self, name):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, name, value=1.0):
        pass

    def peak(self, name, value):
        pass


NO_TRACE = _NoTrace()


@dataclass
class Context:
    seed: int
    work_dir: str
    index: int
    tracer: object = NO_TRACE
    #: the traced server's aggregates, read back after it stops
    server_trace: "dict | None" = None

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, f"u{self.index}-{name}")


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of a process: the peak RSS of its current address space.
    (``ru_maxrss`` would also count the parent's pages at fork time.)"""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def kcenter_cost(points: np.ndarray, centers: np.ndarray, z: int) -> float:
    """Radius that covers all but ``z`` of ``points`` from ``centers``."""
    if len(points) <= z or len(centers) == 0:
        return 0.0
    d = cdist(points, centers).min(axis=1)
    return float(np.partition(d, len(d) - z - 1)[len(d) - z - 1])


def check_cost(unit: Unit, cost: float, radius: float, eps: float,
               label: str = "") -> None:
    """Definition 1 (2): balls of the solve radius leave weight <= z on the
    coreset, so growing them by ``eps * opt`` leaves <= z on the input.
    With ``opt <= cost`` that gives ``cost <= radius / (1 - eps)``."""
    if not eps < 1:
        unit.check(False, f"{label}guarantee eps {eps} >= 1 bounds nothing")
        return
    bound = radius / (1.0 - eps)
    unit.check(0 < cost <= bound * (1 + 1e-9) + 1e-12,
               f"{label}cost {cost!r} outside (0, {bound!r}] "
               f"(radius {radius!r}, eps {eps})")


# ---------------------------------------------------------------------------
# stream-insert: Algorithm 3 fed chunk-wise from a PointStore
# ---------------------------------------------------------------------------

STREAM = dict(k=8, z=64, eps=0.5, n=65536, batch=1024, solve_every=16384,
              prefix=1024)


def stream_insert(ctx: Context) -> Unit:
    from repro.api import KCenterSession, ProblemSpec
    from repro.store import PointStore

    p, u, tr = STREAM, Unit(), ctx.tracer
    t0 = perf()
    pts = gen.clustered(gen.rng_for(ctx.seed, "stream-insert"),
                        p["n"], p["k"], p["z"], prefix=p["prefix"])
    src = PointStore.write(ctx.path("store"), [pts], chunk_rows=p["batch"])
    spec = ProblemSpec(k=p["k"], z=p["z"], eps=p["eps"], dim=2, seed=ctx.seed)
    sess = KCenterSession.from_spec(spec, backend="insertion-only")
    u.setup_s = perf() - t0

    sol, rows, peak = None, 0, 0
    t_start = perf()
    with tr.span("unit.stream-insert"):
        chunks = iter(src.chunks(p["batch"]))
        while True:
            t = perf()
            item = next(chunks, None)
            if item is None:
                u.ingest_s += perf() - t
                break
            t1 = perf()
            u.op(sess.extend, item[0])
            t2 = perf()
            u.ingest_s += t2 - t
            u.extend_s.append(t2 - t1)
            rows += len(item[0])
            peak = max(peak, sess.backend.algo.size)
            if rows % p["solve_every"] == 0:
                t = perf()
                sol = u.op(sess.solve)
                u.solve_s.append(perf() - t)
        t = perf()
        cs = u.op(sess.coreset)
        tail = perf() - t
    u.timed_s = perf() - t_start
    u.coreset_s = u.ingest_s + tail
    u.updates = rows

    # off the timed path: the persist round trip and the output checks
    with tr.span("unit.persist"):
        path = u.op(sess.save, ctx.path("snapshot.npz"))
        back = u.op(KCenterSession.load, path)
        again = back.coreset()
    u.check(np.array_equal(again.points, cs.points)
            and np.array_equal(again.weights, cs.weights),
            "coreset differs after save()/load()")
    u.check(rows == p["n"], f"ingested {rows} of {p['n']} rows")
    u.check(int(cs.total_weight) == p["n"],
            f"coreset weight {cs.total_weight} != live points {p['n']}")
    u.coreset_points = len(cs)
    u.solution_cost = kcenter_cost(pts, sol.centers, p["z"])
    check_cost(u, u.solution_cost, sol.radius, sess.guarantee().eps)
    u.comm_points = rows
    u.machine_peak_points = peak
    return u


# ---------------------------------------------------------------------------
# mpc-batch: Algorithm 2 over m contiguous machines, then one solve
# ---------------------------------------------------------------------------

MPC = dict(k=8, z=32, eps=0.25, n=5000, machines=8)


def mpc_batch(ctx: Context) -> Unit:
    from repro.api import KCenterSession, ProblemSpec

    p, u, tr = MPC, Unit(), ctx.tracer
    t0 = perf()
    pts = gen.clustered(gen.rng_for(ctx.seed, "mpc-batch"),
                        p["n"], p["k"], p["z"])
    parts = np.array_split(pts, p["machines"])
    spec = ProblemSpec(k=p["k"], z=p["z"], eps=p["eps"], dim=2, seed=ctx.seed)
    sess = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                    num_machines=p["machines"])
    u.setup_s = perf() - t0

    # a batch backend reflects a batch only once coreset() has run, so the
    # extend latency of this workload is hand-off plus coreset()
    t_start = perf()
    with tr.span("unit.mpc-batch"):
        for part in parts:
            u.op(sess.extend, part)
        cs = u.op(sess.coreset)
        u.coreset_s = perf() - t_start
        t = perf()
        sol = u.op(sess.solve)
        u.solve_s.append(perf() - t)
    u.timed_s = perf() - t_start
    u.extend_s.append(u.coreset_s)
    u.updates = len(pts)
    u.ingest_s = u.coreset_s

    stats = sess.backend.last_result.stats
    tr.count("mpc.rounds", stats.rounds)
    u.check(stats.rounds == 2, f"{stats.rounds} rounds, Algorithm 2 uses 2")
    u.check(int(cs.total_weight) == len(pts),
            f"coreset weight {cs.total_weight} != input points {len(pts)}")
    u.coreset_points = len(cs)
    u.solution_cost = kcenter_cost(pts, sol.centers, p["z"])
    check_cost(u, u.solution_cost, sol.radius, sess.guarantee().eps)
    u.comm_points = int(stats.total_communication)
    u.machine_peak_points = int(stats.worker_peak)
    return u


# ---------------------------------------------------------------------------
# dynamic-churn: Algorithm 5 under interleaved inserts, deletes and solves
# ---------------------------------------------------------------------------

DYNAMIC = dict(k=4, z=16, eps=0.75, delta=1024, rounds=12, batch=50)


def dynamic_churn(ctx: Context) -> Unit:
    from repro.api import KCenterSession, ProblemSpec

    p, u, tr = DYNAMIC, Unit(), ctx.tracer
    t0 = perf()
    rounds, b = p["rounds"], p["batch"]
    pts = gen.integer_clustered(gen.rng_for(ctx.seed, "dynamic-churn"),
                                rounds * b, p["k"], p["z"], p["delta"])
    batches = np.split(pts, rounds)
    spec = ProblemSpec(k=p["k"], z=p["z"], eps=p["eps"], dim=2, seed=ctx.seed)
    sess = KCenterSession.from_spec(spec, backend="dynamic",
                                    delta_universe=p["delta"])
    u.setup_s = perf() - t0

    sol, peak = None, 0
    t_start = perf()
    with tr.span("unit.dynamic-churn"):
        for batch in batches:
            t = perf()
            u.op(sess.extend, batch)
            t1 = perf()
            u.op(sess.delete_many, batch[: b // 2])
            t2 = perf()
            u.extend_s.append(t1 - t)
            u.ingest_s += t2 - t
            sol = u.op(sess.solve)
            u.solve_s.append(perf() - t2)
            peak = max(peak, sol.coreset_size)
        t = perf()
        cs = u.op(sess.coreset)
        tail = perf() - t
    u.timed_s = perf() - t_start
    u.coreset_s = u.ingest_s + tail
    u.updates = rounds * (b + b // 2)
    tr.peak("sketches.cells_peak", sess.stats()["storage_cells"])

    live = np.concatenate([batch[b // 2:] for batch in batches])
    u.check(int(cs.total_weight) == len(live),
            f"coreset weight {cs.total_weight} != live points {len(live)}")
    u.coreset_points = len(cs)
    u.solution_cost = kcenter_cost(live, sol.centers, p["z"])
    check_cost(u, u.solution_cost, sol.radius, sess.guarantee().eps)
    u.comm_points = u.updates
    u.machine_peak_points = peak
    return u


# ---------------------------------------------------------------------------
# serve-sessions: repro.serve in its own process, 2 keep-alive clients
# ---------------------------------------------------------------------------

SERVE = dict(k=4, z=16, eps=0.75, sessions=6, conns=2, n=8192, batch=512,
             max_resident=4, prefix=1024)


class _Conn:
    """One keep-alive HTTP connection in a closed loop."""

    def __init__(self, port: int):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, body: bytes = b"",
                headers: "dict | None" = None) -> "tuple[int, bytes]":
        self.http.request(method, path, body=body or None,
                          headers=headers or {})
        resp = self.http.getresponse()
        return resp.status, resp.read()


def _scrape(conn: _Conn) -> "dict[str, float]":
    """Sums of the server's Prometheus series, keyed by metric name
    (scrapes of /metrics itself are left out)."""
    status, body = conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: "dict[str, float]" = {}
    for line in body.decode().splitlines():
        m = re.match(r"^([a-zA-Z_:][\w:]*)(\{.*\})? (\S+)$", line)
        if m is None or 'route="/metrics"' in (m.group(2) or ""):
            continue
        out[m.group(1)] = out.get(m.group(1), 0.0) + float(m.group(3))
    return out


def _start_server(ctx: Context) -> "tuple[subprocess.Popen, int]":
    ready = ctx.path("ready.json")
    args = ["--port", "0", "--spool-dir", ctx.path("spool"),
            "--ready-file", ready,
            "--max-resident", str(SERVE["max_resident"])]
    if ctx.server_trace is not None:
        cmd = [sys.executable, os.path.join(HERE, "serve_shim.py"),
               ctx.path("server-trace.json")] + args
    else:
        cmd = [sys.executable, "-m", "repro.serve"] + args
    log = ctx.path("server.log")
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT)
    deadline = perf() + 60
    while not os.path.exists(ready):
        if proc.poll() is not None or perf() > deadline:
            _stop_server(proc)
            with open(log) as fh:
                raise RuntimeError("server did not become ready: "
                                   + fh.read()[-2000:])
        time.sleep(0.01)
    with open(ready) as fh:
        return proc, int(json.load(fh)["port"])


def _stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (the server checkpoints and exits); SIGKILL after 60 s."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def serve_sessions(ctx: Context) -> Unit:
    p, u, tr = SERVE, Unit(), ctx.tracer
    names = [f"s{i}" for i in range(p["sessions"])]
    t0 = perf()
    data = {name: gen.clustered(gen.rng_for(ctx.seed, "serve-sessions", name),
                                p["n"], p["k"], p["z"], prefix=p["prefix"])
            for name in names}
    proc, port = _start_server(ctx)
    try:
        conns = [_Conn(port) for _ in range(p["conns"])]
        create = json.dumps({"spec": {"k": p["k"], "z": p["z"],
                                      "eps": p["eps"], "dim": 2,
                                      "seed": ctx.seed},
                             "backend": "insertion-only"}).encode()
        for name in names:
            status, body = conns[0].request(
                "PUT", f"/sessions/{name}", create,
                {"Content-Type": "application/json"})
            u.check(status == 201, f"PUT {name} -> {status}: {body[:200]!r}")
        u.setup_s = perf() - t0
        before = _scrape(conns[0])
        solutions: "dict[str, dict]" = {}
        ends, errors = [0.0] * p["conns"], []
        lock = threading.Lock()
        barrier = threading.Barrier(p["conns"])

        def client(c: int, t_start: float) -> None:
            conn, mine = conns[c], names[c::p["conns"]]
            try:
                with tr.span("serve.client"):
                    for lo in range(0, p["n"], p["batch"]):
                        for name in mine:
                            with tr.span("wire.encode"):
                                rows = np.ascontiguousarray(
                                    data[name][lo:lo + p["batch"]], "<f8")
                                body = rows.tobytes()
                            hdrs = {"Content-Type": "application/octet-stream",
                                    "X-Repro-Shape": f"{len(rows)},2"}
                            t = perf()
                            with tr.span("serve.request"):
                                status, reply = conn.request(
                                    "POST", f"/sessions/{name}/extend",
                                    body, hdrs)
                            dt = perf() - t
                            with lock:
                                u.extend_s.append(dt)
                                u.check(status == 200,
                                        f"extend {name} -> {status}: "
                                        f"{reply[:200]!r}")
                            tr.count("serve.client_s", dt)
                            tr.count("wire.bytes", len(body))
                    ends[c] = perf() - t_start
                    barrier.wait()
                    for name in mine:
                        t = perf()
                        with tr.span("serve.request"):
                            status, reply = conn.request(
                                "GET", f"/sessions/{name}/solve")
                        dt = perf() - t
                        tr.count("serve.client_s", dt)
                        with lock:
                            u.solve_s.append(dt)
                            u.check(status == 200, f"solve {name} -> "
                                    f"{status}: {reply[:200]!r}")
                            if status == 200:
                                solutions[name] = json.loads(reply)
            except Exception as exc:  # reported as a failed operation
                barrier.abort()
                with lock:
                    errors.append(f"client {c}: {type(exc).__name__}: {exc}")

        t_start = perf()
        threads = [threading.Thread(target=client, args=(c, t_start))
                   for c in range(p["conns"])]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        u.timed_s = perf() - t_start
        for msg in errors:
            u.check(False, msg)
        after = _scrape(conns[0])
        u.rss_mb = peak_rss_mb(proc.pid)
        for conn in conns:
            conn.http.close()
    finally:
        _stop_server(proc)
    if ctx.server_trace is not None:
        with open(ctx.path("server-trace.json")) as fh:
            ctx.server_trace.update(json.load(fh))

    def delta(metric: str) -> float:
        return after.get(metric, 0.0) - before.get(metric, 0.0)

    tr.count("serve.requests", delta("repro_serve_http_requests_total"))
    tr.count("serve.server_s", delta("repro_serve_request_seconds_sum"))
    tr.count("serve.evictions", delta("repro_serve_evictions_total"))
    tr.count("serve.restores", delta("repro_serve_restores_total"))

    u.ingest_s = max(ends)
    u.coreset_s = u.ingest_s
    u.updates = p["n"] * len(names)
    u.comm_points = u.updates
    costs = []
    for name in names:
        sol = solutions.get(name)
        if sol is None:
            u.check(False, f"no solution for {name}")
            continue
        u.check(sol["updates"] == p["n"],
                f"{name} saw {sol['updates']} of {p['n']} points")
        centers = np.asarray(sol["centers"], dtype=float).reshape(-1, 2)
        cost = kcenter_cost(data[name], centers, p["z"])
        check_cost(u, cost, sol["radius"], sol["eps_guarantee"], f"{name}: ")
        costs.append(cost)
        u.coreset_points += int(sol["coreset_size"])
        u.comm_points += len(centers)
        u.machine_peak_points = max(u.machine_peak_points,
                                    int(sol["coreset_size"]))
    u.solution_cost = float(np.mean(costs)) if costs else 0.0
    return u


WORKLOADS = {
    "stream-insert": stream_insert,
    "mpc-batch": mpc_batch,
    "dynamic-churn": dynamic_churn,
    "serve-sessions": serve_sessions,
}
