"""Benchmark entry point: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload stream-insert --seed 1 \
        --seconds 15 --trace 0

Run from the repository root.  The workload runs in a child process
(``child.py``) with ``src`` on its path, so its peak RSS is its own.
This process records the machine (CPU, thread settings, versions) and a
fixed calibration timing, prints every metric as ``name value unit``,
and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  Scratch files go
under ``.perfbench_tmp/`` and are removed; span files of traced runs
are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream-insert", "mpc-batch", "dynamic-churn", "serve-sessions")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: the whole invocation must end within this many seconds
DEADLINE_S = 170.0


def child_env() -> dict:
    """The environment of the workload process: ``src`` importable, BLAS
    and OpenMP pools of one thread (at most ``nproc``), hash seed fixed.

    The workloads make many small BLAS calls from one Python thread; with
    a second pool thread on a 2-core host, a set-up of about 1.5 ms took
    5-6 ms in one unit out of three or four, and a unit's time varied
    more (README.md)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def fingerprint(env: dict, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def calibrate() -> float:
    """Median of 3 timings of a 4096 x 4096 ``cdist`` plus a row sort, so
    runs on different machines can be compared after normalization."""
    import numpy as np
    from scipy.spatial.distance import cdist

    x = np.random.default_rng(0).random((4096, 8))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        d = cdist(x, x)
        d.sort(axis=1)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def expected_metrics(trace: int) -> "dict[str, str] | None":
    """Metric name -> unit from BENCHMARK.json, when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def run_child(args, env: dict, work_dir: str, out: str, budget: float) -> int:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--out", out]
    # own process group, so a timeout also reaches the serve subprocess
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"workload exceeded {budget:.0f} s", file=sys.stderr)
        return 1
    finally:
        try:  # reap whatever the workload left in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main(argv=None) -> int:
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    machine = fingerprint(env, nproc)
    machine["calibration_s"] = calibrate()
    print("machine " + json.dumps(machine))

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        out = os.path.join(work_dir, "result.json")
        budget = DEADLINE_S - (time.monotonic() - t0)
        code = run_child(args, env, work_dir, out, budget)
        if code != 0 or not os.path.isfile(out):
            print(f"workload process failed (exit {code})", file=sys.stderr)
            return 1
        with open(out) as fh:
            doc = json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    metrics = doc.get("metrics")
    if not metrics:
        print("no unit completed:\n" + "\n".join(doc["problems"]),
              file=sys.stderr)
        return 1
    for problem in doc["problems"]:
        print("FAILED " + problem.rstrip())
    correct = doc["failed"] == 0
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != expected:
            print(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
            correct = False
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    ratio = doc["failed"] / doc["attempted"]
    print(f"failed_ops_ratio {ratio!r} ratio ({doc['failed']} of "
          f"{doc['attempted']} operations and checks)")
    print(f"units {doc['units']}, extend samples {doc['extend_samples']}, "
          f"solve samples {doc['solve_samples']}")
    for path in doc.get("trace_files", []):
        print(f"trace {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
