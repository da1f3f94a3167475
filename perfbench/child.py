"""Run one workload in this process and write its result as JSON.

``run.py`` starts this file in a fresh process per run, so the peak RSS
it reports belongs to this workload alone::

    python child.py --workload W --seed N --seconds S --trace 0|1 \
        --work-dir DIR --out FILE

Untraced (``--trace 0``): repeat units while the next one is expected
to end near ``--seconds`` (at least three, so set-up time is a median)
and report the end-to-end metrics.  Traced (``--trace 1``): alternate
an untraced and a traced unit, report the per-layer metrics of the
first traced unit and the ratio of traced to untraced wall time of the
timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
import traceback

import numpy as np

import tracing
import workloads

perf = time.perf_counter

#: span files of traced runs go here, in the checkout
TRACE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".perfbench_out")

#: end-to-end metric name -> unit
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "points/s",
    "extend_p50_s": "s",
    "extend_p90_s": "s",
    "solve_p50_s": "s",
    "coreset_s": "s",
    "peak_rss_mb": "MB",
    "coreset_points": "points",
    "solution_cost": "distance",
    "comm_points": "points",
    "machine_peak_points": "points",
    "ok_ops_ratio": "ratio",
}

MIN_UNITS = 3

#: outputs that must repeat exactly in every unit of a run
REPEATED = ("coreset_points", "solution_cost", "comm_points",
            "machine_peak_points")


class Run:
    """Units of one run plus the operation and check tallies."""

    def __init__(self, args):
        self.args = args
        self.fn = workloads.WORKLOADS[args.workload]
        self.units: "list[workloads.Unit]" = []
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.started = 0

    def unit(self, tracer=None) -> "workloads.Unit | None":
        self.started += 1
        ctx = workloads.Context(self.args.seed, self.args.work_dir,
                                self.started)
        if tracer is not None:
            ctx.tracer = tracer
            ctx.server_trace = {}
            patches = tracing.install(tracer)
        try:
            u = self.fn(ctx)
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.problems.append(traceback.format_exc())
            return None
        finally:
            if tracer is not None:
                patches.restore()
        if u.rss_mb is None and self.started == 1:
            # this process's peak over one repetition; later units add
            # heap the allocator kept, which differs from run to run
            u.rss_mb = workloads.peak_rss_mb()
        if ctx.server_trace:
            tracer.merge(ctx.server_trace)
        self.attempted += u.attempted
        self.failed += u.failed
        self.problems.extend(u.problems)
        if self.units:
            first = self.units[0]
            for key in REPEATED:
                self.check(getattr(u, key) == getattr(first, key),
                           f"{key} {getattr(u, key)!r} != first unit's "
                           f"{getattr(first, key)!r}")
        self.units.append(u)
        return u

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def end_to_end(run: Run) -> dict:
    units = run.units
    extends = [x for u in units for x in u.extend_s]
    solves = [x for u in units for x in u.solve_s]
    first = units[0]
    values = {
        "setup_s": statistics.median(u.setup_s for u in units),
        "updates_per_s": statistics.median(u.updates / u.ingest_s
                                           for u in units),
        "extend_p50_s": float(np.percentile(extends, 50)),
        "extend_p90_s": float(np.percentile(extends, 90)),
        "solve_p50_s": statistics.median(solves),
        "coreset_s": statistics.median(u.coreset_s for u in units),
        "peak_rss_mb": statistics.median(u.rss_mb for u in units
                                         if u.rss_mb is not None),
        "coreset_points": first.coreset_points,
        "solution_cost": first.solution_cost,
        "comm_points": first.comm_points,
        "machine_peak_points": first.machine_peak_points,
        "ok_ops_ratio": (run.attempted - run.failed) / run.attempted,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    run = Run(args)
    doc: dict = {}
    start = perf()
    if not args.trace:
        # stop before a unit that would overrun the run by more than half
        # a unit, so the run's wall time stays near --seconds
        walls = []
        while (len(walls) < MIN_UNITS or perf() - start
               + statistics.median(walls) / 2 < args.seconds):
            t = perf()
            if run.unit() is None:
                break
            walls.append(perf() - t)
        if run.units:
            doc["metrics"] = end_to_end(run)
    else:
        plain, traced, tracers = [], [], []
        while not traced or perf() - start < args.seconds:
            u0 = run.unit()
            tracer = tracing.Tracer()
            u1 = run.unit(tracer) if u0 is not None else None
            if u1 is None:
                break
            plain.append(u0.timed_s)
            traced.append(u1.timed_s)
            tracers.append(tracer)
        for tracer in tracers:
            bad = tracer.check_self_times()
            run.check(not bad, f"self times do not add up: {bad[:3]}")
        if tracers:
            ratio = statistics.median(traced) / statistics.median(plain)
            layer = tracing.layer_metrics(tracers[0], ratio)
            doc["metrics"] = {name: {"value": layer[name], "unit": unit}
                              for name, unit in tracing.LAYER_UNITS.items()}
            stem = os.path.join(TRACE_DIR,
                                f"{args.workload}-seed{args.seed}")
            doc["trace_files"] = list(tracers[0].write(stem))
            doc["dropped_spans"] = tracers[0].dropped
    doc.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "units": len(run.units),
        "extend_samples": sum(len(u.extend_s) for u in run.units),
        "solve_samples": sum(len(u.solve_s) for u in run.units),
    })
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
