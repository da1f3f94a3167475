"""Executor parity: serial, thread and process runs are bit-identical.

The determinism contract of :mod:`repro.engine` — order-preserving maps,
SeedSequence-derived task randomness, accounting in the calling process —
means the *same* ``ProblemSpec(seed=...)`` must yield identical coresets,
radii and per-machine peak-storage accounting no matter which executor
the MPC backends fan out over.
"""

import numpy as np
import pytest

from repro.api import KCenterSession, ProblemSpec
from repro.workloads import clustered_with_outliers

MPC_BACKENDS = ["mpc-two-round", "mpc-one-round", "mpc-multi-round"]
EXECUTORS = ["serial", "thread", "process"]


def _run(backend: str, executor: str, jobs: "int | None" = 2):
    spec = ProblemSpec(k=3, z=16, eps=0.5, dim=2, seed=11,
                      executor=executor, jobs=jobs)
    wl = clustered_with_outliers(500, spec.k, spec.z, spec.dim,
                                 rng=np.random.default_rng(5))
    sess = KCenterSession.from_spec(spec, backend=backend, num_machines=6)
    sess.extend(wl.points)
    cs = sess.coreset()
    sol = sess.solve()
    stats = sess.backend.last_result.stats
    return cs, sol, stats


class TestExecutorParity:
    @pytest.mark.parametrize("backend", MPC_BACKENDS)
    def test_all_executors_bit_identical(self, backend):
        cs0, sol0, stats0 = _run(backend, "serial")
        for executor in EXECUTORS[1:]:
            cs, sol, stats = _run(backend, executor)
            # identical coreset, bit for bit
            assert np.array_equal(cs0.points, cs.points), executor
            assert np.array_equal(cs0.weights, cs.weights), executor
            # identical solved radius
            assert sol0.radius == sol.radius, executor
            # identical Machine peak-memory accounting
            assert stats0.per_machine_peak == stats.per_machine_peak, executor
            assert stats0.coordinator_peak == stats.coordinator_peak, executor
            assert stats0.worker_peak == stats.worker_peak, executor
            assert stats0.rounds == stats.rounds, executor
            assert stats0.total_communication == stats.total_communication, executor

    @pytest.mark.parametrize("backend", ["cpp-mpc-deterministic", "cpp-mpc-randomized"])
    def test_baseline_backends_honor_executor(self, backend):
        cs0, sol0, stats0 = _run(backend, "serial")
        cs, sol, stats = _run(backend, "thread")
        assert np.array_equal(cs0.points, cs.points)
        assert sol0.radius == sol.radius
        assert stats0.per_machine_peak == stats.per_machine_peak

    @pytest.mark.parametrize("backend", MPC_BACKENDS)
    @pytest.mark.parametrize("option", [
        {"executor": "thread"}, {"jobs": 2}, {"parallel": True},
        {"prune": "off"}, {"decision_jobs": 2},
    ])
    def test_execution_is_not_a_session_option(self, backend, option):
        """Execution is set by the spec alone."""
        spec = ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0)
        with pytest.raises(TypeError):
            KCenterSession.from_spec(spec, backend=backend, **option)

    def test_jobs_alone_implies_threads(self):
        spec = ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0, jobs=3)
        sess = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                        num_machines=2)
        assert sess.backend.executor.name == "thread"
        assert sess.backend.executor.jobs == 3

    def test_no_knobs_runs_serial(self):
        spec = ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0)
        sess = KCenterSession.from_spec(spec, backend="mpc-two-round",
                                        num_machines=2)
        assert sess.backend.executor.name == "serial"

    def test_resolved_executor_matches_backend_rule(self):
        """spec.resolved_executor() follows the same resolution rule the
        MPC backends apply."""
        assert ProblemSpec(k=1, z=0, eps=0.5).resolved_executor().name == "serial"
        ex = ProblemSpec(k=1, z=0, eps=0.5, jobs=4).resolved_executor()
        assert ex.name == "thread" and ex.jobs == 4  # jobs alone -> threads
        ex = ProblemSpec(k=1, z=0, eps=0.5, executor="process", jobs=2).resolved_executor()
        assert ex.name == "process" and ex.jobs == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(k=2, z=4, eps=0.5, jobs=0)
        with pytest.raises(ValueError):
            ProblemSpec(k=2, z=4, eps=0.5, executor=7)
