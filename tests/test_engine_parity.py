"""Executor parity: serial, thread and process runs are bit-identical.

The determinism contract of :mod:`repro.engine` — order-preserving maps,
SeedSequence-derived task randomness, accounting in the calling process —
means every MPC protocol must yield identical coresets, radii and
per-machine peak-storage accounting no matter which executor its
machine-local work fans out over.  Sessions run the machines serially;
the ``executor`` knob lives on the protocol functions only.
"""

import numpy as np
import pytest

from repro.api import KCenterSession, ProblemSpec
from repro.core.greedy import charikar_greedy
from repro.mpc import (
    ceccarello_one_round_deterministic,
    ceccarello_one_round_randomized,
    multi_round_coreset,
    one_round_coreset,
    partition_contiguous,
    partition_random,
    two_round_coreset,
)
from repro.workloads import clustered_with_outliers

K, Z, EPS = 3, 16, 0.5

#: protocol -> (run(parts, executor), partition scheme)
PROTOCOLS = {
    "two-round": (lambda parts, ex: two_round_coreset(
        parts, K, Z, EPS, executor=ex), "contiguous"),
    "one-round": (lambda parts, ex: one_round_coreset(
        parts, K, Z, EPS, executor=ex), "random"),
    "multi-round": (lambda parts, ex: multi_round_coreset(
        parts, K, Z, EPS, rounds=2, executor=ex), "contiguous"),
    "cpp-deterministic": (lambda parts, ex: ceccarello_one_round_deterministic(
        parts, K, Z, EPS, executor=ex), "contiguous"),
    "cpp-randomized": (lambda parts, ex: ceccarello_one_round_randomized(
        parts, K, Z, EPS, executor=ex), "random"),
}
EXECUTORS = ["serial", "thread:2", "process:2"]
MPC_BACKENDS = ["mpc-two-round", "mpc-one-round", "mpc-multi-round"]


def _parts(scheme: str):
    wl = clustered_with_outliers(500, K, Z, 2, rng=np.random.default_rng(5))
    P = wl.point_set()
    if scheme == "random":
        return partition_random(P, 6, np.random.default_rng(12))
    return partition_contiguous(P, 6)


class TestExecutorParity:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_all_executors_bit_identical(self, protocol):
        run, scheme = PROTOCOLS[protocol]
        parts = _parts(scheme)
        base = run(parts, "serial")
        r0 = charikar_greedy(base.coreset, K, Z).radius
        for executor in EXECUTORS[1:]:
            res = run(parts, executor)
            # identical coreset, bit for bit
            assert np.array_equal(base.coreset.points, res.coreset.points), executor
            assert np.array_equal(base.coreset.weights, res.coreset.weights), executor
            # identical solved radius
            assert charikar_greedy(res.coreset, K, Z).radius == r0, executor
            # identical Machine peak-memory accounting
            s0, s = base.stats, res.stats
            assert s0.per_machine_peak == s.per_machine_peak, executor
            assert s0.coordinator_peak == s.coordinator_peak, executor
            assert s0.worker_peak == s.worker_peak, executor
            assert s0.rounds == s.rounds, executor
            assert s0.total_communication == s.total_communication, executor

    @pytest.mark.parametrize("backend", MPC_BACKENDS)
    @pytest.mark.parametrize("option", [
        {"executor": "thread"}, {"jobs": 2}, {"parallel": True},
        {"prune": "off"}, {"decision_jobs": 2},
    ])
    def test_execution_is_not_a_session_option(self, backend, option):
        """Neither the session options nor the spec carry execution."""
        spec = ProblemSpec(k=2, z=4, eps=0.5, dim=2, seed=0)
        with pytest.raises(TypeError):
            KCenterSession.from_spec(spec, backend=backend, **option)
        with pytest.raises(TypeError):
            ProblemSpec(k=2, z=4, eps=0.5, **option)
