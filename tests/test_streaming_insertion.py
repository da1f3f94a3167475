"""Tests for Algorithm 3 (insertion-only streaming coreset)."""

import numpy as np
import pytest

import repro.core.greedy
import repro.core.mbc
import repro.core.metrics
import repro.streaming.insertion_only
from repro.core import (
    WeightedPointSet,
    brute_force_opt,
    verify_sandwich,
)
from repro.core._greedy_reference import insertion_only_reference
from repro.streaming import (
    CeccarelloStreamingCoreset,
    InsertionOnlyCoreset,
    paper_size_threshold,
)
from repro.workloads import drifting_stream


class TestThreshold:
    def test_formula(self):
        from math import ceil
        assert paper_size_threshold(2, 5, 0.5, 1) == 2 * ceil(32) + 5

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            paper_size_threshold(1, 0, 0.0, 1)


class TestBasicStreaming:
    def test_weight_equals_stream_length(self, rng):
        st = InsertionOnlyCoreset(2, 3, 1.0, d=1)
        pts = rng.normal(size=(200, 1))
        st.extend(pts)
        assert st.coreset().total_weight == 200
        assert st.points_seen == 200

    def test_size_within_threshold(self, rng):
        st = InsertionOnlyCoreset(2, 3, 1.0, d=1, size_cap=30)
        st.extend(rng.normal(size=(500, 1)))
        assert st.size <= 30

    def test_r_lower_bounds_opt(self, rng):
        """Lemma 17's invariant r <= opt_{k,z}(P(t)): holds when running
        with the paper threshold (it is exactly what `size_cap` trades
        away).  Checked against the exact discrete optimum, which upper
        bounds the continuous one."""
        pts = rng.uniform(0, 10, size=(60, 1))
        st = InsertionOnlyCoreset(1, 0, 1.0, d=1)  # threshold k*16+z = 16
        st.extend(pts)
        assert st.doublings > 0  # the interesting regime is exercised
        opt = brute_force_opt(
            WeightedPointSet.from_points(pts), 1, 0, max_points=60
        ).radius
        assert st.r <= opt + 1e-9

    def test_coreset_sandwich(self, rng):
        stream = drifting_stream(600, 2, 5, d=1, rng=rng)
        st = InsertionOnlyCoreset(2, 5, 1.0, d=1)
        st.extend(stream)
        P = WeightedPointSet.from_points(stream)
        assert verify_sandwich(P, st.coreset(), 2, 5, 1.0).ok

    def test_duplicate_points_absorbed_at_r0(self):
        st = InsertionOnlyCoreset(1, 0, 1.0, d=1)
        for _ in range(10):
            st.insert([5.0])
        assert st.size == 1 and st.coreset().total_weight == 10

    def test_r_initialization_at_k_plus_z_plus_1(self):
        st = InsertionOnlyCoreset(2, 1, 1.0, d=1)
        for x in [0.0, 10.0, 20.0]:
            st.insert([x])
        assert st.r == 0.0
        st.insert([30.0])  # k + z + 1 = 4th distinct point
        assert st.r == pytest.approx(5.0)  # min pairwise 10 / 2

    def test_doubling_occurs_when_capped(self, rng):
        st = InsertionOnlyCoreset(2, 2, 1.0, d=1, size_cap=8)
        st.extend(rng.uniform(0, 100, size=(300, 1)))
        assert st.doublings > 0
        assert st.size <= 8

    def test_dim_mismatch_rejected(self):
        st = InsertionOnlyCoreset(1, 0, 1.0, d=2)
        st.insert([0.0, 0.0])
        with pytest.raises(ValueError):
            st.insert([0.0])

    def test_empty_coreset(self):
        st = InsertionOnlyCoreset(1, 0, 1.0, d=1)
        assert len(st.coreset()) == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            InsertionOnlyCoreset(1, 0, 0.0, d=1)
        with pytest.raises(ValueError):
            InsertionOnlyCoreset(0, 0, 0.5, d=1)
        with pytest.raises(ValueError):
            InsertionOnlyCoreset(2, 3, 0.5, d=1, size_cap=4)  # < k+z+2


class TestAdversarialOrder:
    def test_sorted_order(self, rng):
        """Sorted arrival is the classic adversarial order for doubling
        algorithms."""
        pts = np.sort(rng.uniform(0, 100, size=(400,))).reshape(-1, 1)
        st = InsertionOnlyCoreset(2, 4, 1.0, d=1)
        st.extend(pts)
        P = WeightedPointSet.from_points(pts)
        assert verify_sandwich(P, st.coreset(), 2, 4, 1.0).ok
        assert st.size <= st.threshold

    def test_outliers_first(self, rng):
        """All outliers before any cluster point."""
        outliers = rng.uniform(1000, 2000, size=(5, 1))
        clusters = np.concatenate([
            rng.normal(0, 0.1, (100, 1)), rng.normal(50, 0.1, (100, 1)),
        ])
        pts = np.concatenate([outliers, clusters])
        st = InsertionOnlyCoreset(2, 5, 1.0, d=1)
        st.extend(pts)
        P = WeightedPointSet.from_points(pts)
        assert verify_sandwich(P, st.coreset(), 2, 5, 1.0).ok

    def test_interleaved_scales(self, rng):
        """Alternating near/far points stress the radius doubling."""
        near = rng.normal(0, 0.01, size=(200, 1))
        far = rng.normal(1000, 0.01, size=(200, 1))
        pts = np.empty((400, 1))
        pts[0::2] = near
        pts[1::2] = far
        st = InsertionOnlyCoreset(2, 2, 1.0, d=1)
        st.extend(pts)
        P = WeightedPointSet.from_points(pts)
        assert verify_sandwich(P, st.coreset(), 2, 2, 1.0).ok


class TestPrefixProperty:
    def test_coreset_valid_at_every_checkpoint(self, rng):
        """Theorem 18 holds for every prefix, not just the final state."""
        stream = drifting_stream(300, 2, 4, d=1, rng=rng)
        st = InsertionOnlyCoreset(2, 4, 1.0, d=1)
        for t, p in enumerate(stream, 1):
            st.insert(p)
            if t in (50, 150, 300):
                P = WeightedPointSet.from_points(stream[:t])
                assert verify_sandwich(P, st.coreset(), 2, 4, 1.0).ok, f"t={t}"


def _same_state(st, ref) -> bool:
    a, b = st.coreset(), ref.coreset()
    return (np.array_equal(a.points, b.points)
            and np.array_equal(a.weights, b.weights)
            and st.r == ref.r and st.doublings == ref.doublings
            and st.points_seen == ref.points_seen)


class TestReferenceParity:
    def test_fuzzed_streams_match_scalar_reference(self):
        """Every chunking of seeded fuzzed streams (d 1-4, three norms,
        duplicate-heavy, clustered and +-1e6 inputs, caps forcing many
        doublings) replays the scalar reference loop bit for bit, also
        with single inserts interleaved between extends."""
        rng = np.random.default_rng(20240611)
        doubled = 0
        for case in range(40):
            d = case % 4 + 1
            metric = ("euclidean", "chebyshev", "manhattan")[case % 3]
            n = int(rng.integers(200, 500))
            kind = case % 3
            if kind == 0:
                pts = rng.integers(0, 4, size=(n, d)).astype(float)
            elif kind == 1:
                pts = rng.uniform(-1e6, 1e6, size=(n, d))
            else:
                centres = rng.normal(size=(4, d)) * 40.0
                pts = (centres[rng.integers(0, 4, n)]
                       + rng.normal(size=(n, d)) * 0.5)
            k, z = int(rng.integers(1, 4)), int(rng.integers(0, 6))
            eps = float(rng.choice([0.25, 0.5, 1.0]))
            cap = int(rng.integers(k + z + 2, k + z + 24))
            ref = insertion_only_reference(pts, k, z, eps, d, metric=metric,
                                           size_cap=cap)
            doubled += ref.doublings > 0
            for sizes in ((1,), (7,), (256,), (n,), (1, 7)):
                st = InsertionOnlyCoreset(k, z, eps, d, metric=metric,
                                          size_cap=cap)
                i, t = 0, 0
                while i < n:
                    chunk = sizes[t % len(sizes)]
                    if chunk == 1:
                        st.insert(pts[i])
                    else:
                        st.extend(pts[i: i + chunk])
                    i, t = i + chunk, t + 1
                assert _same_state(st, ref), (case, sizes)
        assert doubled >= 30


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda: InsertionOnlyCoreset(1, 0, 0.5, 2, size_cap=4),
        lambda: CeccarelloStreamingCoreset(1, 0, 0.5, 2),
    ], ids=["insertion-only", "ceccarello"])
    def test_non_finite_rows_rejected_before_any_change(self, rng, bad,
                                                        make):
        st = make()
        st.extend(rng.normal(size=(40, 2)))
        before = (st.points_seen, st.r, st.doublings, st.coreset())
        batch = rng.normal(size=(6, 2))
        batch[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            st.extend(batch)
        with pytest.raises(ValueError, match="finite"):
            st.insert(batch[3])
        cs = st.coreset()
        assert (st.points_seen, st.r, st.doublings) == before[:3]
        assert np.array_equal(cs.points, before[3].points)
        assert np.array_equal(cs.weights, before[3].weights)

    def test_non_2d_input_rejected(self):
        st = InsertionOnlyCoreset(1, 0, 0.5, 2)
        with pytest.raises(ValueError, match="2-D"):
            st.extend(np.zeros((2, 2, 2)))
        assert st.points_seen == 0


def _clustered_stream(n, k, z, seed):
    """Shuffled points in k balls of radius 3 plus z far outliers, snapped
    to a 2^-6 lattice (the shape of the repository benchmark's input)."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-100.0, 100.0, size=(k, 2))
    dirs = rng.normal(size=(n - z, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 3.0 * np.sqrt(rng.random(size=(n - z, 1)))
    pts = centres[np.arange(n - z) % k] + dirs * radii
    far = rng.normal(size=(z, 2))
    far *= rng.uniform(1000.0, 2000.0, size=(z, 1)) / np.linalg.norm(
        far, axis=1, keepdims=True)
    allp = np.round(np.concatenate([pts, far]) * 64.0) / 64.0
    return allp[rng.permutation(n)]


class TestDistanceWork:
    def test_pairs_per_arrival_stay_grid_sized(self, monkeypatch):
        """A silent fall-back to all-pairs scans fails here, without any
        timing: every distance the arrival path and its recompressions
        evaluate is counted at the kernels' import sites."""
        pairs = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                pairs[0] += out.size
                return out
            return wrapper

        monkeypatch.setattr(repro.core.metrics, "pairwise_kernel",
                            counted(repro.core.metrics.pairwise_kernel))
        for mod in (repro.core.greedy, repro.core.mbc,
                    repro.streaming.insertion_only):
            monkeypatch.setattr(mod, "pair_distances",
                                counted(mod.pair_distances))
        n = 65_536
        pts = _clustered_stream(n, 8, 64, seed=3)
        st = InsertionOnlyCoreset(8, 64, 0.5, 2)
        for i in range(0, n, 1024):
            st.extend(pts[i: i + 1024])
        assert st.doublings > 0 and st.points_seen == n
        # all-pairs scans cost ~5,000 pairs per arrival on this input
        assert pairs[0] / n <= 64
