"""Unit tests for repro.core.mbc (Definition 2, Algorithm 1, Lemmas 4-7)."""

import numpy as np
import pytest

from repro.core import (
    WeightedPointSet,
    charikar_greedy,
    compose_errors,
    mbc_construction,
    mbc_size_bound,
    update_coreset,
    verify_covering_property,
    verify_mbc,
    verify_weight_property,
)


class TestMBCConstruction:
    def test_weight_preserved(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        assert verify_weight_property(small_set, mbc.coreset).ok

    def test_covering_within_mini_ball_radius(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        assert verify_covering_property(small_set, mbc, mbc.mini_ball_radius).ok

    def test_size_bound_lemma7(self, small_set):
        eps = 0.5
        mbc = mbc_construction(small_set, 2, 4, eps)
        assert mbc.size <= mbc_size_bound(2, 4, eps, 2)

    def test_full_verification(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        chk = verify_mbc(small_set, mbc, 2, 4, 0.5)
        assert chk.ok, chk.details

    def test_coreset_subset_of_input(self, small_set):
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        input_rows = {tuple(p) for p in small_set.points}
        assert all(tuple(p) in input_rows for p in mbc.coreset.points)

    def test_eps_zero_keeps_distinct_points(self):
        P = WeightedPointSet.from_points(np.array([[0.0], [1.0], [1.0], [3.0]]))
        mbc = mbc_construction(P, 2, 0, 0.0)
        assert mbc.size == 3  # coincident points merge even at eps=0
        assert mbc.coreset.total_weight == 4

    def test_smaller_eps_bigger_coreset(self, small_set):
        big = mbc_construction(small_set, 2, 4, 1.0).size
        small = mbc_construction(small_set, 2, 4, 0.1).size
        assert small >= big

    def test_external_radius_honored(self, small_set):
        r = charikar_greedy(small_set, 2, 4).radius
        mbc = mbc_construction(small_set, 2, 4, 0.5, radius=r)
        assert mbc.greedy_radius == r
        assert mbc.mini_ball_radius == pytest.approx(0.5 * r / 3)

    def test_order_invariance_of_guarantees(self, rng, small_set):
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(small_set))
            mbc = mbc_construction(small_set, 2, 4, 0.5, order=order)
            assert verify_mbc(small_set, mbc, 2, 4, 0.5).ok
            assert mbc.size <= mbc_size_bound(2, 4, 0.5, 2)

    def test_negative_eps_rejected(self, small_set):
        with pytest.raises(ValueError):
            mbc_construction(small_set, 2, 4, -0.1)

    def test_empty_input(self):
        mbc = mbc_construction(WeightedPointSet.empty(2), 2, 1, 0.5)
        assert mbc.size == 0

    def test_assignment_partition(self, small_set):
        """Assignment defines a partition: every point assigned exactly one
        representative, and weights per group sum correctly (Def. 2(1))."""
        mbc = mbc_construction(small_set, 2, 4, 0.5)
        assert (mbc.assignment >= 0).all()
        for j in range(mbc.size):
            grp = small_set.weights[mbc.assignment == j].sum()
            assert grp == mbc.coreset.weights[j]


class TestUpdateCoreset:
    def test_absorbs_within_delta(self):
        P = WeightedPointSet.from_points(np.array([[0.0], [0.4], [2.0]]))
        mbc = update_coreset(P, 0.5)
        assert mbc.size == 2
        assert mbc.coreset.total_weight == 3

    def test_delta_zero_merges_coincident_only(self):
        P = WeightedPointSet.from_points(np.array([[0.0], [0.0], [1.0]]))
        assert update_coreset(P, 0.0).size == 2
        # zero is the smallest valid delta; below it nothing absorbs even
        # itself, so negative and non-finite deltas are rejected up front
        for bad in (-1e-9, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="delta"):
                update_coreset(P, bad)

    def test_representatives_separated(self, small_set):
        """Any two representatives are more than delta apart."""
        delta = 0.8
        mbc = update_coreset(small_set, delta)
        from scipy.spatial.distance import pdist
        if mbc.size > 1:
            assert pdist(mbc.coreset.points).min() > delta


class TestComposition:
    def test_compose_errors_formula(self):
        assert compose_errors(0.1, 0.2) == pytest.approx(0.1 + 0.2 + 0.02)

    def test_transitive_property_lemma5(self, small_set):
        """MBC of an MBC is an MBC with composed error (verified via the
        covering distances)."""
        k, z = 2, 4
        g, e = 0.4, 0.4
        m1 = mbc_construction(small_set, k, z, g)
        m2 = mbc_construction(m1.coreset, k, z, e)
        eps_tot = compose_errors(g, e)
        # direct check: each original point within eps_tot * opt_ub of some
        # final representative
        from repro.core import nearest_center_distances, opt_bounds
        _, hi = opt_bounds(small_set, k, z)
        d = nearest_center_distances(small_set, m2.coreset.points)
        assert d.max() <= eps_tot * hi + 1e-9
        assert m2.coreset.total_weight == small_set.total_weight

    def test_union_property_lemma4(self, small_planar):
        """Union of per-part MBCs (with valid budgets) is an MBC of the
        whole."""
        P = small_planar.point_set()
        k, z, eps = 2, 4, 0.4
        # split so part 0 gets all outliers
        out_idx = np.flatnonzero(small_planar.outlier_mask)
        in_idx = np.flatnonzero(~small_planar.outlier_mask)
        half = len(in_idx) // 2
        parts = [
            P.subset(np.concatenate([in_idx[:half], out_idx])),
            P.subset(in_idx[half:]),
        ]
        budgets = [4, 0]
        pieces = [mbc_construction(p, k, zi, eps) for p, zi in zip(parts, budgets)]
        union = WeightedPointSet.concat([m.coreset for m in pieces])
        assert union.total_weight == P.total_weight
        from repro.core import nearest_center_distances, opt_bounds
        _, hi = opt_bounds(P, k, z)
        d = nearest_center_distances(P, union.points)
        assert d.max() <= eps * hi + 1e-9


class TestSizeBound:
    @pytest.mark.parametrize("k,z,eps,d", [(1, 0, 1.0, 1), (2, 5, 0.5, 2), (3, 2, 0.25, 1)])
    def test_formula(self, k, z, eps, d):
        from math import ceil
        assert mbc_size_bound(k, z, eps, d) == k * ceil(12 / eps) ** d + z

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            mbc_size_bound(1, 0, 0.0, 1)
