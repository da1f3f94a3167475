"""Mini-ball coverings (Definition 2, Algorithm 1, Lemmas 3-7).

A *mini-ball covering* (MBC) of a weighted point set ``P`` is a weighted
subset ``P*`` together with a partition of ``P`` into groups, one per
``q in P*``, such that every group lies in a ball of radius
``eps * opt_{k,z}(P)`` around its representative and carries the group's
total weight.  Lemma 3 shows an MBC is an ``(eps,k,z)``-coreset; Lemma 4
shows MBCs of a partition union to an MBC of the whole; Lemma 5 shows MBCs
compose transitively with error ``eps + gamma + eps*gamma``.

:func:`mbc_construction` is Algorithm 1 (``MBCConstruction``): call
``Greedy(P,k,z)`` for a radius ``r in [opt, 3 opt]``, then greedily absorb
everything within ``eps * r / 3`` of an arbitrary remaining point.  Lemma 7
bounds the output size by ``k * (12/eps)^d + z``.

:func:`update_coreset` is Algorithm 4 (``UpdateCoreset``): the same greedy
absorption at an explicitly given distance ``delta`` (used by the streaming
algorithm when it doubles its radius estimate).

Performance: the absorption loop does not scan all ``n`` points per
representative.  For the built-in norms it buckets the input into a
:class:`repro.geometry.PointGrid` with cell side just above ``delta``
(the same sorted-int64-code index the grid-pruned greedy decision
procedure uses); any point within ``delta`` under L2/L1/Linf is within
``delta`` per coordinate, so the ``3^d`` cells around a point hold all
its candidates.  Points are taken in blocks along the absorption order.
One vectorized pass per block computes every block point's neighbor
list within ``delta`` (one ``neighbors_of_cells``, ``points_in_cells``
and :func:`~repro.kernels.pair_distances` call), and the order loop
then walks those lists.  Block sizes adapt to the pair work the
previous block put to use, which bounds memory at any ``n`` and keeps
dense inputs from paying for the lists of points an earlier
representative absorbs.  Results are bit-identical to the scalar loop
(:func:`repro.core._greedy_reference.greedy_absorb_reference`; proven by
the parity tests).  When the embedded radius search ran its grid-pruned
path, the absorption reuses the search's persistent
:class:`~repro.geometry.PointGridHierarchy` (via
:attr:`~repro.core.greedy.GreedyResult.geometry`) and snaps its
absorption radius to an existing ladder level instead of re-bucketing
the same points.  Arbitrary metrics, high dimensions and degenerate
cell sides fall back to scanning only the still-unabsorbed points, which
shrinks as the balls absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..geometry.grid import PointGrid
from ..kernels import pair_distances
from .greedy import charikar_greedy
from .metrics import Metric, _KernelMetric, get_metric
from .points import WeightedPointSet

__all__ = [
    "MiniBallCovering",
    "mbc_construction",
    "update_coreset",
    "compose_errors",
    "mbc_size_bound",
]


@dataclass(frozen=True)
class MiniBallCovering:
    """An ``(eps,k,z)``-mini-ball covering.

    Attributes
    ----------
    coreset:
        The weighted representative set ``P*`` (a subset of the input
        coordinates, re-weighted).
    assignment:
        For each input point, the index into ``coreset`` of its
        representative (``assignment[i] == j`` means input point ``i`` lies
        in the mini-ball of ``coreset`` row ``j``).
    mini_ball_radius:
        The absolute absorption radius used (``eps * r / 3`` in
        Algorithm 1, ``delta`` in Algorithm 4).  Every input point is
        within this distance of its representative.
    greedy_radius:
        The radius ``r`` returned by ``Greedy`` (``nan`` when the covering
        was built by :func:`update_coreset`, which takes ``delta``
        directly).
    eps:
        The error parameter the covering was built for.
    """

    coreset: WeightedPointSet
    assignment: np.ndarray
    mini_ball_radius: float
    greedy_radius: float
    eps: float

    @property
    def size(self) -> int:
        """Number of representatives ``|P*|``."""
        return len(self.coreset)


#: 3^d neighbor cells per representative; beyond this the enumeration
#: overtakes the saved distance work
_GRID_MAX_DIM = 4
#: below this the grid's setup cost exceeds the whole scalar loop
_GRID_MIN_POINTS = 192
#: points scanned per block of the grid absorption (bounds and start of
#: the adaptive span)
_ABSORB_BLOCK = 65_536
_ABSORB_SPAN_MIN = 1024
#: candidate pairs per block (bounds and start of the adaptive budget);
#: the cap bounds a block's memory (~64 bytes a pair).  Fixed blocks do
#: not work: 65,536 uniform points in [0, 1]^2 at delta = 0.1 have 5e8
#: candidate pairs, and a fixed 2^20-pair budget made dense inputs about
#: 2x slower than the adaptive one (docs/performance.md)
_ABSORB_PAIRS_MIN = 1 << 14
_ABSORB_PAIRS_MAX = 1 << 20


def _greedy_absorb(
    wps: WeightedPointSet,
    delta: float,
    metric: Metric,
    order: "np.ndarray | None" = None,
    hierarchy=None,
) -> "tuple[WeightedPointSet, np.ndarray]":
    """Greedy absorption: repeatedly take the first remaining point and
    absorb every remaining point within ``delta`` of it.

    ``order`` optionally permutes the 'arbitrary point' choice (Algorithm 1
    line 4 allows any order; tests use this to check order-independence of
    the guarantees).  Returns the representative set and the assignment.

    ``hierarchy`` optionally passes the
    :class:`~repro.geometry.PointGridHierarchy` an embedded radius search
    already built over *the same points* (identity-checked): the
    absorption then snaps ``delta`` to one of its levels — deriving a new
    level at cell cost if needed — instead of re-bucketing every point.

    Bit-identical to the pre-refactor scalar loop; only the candidate set
    each representative's distances are evaluated against shrinks — to the
    nearby grid cells when the metric/dimension admit the grid, or to the
    still-unabsorbed points otherwise.
    """
    n = len(wps)
    if n == 0:
        return wps, np.zeros(0, dtype=np.int64)
    pts = wps.points
    order = np.arange(n) if order is None else np.asarray(order)
    assignment = np.full(n, -1, dtype=np.int64)
    rep_rows: list[int] = []
    tol = 1e-9 * max(1.0, delta)
    cutoff = delta + tol

    grid = None
    # only the built-in norm metrics operate on actual coordinates with
    # dist <= delta implying per-coordinate distance <= delta (L2 and L1
    # dominate Linf), making the 3^d neighborhood a sound candidate
    # superset; an isinstance gate (not metric.name, which Callable/
    # PrecomputedMetric document as cosmetic) keeps e.g. a
    # PrecomputedMetric(name="euclidean") off the grid — its "points" are
    # element ids, meaningless to bucket
    if (
        n >= _GRID_MIN_POINTS
        and pts.shape[1] <= _GRID_MAX_DIM
        and isinstance(metric, _KernelMetric)
    ):
        if (
            hierarchy is not None
            and hierarchy.pts is pts
            and cutoff > 0
            and np.isfinite(cutoff)
        ):
            # the radius search already indexed these exact points: snap
            # delta to its ladder (grid.ring below derives the ring the
            # cutoff needs at that level's side, so the superset stays
            # sound at any snapped side)
            grid = hierarchy.grid_for(cutoff)
        if grid is None:
            # side slightly above the cutoff: the 1e-6 slack strictly
            # dominates the float rounding of pts/side under the
            # |cell index| < 2^30 guard, so two points within `cutoff`
            # always land in adjacent cells (ring 1); the
            # max(|coord|)-based floor keeps the guard satisfiable for
            # tiny cutoffs (larger cells are always sound)
            maxabs = float(np.max(np.abs(pts))) if pts.size else 0.0
            side = max(cutoff * (1.0 + 1e-6), maxabs * 2.0**-29)
            grid = PointGrid.build(pts, side, max_ring=1)

    if grid is not None:
        remaining = np.ones(n, dtype=bool)
        ring = grid.ring(cutoff)
        start, span, budget = 0, _ABSORB_SPAN_MIN, _ABSORB_PAIRS_MIN
        while start < n:
            # the next block of still-unabsorbed points in `order`, cut
            # where its candidate pairs would exceed the pair budget
            window = order[start: start + span]
            live = np.flatnonzero(remaining[window])
            if live.size == 0:
                start += len(window)
                span = min(2 * span, _ABSORB_BLOCK)
                continue
            block = window[live]
            src, nbr = grid.neighbors_of_cells(grid.point_cell[block], ring)
            counts = grid.cell_counts[nbr]
            per_point = np.bincount(src, weights=counts, minlength=len(block))
            take = max(1, int(np.searchsorted(np.cumsum(per_point), budget,
                                              "right")))
            consumed = len(window)
            if take < len(block):
                cut = src < take
                src, nbr, counts = src[cut], nbr[cut], counts[cut]
                block = block[:take]
                consumed = int(live[take - 1]) + 1
            start += consumed
            # every block point's neighbors within the cutoff, as CSR
            # slices over the block (src ascends, so owners do too); each
            # point is its own neighbor
            cand = grid.points_in_cells(nbr)
            owner = np.repeat(src, counts)
            d = pair_distances(metric.name, pts, block[owner], cand)
            within = d <= cutoff
            cand = cand[within]
            bounds = np.searchsorted(owner[within],
                                     np.arange(len(block) + 1)).tolist()
            reps = []
            for t, idx in enumerate(block.tolist()):
                if not remaining[idx]:
                    continue
                nb = cand[bounds[t]: bounds[t + 1]]
                sel = nb[remaining[nb]]
                assignment[sel] = len(rep_rows)
                remaining[sel] = False
                rep_rows.append(idx)
                reps.append(t)
            # size the next block by the pairs this one put to use: a
            # block's non-representatives are wasted pair work, and they
            # dominate on dense inputs
            useful = float(per_point[reps].sum())
            budget = int(min(max(2.0 * useful, _ABSORB_PAIRS_MIN),
                             _ABSORB_PAIRS_MAX))
            span = min(max(2 * consumed, _ABSORB_SPAN_MIN), _ABSORB_BLOCK)
    else:
        remaining = np.ones(n, dtype=bool)
        rem = np.arange(n)
        for idx in order:
            if not remaining[idx]:
                continue
            d = metric.to_set(pts[idx], pts[rem])
            absorbed = d <= cutoff
            sel = rem[absorbed]
            assignment[sel] = len(rep_rows)
            rep_rows.append(int(idx))
            remaining[sel] = False
            rem = rem[~absorbed]
    weights = np.zeros(len(rep_rows), dtype=np.int64)
    np.add.at(weights, assignment, wps.weights)
    return WeightedPointSet(pts[rep_rows], weights), assignment


def mbc_construction(
    wps: WeightedPointSet,
    k: int,
    z: int,
    eps: float,
    metric: "Metric | str | None" = None,
    radius: "float | None" = None,
    order: "np.ndarray | None" = None,
) -> MiniBallCovering:
    """Algorithm 1: ``MBCConstruction(P, k, z, eps)``.

    Parameters
    ----------
    radius:
        Optional externally supplied ``Greedy`` radius (the MPC algorithms
        reuse radii computed in an earlier round); when ``None``,
        ``Greedy(P,k,z)`` is invoked, and when that radius search ran its
        grid-pruned path, the absorption reuses its persistent grid
        ladder instead of re-bucketing the points.
    order:
        Optional permutation controlling which 'arbitrary point' is picked
        first (the guarantee holds for any order).

    Returns an ``(eps', k, z)``-mini-ball covering with
    ``eps' = eps * (r / (3 opt)) <= eps`` — i.e. at least as good as
    requested (Lemma 7).
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    metric = get_metric(metric)
    hierarchy = None
    if radius is None:
        res = charikar_greedy(wps, k, z, metric)
        radius = res.radius
        hierarchy = res.geometry
    delta = eps * radius / 3.0
    coreset, assignment = _greedy_absorb(
        wps, delta, metric, order, hierarchy=hierarchy
    )
    return MiniBallCovering(
        coreset=coreset,
        assignment=assignment,
        mini_ball_radius=delta,
        greedy_radius=float(radius),
        eps=float(eps),
    )


def update_coreset(
    wps: WeightedPointSet,
    delta: float,
    metric: "Metric | str | None" = None,
    order: "np.ndarray | None" = None,
) -> MiniBallCovering:
    """Algorithm 4: ``UpdateCoreset(Q, delta)``.

    Greedy absorption at absolute distance ``delta``; used by the streaming
    algorithm (Algorithm 3 line 10) after doubling its radius estimate.
    ``delta`` must be finite and non-negative (``0`` merges coincident
    points only); anything else raises ``ValueError``.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError(
            f"delta must be a finite non-negative distance, got {delta!r}")
    metric = get_metric(metric)
    coreset, assignment = _greedy_absorb(wps, delta, metric, order)
    return MiniBallCovering(
        coreset=coreset,
        assignment=assignment,
        mini_ball_radius=float(delta),
        greedy_radius=float("nan"),
        eps=float("nan"),
    )


def compose_errors(gamma: float, eps: float) -> float:
    """Lemma 5: composing a ``gamma``-MBC with an ``eps``-MBC of it yields
    an ``(eps + gamma + eps*gamma)``-MBC of the original set."""
    return eps + gamma + eps * gamma


def mbc_size_bound(k: int, z: int, eps: float, d: int) -> int:
    """Lemma 7's size bound ``k * ceil(12/eps)^d + z`` on Algorithm 1's
    output (doubling dimension ``d``)."""
    if eps <= 0:
        raise ValueError("size bound needs eps > 0")
    return int(k * ceil(12.0 / eps) ** d + z)
