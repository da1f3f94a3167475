"""Algorithm 3 — the space-optimal insertion-only streaming coreset (§4.3).

Maintains a radius estimate ``r <= opt_{k,z}(P(t))`` and a weighted
representative set ``P*``:

* a new point within ``(eps/2) r`` of a representative is absorbed into
  its weight;
* otherwise it becomes a representative itself;
* while ``r == 0``, once ``|P*| = k + z + 1`` the estimate is initialized
  to half the minimum pairwise distance (two representatives must share an
  optimal ball);
* whenever ``|P*|`` reaches ``k (16/eps)^d + z``, the radius is *doubled*
  and ``UpdateCoreset`` (Algorithm 4) re-absorbs at ``(eps/2) r`` —
  doubling (rather than a gentler growth) is what keeps the accumulated
  assignment error telescoping to ``eps * r`` (Lemma 16).

Theorem 18: the structure is an ``(eps,k,z)``-coreset of the prefix at all
times and stores at most ``k (16/eps)^d + z`` points, matching the
Omega(k/eps^d + z) lower bound of §4.1-4.2.

Implementation notes
--------------------
Each arrival needs one answer: the nearest representative, if one lies
within the absorb cutoff ``(eps/2) r`` (plus a ``1e-12`` relative
tolerance).  For the built-in norms in at most four dimensions the
answer comes from a grid index over ``P*`` whose cell side is just above
the cutoff, so the ``3^d`` cells around an arrival hold every
representative within the cutoff (the soundness argument of
:class:`~repro.geometry.PointGrid`).  The index lives as long as the
radius: the first chunk after ``r`` initialization, a doubling or
:meth:`~InsertionOnlyCoreset.restore` rebuilds it, as does a chunk
whose coordinates outgrow the magnitude its cell side was sized for;
new representatives are merged into it as they appear.  Other metrics
and higher dimensions take all pairs as candidates.

Arrivals are processed in chunks, one code path for :meth:`extend` and
:meth:`insert` alike.  Per chunk, the candidate pairs (row, old
representative) come from the index and the pairs (row, earlier row of
the chunk) from bucketing the chunk in the same cell frame; their exact
float64 distances come from one :func:`~repro.kernels.pair_distances`
call each (bit-identical to ``cdist``).  New representatives are
resolved in arrival order — only rows with an in-chunk conflict need a
sequential loop — and every absorbed row goes to its nearest
representative, lowest index on ties, in one ``bincount``.  A chunk ends
at the row that triggers ``r`` initialization or a doubling, the only
events that change the cutoff or rebuild ``P*``.  A one-row chunk (every
:meth:`~InsertionOnlyCoreset.insert`) skips the chunk bookkeeping and
scans all of ``P*`` with one distance row; it keeps a current index
current but never builds one.  Outputs are bit-identical to the scalar
per-arrival loop
(:class:`repro.core._greedy_reference.InsertionOnlyReference`; proven by
the parity tests).

Representatives live in a pre-allocated, doubling NumPy buffer.  The
paper threshold is astronomical for small ``eps`` and moderate ``d``, so
``size_cap`` lets applications bound the structure (at the documented
cost of the worst-case guarantee — the cap is exercised by the
failure-injection tests).
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..core.mbc import _GRID_MAX_DIM, update_coreset
from ..core.metrics import _KernelMetric, get_metric
from ..core.points import WeightedPointSet
from ..core.radius import min_pairwise_distance
from ..kernels import auto_chunk, pair_distances

__all__ = ["paper_size_threshold", "InsertionOnlyCoreset"]

#: rows per chunk: bounds the candidate arrays and the work thrown away
#: when an ``r`` event ends a chunk early
_CHUNK_ROWS = 1024

#: odd 64-bit multipliers hashing a cell's integer axis indices to one
#: int64 code under wrapping arithmetic.  The hash is linear, so a
#: neighbor cell's code is the cell's code plus a fixed offset code.  Two
#: cells that share a code only add candidates the exact re-check rejects.
_CELL_HASH = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
     0x165667B19E3779F9, 0xD6E8FEB86659FD93], dtype=np.uint64,
).view(np.int64)

#: a key larger than every representative index (see :func:`_nearest`)
_NO_KEY = np.iinfo(np.int64).max


def paper_size_threshold(k: int, z: int, eps: float, d: int) -> int:
    """Algorithm 3's re-clustering threshold ``k * ceil(16/eps)^d + z``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return int(k * ceil(16.0 / eps) ** d + z)


def _lookup(sorted_codes: np.ndarray, members: np.ndarray, codes: np.ndarray,
            deltas: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(row, member)`` pairs: every ``members[t]`` whose
    ``sorted_codes[t]`` equals ``codes[row] + delta`` for some ``delta``.
    Rows come out in ascending order."""
    targets = (codes[:, None] + deltas[None, :]).ravel()
    # binary searches over sorted keys reuse their previous position, which
    # makes sorting the keys first several times cheaper overall
    perm = np.argsort(targets)
    keys = targets[perm]
    lo = np.empty_like(targets)
    cnt = np.empty_like(targets)
    lo[perm] = sorted_codes.searchsorted(keys, "left")
    cnt[perm] = sorted_codes.searchsorted(keys, "right")
    cnt -= lo
    hit = np.flatnonzero(cnt)
    if hit.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    cnt = cnt[hit]
    ends = np.cumsum(cnt)
    flat = np.repeat(lo[hit] - (ends - cnt), cnt) + np.arange(int(ends[-1]))
    return np.repeat(hit // len(deltas), cnt), members[flat]


def _group_starts(rows: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in sorted ``rows``."""
    change = np.empty(rows.size, dtype=bool)
    change[0] = True
    np.not_equal(rows[1:], rows[:-1], out=change[1:])
    return np.flatnonzero(change)


def _nearest(rows: np.ndarray, keys: np.ndarray, dist: np.ndarray,
             m: int) -> "tuple[np.ndarray, np.ndarray]":
    """Per row of ``0..m-1``: the smallest ``dist`` of its pairs and, among
    the pairs at that distance, the smallest ``key``; ``(inf, -1)`` for a
    row without pairs.  ``rows`` must be sorted."""
    best_d = np.full(m, np.inf)
    best_k = np.full(m, -1, dtype=np.int64)
    if rows.size:
        starts = _group_starts(rows)
        dmin = np.minimum.reduceat(dist, starts)
        lens = np.diff(starts, append=rows.size)
        tied = np.where(dist == dmin.repeat(lens), keys, _NO_KEY)
        best_d[rows[starts]] = dmin
        best_k[rows[starts]] = np.minimum.reduceat(tied, starts)
    return best_d, best_k


class _RepGrid:
    """Hashed cell index over the representatives, for one cutoff.

    Cells have side ``side >= cutoff * (1 + 1e-6)``, so two points within
    the cutoff lie in cells at most one apart per axis as long as their
    quantized indices stay below ``2^30`` (:class:`PointGrid`'s rounding
    argument).  ``limit`` is the coordinate magnitude up to which that
    holds with a factor-2 margin; the owner rebuilds the index for larger
    arrivals.  ``keys`` holds the cell codes sorted, ``ids`` the
    representative of each, and new representatives are merged in place.

    :class:`~repro.geometry.PointGrid` cannot serve here: its cell codes
    are a radix over the fixed extents of the points it was built on, so
    it cannot take representatives that arrive later, and rebuilding it
    per arrival or per chunk would cost more than the scan it replaces.
    Hashing the unbounded axis indices lets the index grow in place.
    """

    def __init__(self, cutoff: float, side: float, dim: int):
        self.cutoff = cutoff
        self.side = side
        self.limit = side * 2.0**29
        self._mult = _CELL_HASH[:dim]
        axes = np.meshgrid(*([np.arange(-1, 2)] * dim), indexing="ij")
        offsets = np.stack(axes, axis=-1).reshape(-1, dim)
        self.deltas = (offsets * self._mult).sum(axis=1)
        self.keys = np.zeros(0, dtype=np.int64)
        self.ids = np.zeros(0, dtype=np.int64)

    @classmethod
    def build(cls, reps: np.ndarray, cutoff: float,
              maxabs: float) -> "_RepGrid | None":
        """Index ``reps`` for ``cutoff``; ``maxabs`` bounds the coordinates
        of the rows about to be queried.  ``None`` when no finite side
        exists."""
        side = max(cutoff * (1.0 + 1e-6), maxabs * 2.0**-28)
        if not 0.0 < side < np.inf:
            return None
        grid = cls(cutoff, side, reps.shape[1])
        if len(reps):
            grid.add(grid.codes(reps), np.arange(len(reps)))
        return grid

    def codes(self, pts: np.ndarray) -> np.ndarray:
        """Cell code of each row of ``pts``."""
        cells = np.floor(pts / self.side).astype(np.int64)
        return (cells * self._mult).sum(axis=1)

    def add(self, codes: np.ndarray, ids: np.ndarray) -> None:
        """Merge representatives ``ids`` with cell ``codes`` into the index."""
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        pos = np.searchsorted(self.keys, codes, "right")
        self.keys = np.insert(self.keys, pos, codes)
        self.ids = np.insert(self.ids, pos, ids[order])


class InsertionOnlyCoreset:
    """Streaming ``(eps,k,z)``-coreset for insertion-only streams.

    Parameters
    ----------
    k, z, eps:
        Problem parameters (``0 < eps <= 1``).
    d:
        Doubling dimension used in the size threshold (for point sets in
        ``R^dim`` under the built-in norms, ``d = dim``).
    metric:
        Metric instance or name; Euclidean by default.
    size_cap:
        Override for the re-clustering threshold.  ``None`` uses the
        paper's ``k (16/eps)^d + z``.  Values below ``k + z + 2`` are
        rejected (the structure could not even initialize ``r``).

    Attributes
    ----------
    r:
        Current radius estimate (always ``<= opt_{k,z}`` of the prefix
        when running with the paper threshold).
    doublings:
        Number of radius doublings performed (diagnostics).
    """

    def __init__(
        self,
        k: int,
        z: int,
        eps: float,
        d: int,
        metric=None,
        size_cap: "int | None" = None,
    ):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if k < 1 or z < 0 or d < 1:
            raise ValueError("need k >= 1, z >= 0, d >= 1")
        self.k, self.z, self.eps, self.d = int(k), int(z), float(eps), int(d)
        self.metric = get_metric(metric)
        self.threshold = (
            paper_size_threshold(k, z, eps, d) if size_cap is None else int(size_cap)
        )
        if self.threshold < k + z + 2:
            raise ValueError("size_cap must be at least k + z + 2")
        self.r = 0.0
        self.doublings = 0
        self._n = 0
        self._dim: "int | None" = None
        self._buf = np.zeros((0, 0))
        self._w = np.zeros(0, dtype=np.int64)
        self._size = 0
        #: the grid index over P* (derived state, never persisted), and
        #: whether the metric and dimension admit one
        self._grid: "_RepGrid | None" = None
        self._grid_ok = False

    # -- buffer plumbing ---------------------------------------------------

    def _reserve(self, rows: int) -> None:
        """Grow the buffers to hold at least ``rows`` rows."""
        if rows > len(self._buf):
            cap = max(16, 1 << (rows - 1).bit_length())
            buf = np.zeros((cap, self._dim))
            buf[: self._size] = self._buf[: self._size]
            w = np.zeros(cap, dtype=np.int64)
            w[: self._size] = self._w[: self._size]
            self._buf, self._w = buf, w

    def _set_reps(self, wps: WeightedPointSet) -> None:
        n = len(wps)
        cap = max(16, 1 << int(np.ceil(np.log2(max(n, 1)))))
        self._buf = np.zeros((cap, self._dim))
        self._buf[:n] = wps.points
        self._w = np.zeros(cap, dtype=np.int64)
        self._w[:n] = wps.weights
        self._size = n
        self._grid = None
        self._grid_ok = (isinstance(self.metric, _KernelMetric)
                         and self._dim <= _GRID_MAX_DIM)

    # -- public interface ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of stored representatives ``|P*|``."""
        return self._size

    @property
    def points_seen(self) -> int:
        """Stream length so far."""
        return self._n

    def coreset(self) -> WeightedPointSet:
        """The current ``(eps,k,z)``-coreset ``P*`` (Theorem 18)."""
        if self._size == 0:
            return WeightedPointSet.empty(self._dim or 1)
        return WeightedPointSet(
            self._buf[: self._size].copy(), self._w[: self._size].copy()
        )

    def snapshot(self) -> dict:
        """The full mutable state: representatives, weights, radius ladder.

        Buffer capacity (a power-of-two growth artifact) and the grid
        index are not state: only ``P*[:size]`` and ``r`` ever affect
        outputs, so restore may repack the buffer and rebuilds the index.
        """
        return {
            "n": int(self._n),
            "r": float(self.r),
            "doublings": int(self.doublings),
            "threshold": int(self.threshold),
            "dim": int(self._dim) if self._dim is not None else None,
            "points": self._buf[: self._size].copy(),
            "weights": self._w[: self._size].copy(),
        }

    def restore(self, state: dict) -> None:
        """Apply a :meth:`snapshot`; continuing the stream afterwards is
        bit-identical to never having snapshotted (parity-tested).

        Snapshots written by 3.0.0 also carry a ``batch_dense`` flag of
        the removed adaptive scalar path; it is ignored.
        """
        from ..persist import SnapshotError

        if int(state["threshold"]) != self.threshold:
            raise SnapshotError(
                f"snapshot threshold {state['threshold']} != structure "
                f"threshold {self.threshold} (size_cap/eps mismatch)"
            )
        dim = state["dim"]
        pts = np.asarray(state["points"], dtype=float)
        w = np.asarray(state["weights"], dtype=np.int64)
        if len(pts) != len(w):
            raise SnapshotError("representative/weight length mismatch")
        self.r = float(state["r"])
        self.doublings = int(state["doublings"])
        self._n = int(state["n"])
        if dim is None:
            self._dim = None
            self._buf = np.zeros((0, 0))
            self._w = np.zeros(0, dtype=np.int64)
            self._size = 0
            self._grid, self._grid_ok = None, False
            return
        self._dim = int(dim)
        self._set_reps(WeightedPointSet(pts.reshape(len(pts), self._dim), w))

    def insert(self, point) -> None:
        """HandleArrival(p_t) of Algorithm 3: :meth:`extend` on one row."""
        self.extend(np.asarray(point, dtype=float).reshape(1, -1))

    def extend(self, points) -> None:
        """Insert a batch of points in order.

        Identical to calling :meth:`insert` per row (same representatives,
        weights and radius estimate, bit for bit): :meth:`insert` is this
        method on one row, and both run the chunked grid path described
        in the module docstring.  Input that is not a 2-D array of finite
        coordinates as wide as the stream is rejected with ``ValueError``
        before any state changes.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
        if len(pts) == 0:
            return
        if pts.shape[1] == 0:
            raise ValueError("points need at least one coordinate")
        if self._dim is not None and pts.shape[1] != self._dim:
            raise ValueError(f"point dim {pts.shape[1]} != stream dim {self._dim}")
        # the largest magnitude doubles as the finiteness check (NaN
        # propagates through max) and as the grid index's range check
        maxabs = float(np.abs(pts).max())
        if not maxabs < np.inf:
            raise ValueError("points must be finite (no NaN or inf)")
        if self._dim is None:
            self._dim = pts.shape[1]
            self._set_reps(WeightedPointSet.empty(self._dim))
        i = 0
        while i < len(pts):
            rows = (_CHUNK_ROWS if self._grid_ok
                    else min(_CHUNK_ROWS, auto_chunk(self._size)))
            i += self._arrive(pts[i: i + rows], maxabs)

    # -- the arrival path ------------------------------------------------------

    def _grid_for(self, cutoff: float, maxabs: float,
                  build: bool = True) -> "_RepGrid | None":
        """The index for ``cutoff`` that can answer rows of magnitude up to
        ``maxabs``.  An index missing or made stale by a new cutoff or by
        rows that outgrew its cells is (re)built, or with ``build=False``
        dropped, leaving the next chunk to build it."""
        if not self._grid_ok:
            return None
        grid = self._grid
        if grid is None or grid.cutoff != cutoff or maxabs >= grid.limit:
            self._grid = None
            if not build:
                return None
            reps = self._buf[: self._size]
            if len(reps):
                maxabs = max(maxabs, float(np.abs(reps).max()))
            grid = self._grid = _RepGrid.build(reps, cutoff, maxabs)
        return grid

    def _distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return pair_distances(self.metric.name, self._buf, rows, cols)

    def _arrive(self, X: np.ndarray, maxabs: float) -> int:
        """HandleArrival for the rows of ``X`` (magnitudes at most
        ``maxabs``) in order, up to and including the first row whose new
        representative triggers an ``r`` event.  Returns the number of
        rows consumed."""
        m, size0 = len(X), self._size
        absorb = self.eps / 2.0 * self.r
        cutoff = absorb + 1e-12 * max(1.0, absorb)
        # a single arrival scans P* and does not need the index
        grid = self._grid_for(cutoff, maxabs, build=m > 1)
        if m == 1:
            return self._arrive_one(X, cutoff, grid)
        # the chunk sits in the buffer past P* so that one pair_distances
        # call can address representatives and rows alike
        self._reserve(size0 + m)
        self._buf[size0: size0 + m] = X

        # nearest old representative per row: the index's ring-1 cells
        # hold every representative within the cutoff
        codes = None if grid is None else grid.codes(X)
        if grid is not None:
            rows, reps = _lookup(grid.keys, grid.ids, codes, grid.deltas)
            near_d, near_j = _nearest(
                rows, reps, self._distances(rows + size0, reps), m)
        elif size0:
            D = self.metric.pairwise(X, self._buf[:size0])
            near_j = np.argmin(D, axis=1)
            near_d = D[np.arange(m), near_j]
        else:
            near_d = np.full(m, np.inf)
            near_j = np.full(m, -1, dtype=np.int64)

        # rows no old representative absorbs, and which of them open a
        # representative: a fresh row does unless an earlier fresh row
        # that did lies within the cutoff
        fresh = np.flatnonzero(~(near_d <= cutoff))
        is_rep = np.zeros(m, dtype=bool)
        target, stop, event = near_j, m, False
        if fresh.size:
            ci, cj, cd = self._chunk_pairs(X, fresh, cutoff, grid, codes)
            is_rep[fresh] = True
            conflict = is_rep[ci]
            ki, kj = ci[conflict], cj[conflict]
            if ki.size:
                # only rows with an in-chunk conflict need the order loop
                starts = _group_starts(ki)
                bounds = starts.tolist() + [ki.size]
                rep = is_rep.tolist()
                kj = kj.tolist()
                for t, i in enumerate(ki[starts].tolist()):
                    rep[i] = not any(rep[j] for j in kj[bounds[t]: bounds[t + 1]])
                is_rep = np.asarray(rep)
            new = np.flatnonzero(is_rep)
            trigger = self.k + self.z + 1 if self.r == 0.0 else self.threshold
            q = max(trigger - size0 - 1, 0)
            if q < new.size:
                stop, event = int(new[q]) + 1, True
                is_rep[stop:] = False
            # an absorbed row joins an earlier new representative only if
            # it is strictly nearer than the old one (ties go to the lower
            # index, and old representatives come first)
            keep = is_rep[cj] & ~is_rep[ci]
            if keep.any():
                new_d, new_row = _nearest(ci[keep], cj[keep], cd[keep], m)
                rank = np.cumsum(is_rep) - 1 + size0
                target = np.where(new_d < near_d, rank[new_row], near_j)
        new = np.flatnonzero(is_rep)
        size = size0 + new.size
        self._buf[size0:size] = X[new]
        self._w[size0:size] = 1
        absorbed = target[:stop][~is_rep[:stop]]
        if absorbed.size:
            self._w[:size] += np.bincount(absorbed, minlength=size)
        self._size = size
        self._n += stop
        if grid is not None and new.size:
            grid.add(codes[new], np.arange(size0, size))
        if event:
            self._radius_event()
        return stop

    def _arrive_one(self, X: np.ndarray, cutoff: float,
                    grid: "_RepGrid | None") -> int:
        """The one-row case of :meth:`_arrive`: the same rule and events
        without the chunk bookkeeping, whose fixed cost would dominate a
        per-point :meth:`insert` loop.  It scans all of ``P*`` with one
        distance row and merges a new representative into ``grid``, the
        index if one is current."""
        size = self._size
        if size:
            dists = self.metric.pairwise(X, self._buf[:size])[0]
            j = int(dists.argmin())
            if dists[j] <= cutoff:
                self._w[j] += 1
                self._n += 1
                return 1
        self._reserve(size + 1)
        self._buf[size] = X[0]
        self._w[size] = 1
        self._size = size + 1
        self._n += 1
        if grid is not None:
            grid.add(grid.codes(X), np.array([size]))
        self._radius_event()
        return 1

    def _chunk_pairs(self, X: np.ndarray, fresh: np.ndarray, cutoff: float,
                     grid: "_RepGrid | None", codes: "np.ndarray | None"):
        """``(row, fresh row, distance)`` for every row of ``X`` and every
        earlier fresh row within ``cutoff``; rows ascending.  ``codes``
        are the rows' cells in ``grid``."""
        lo = int(fresh[0]) + 1
        size0 = self._size
        if grid is not None:
            order = np.argsort(codes[fresh], kind="stable")
            rows, cols = _lookup(codes[fresh][order], fresh[order],
                                 codes[lo:], grid.deltas)
            rows += lo
            earlier = cols < rows
            rows, cols = rows[earlier], cols[earlier]
            dist = self._distances(rows + size0, cols + size0)
        else:
            D = self.metric.pairwise(X[lo:], X[fresh])
            D[fresh[None, :] >= np.arange(lo, len(X))[:, None]] = np.inf
            rows, jj = np.nonzero(D <= cutoff)
            dist = D[rows, jj]
            rows, cols = rows + lo, fresh[jj]
        within = dist <= cutoff
        return rows[within], cols[within], dist[within]

    def _radius_event(self) -> None:
        """Algorithm 3 lines 5-11 after a new representative: initialize
        ``r``, or double it and recompress ``P*`` while it is too large."""
        if self.r == 0.0 and self._size >= self.k + self.z + 1:
            delta_min = min_pairwise_distance(self._buf[: self._size], self.metric)
            if delta_min > 0:
                self.r = delta_min / 2.0
        while self.r > 0.0 and self._size >= self.threshold:
            self.r *= 2.0
            self.doublings += 1
            mbc = update_coreset(self.coreset(), self.eps / 2.0 * self.r, self.metric)
            self._set_reps(mbc.coreset)
