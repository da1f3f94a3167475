"""The shared distance-computation layer.

Every algorithm in the library bottoms out in one operation: a block of
a distance matrix between two point arrays under one of the built-in
norms.  This module is the single implementation of that operation, so
the radius-search stack (:mod:`repro.core.greedy`), the absorption loops
(:mod:`repro.core.mbc`) and the :class:`~repro.core.metrics.Metric`
subclasses all share one exact float64 kernel: SciPy's ``cdist`` for
dense blocks (:func:`pairwise_kernel`) and its bit-identical sparse
companion for index pairs (:func:`pair_distances`).  Every parity test
pins these two.

Chunked consumers size their row blocks with :func:`auto_chunk` so a
block stays inside a fixed working-set budget.  A :class:`Workspace` is
an ephemeral per-call scratch holder: reusable output buffers keyed by
tag, so a binary search over radius guesses allocates its mask/gain
matrices once, not per guess.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "auto_chunk",
    "Workspace",
    "pairwise_kernel",
    "pair_distances",
]

#: Working-set budget (bytes) a chunked distance block should stay under.
#: 32 MiB keeps a block plus its boolean mask comfortably inside typical
#: L3 caches while amortizing per-call overhead.
DEFAULT_BLOCK_BYTES = 32 * 2**20

#: metric name -> scipy cdist metric
_CDIST_NAMES = {
    "euclidean": "euclidean",
    "chebyshev": "chebyshev",
    "manhattan": "cityblock",
}


def auto_chunk(n_cols: int, budget_bytes: "int | None" = None) -> int:
    """Rows per float64 distance block so ``rows x n_cols`` stays inside
    the working-set budget.

    Clamped to ``[64, 8192]`` so tiny inputs still batch and huge ones
    still amortize call overhead.
    """
    budget = DEFAULT_BLOCK_BYTES if budget_bytes is None else int(budget_bytes)
    per_row = max(1, int(n_cols) * 8)
    return int(np.clip(budget // per_row, 64, 8192))


class Workspace:
    """Per-call scratch: reusable buffers keyed by tag.

    Intended lifetime is one outer call (e.g. one ``charikar_greedy``);
    not thread-safe.
    """

    def __init__(self):
        self._buffers: "dict[tuple, np.ndarray]" = {}

    def buffer(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable C-contiguous buffer of at least ``shape`` elements,
        returned as a view of exactly ``shape``.  Contents are garbage."""
        dt = np.dtype(dtype)
        size = int(np.prod(shape))
        key = (tag, dt.str)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dt)
            self._buffers[key] = buf
        return buf[:size].reshape(shape)


def _check_kind(kind: str) -> None:
    if kind not in _CDIST_NAMES:
        raise ValueError(
            f"unknown kernel {kind!r}; known: {sorted(_CDIST_NAMES)}"
        )


def pairwise_kernel(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float64 distance matrix of shape ``(len(a), len(b))`` under metric
    ``kind`` (``"euclidean"``, ``"chebyshev"`` or ``"manhattan"``).

    This is SciPy's ``cdist`` — the exact reference every parity suite
    pins.
    """
    _check_kind(kind)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        return np.zeros((len(a), len(b)))
    return cdist(a, b, metric=_CDIST_NAMES[kind])


def pair_distances(
    kind: str,
    pts: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Element-wise float64 distances ``dist(pts[rows[t]], pts[cols[t]])``.

    The sparse companion of :func:`pairwise_kernel`, used by the
    grid-pruned candidate scans that only need the (point, candidate)
    pairs a spatial index produced.  Bit-identical to the corresponding
    ``cdist`` entries: the accumulation runs per coordinate in index
    order with every intermediate rounded, exactly like cdist's inner
    loop (pinned by ``tests/test_kernels.py``).
    """
    _check_kind(kind)
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    d = pts.shape[1]
    if kind == "euclidean":
        diff = pts[rows, 0] - pts[cols, 0]
        out = diff * diff
        for c in range(1, d):
            diff = pts[rows, c] - pts[cols, c]
            out += diff * diff
        np.sqrt(out, out=out)
        return out
    reduce_max = kind == "chebyshev"
    out = np.abs(pts[rows, 0] - pts[cols, 0])
    for c in range(1, d):
        diff = np.abs(pts[rows, c] - pts[cols, c])
        if reduce_max:
            np.maximum(out, diff, out=out)
        else:
            out += diff
    return out
