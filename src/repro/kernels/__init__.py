"""Shared distance kernels (see :mod:`repro.kernels.distance`).

One exact float64 kernel under every metric, radius search and
absorption loop in the library: :func:`pairwise_kernel` (SciPy
``cdist``) for dense blocks and :func:`pair_distances`, its
bit-identical sparse companion, for the index pairs a spatial grid
produces.  :func:`auto_chunk` sizes row blocks and :class:`Workspace`
holds reusable per-call buffers.
"""

from .distance import (
    DEFAULT_BLOCK_BYTES,
    Workspace,
    auto_chunk,
    pair_distances,
    pairwise_kernel,
)

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "Workspace",
    "auto_chunk",
    "pair_distances",
    "pairwise_kernel",
]
