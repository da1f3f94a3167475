"""Seeded input generators.

The program under test sees only the points these functions return; the
generators live here, not in the library, so a later change to the
library's own scenario code cannot move the benchmark's inputs.  Each
workload derives its generator from ``(seed, workload name, stream id)``,
so the same seed gives the same inputs and workloads never share draws.

The cluster layout (centres, cluster sizes) is fixed; the seed draws the
points around it, the outliers and the arrival order.  Every seed then
poses an instance of the same difficulty, so the work per run, and with
it every timing, does not swing with the seed.
"""

from __future__ import annotations

import zlib

import numpy as np

#: seeds the fixed cluster layout shared by every run
LAYOUT_SEED = 20231

#: coordinates are multiples of this spacing (exact in binary), so the
#: smallest distance between stored points, which seeds the streaming
#: radius, is the same for every seed instead of an extreme-value draw
LATTICE = 2.0 ** -6

#: dimension of every generated point
DIM = 2
#: :func:`clustered`: centres lie in ``[-BOX, BOX]^DIM``, clusters are balls
#: of radius ``RADIUS`` and outliers lie at distance ``[FAR, 2 FAR]``
BOX, RADIUS, FAR = 100.0, 3.0, 1000.0
#: :func:`integer_clustered`: radius of the cluster balls
INT_RADIUS = 16.0


def rng_for(seed: int, *tokens) -> np.random.Generator:
    """A generator keyed by the workload seed plus stable string tokens."""
    keys = [zlib.crc32(str(t).encode()) for t in tokens]
    return np.random.default_rng([int(seed), *keys])


def _in_balls(rng: np.random.Generator, centres: np.ndarray, n: int,
              radius: float) -> np.ndarray:
    """``n`` points uniform in balls of ``radius`` around ``centres``, in
    equal shares.  Bounded clusters keep ``opt`` near ``radius`` for every
    seed, where Gaussian clusters would make it an extreme-value draw."""
    k, d = centres.shape
    dirs = rng.normal(size=(n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = radius * rng.random(size=(n, 1)) ** (1.0 / d)
    return centres[np.arange(n) % k] + dirs * r


def clustered(rng: np.random.Generator, n: int, k: int, z: int,
              prefix: int = 0) -> np.ndarray:
    """``n`` shuffled points: ``n - z`` cluster points in balls around ``k``
    fixed centres, plus ``z`` planted outliers on a shell around the
    origin (see :data:`BOX`).  Coordinates are snapped to multiples of
    :data:`LATTICE`.

    The first ``prefix`` rows are the same for every seed.  The streaming
    structure sets its starting radius from the smallest distance among
    its first ``k + z + 1`` points; a fixed prefix pins that radius, so
    every seed doubles at the same radii and ends at a similar size.
    """
    if prefix:
        zp = z * prefix // n
        head = clustered(np.random.default_rng(LAYOUT_SEED), prefix, k, zp)
        tail = clustered(rng, n - prefix, k, z - zp)
        return np.concatenate([head, tail])
    centres = np.random.default_rng(LAYOUT_SEED).uniform(-BOX, BOX, (k, DIM))
    pts = _in_balls(rng, centres, n - z, RADIUS)
    dirs = rng.normal(size=(z, DIM))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    out = dirs * rng.uniform(FAR, 2.0 * FAR, size=(z, 1))
    allp = np.round(np.concatenate([pts, out]) / LATTICE) * LATTICE
    # a row permutation, not rng.shuffle: shuffling a 2-d array row by
    # row took most of a workload's set-up time
    return allp[rng.permutation(len(allp))]


def integer_clustered(rng: np.random.Generator, n: int, k: int, z: int,
                      delta: int) -> np.ndarray:
    """``n`` shuffled integer points in ``[1, delta]^DIM``: ``n - z`` rounded
    cluster points in balls of radius :data:`INT_RADIUS` around ``k`` fixed
    centres in the middle half of the box, plus ``z`` outliers uniform in
    the outer band of the box."""
    lo, hi = 0.25 * delta, 0.75 * delta
    centres = np.random.default_rng(LAYOUT_SEED).uniform(lo, hi, (k, DIM))
    pts = _in_balls(rng, centres, n - z, INT_RADIUS)
    band = rng.uniform(1, 0.1 * delta, size=(z, DIM))
    flip = rng.random(size=(z, DIM)) < 0.5
    out = np.where(flip, band, delta + 1 - band)
    allp = np.clip(np.rint(np.concatenate([pts, out])), 1, delta)
    return allp[rng.permutation(len(allp))]
