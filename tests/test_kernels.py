"""Tests for the shared distance-kernel layer (:mod:`repro.kernels`):
float64 kernel parity with SciPy across all built-in metrics, chunk
autotuning and workspace buffer reuse.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.core.metrics import get_metric
from repro.kernels import Workspace, auto_chunk, pairwise_kernel

METRICS = ("euclidean", "chebyshev", "manhattan")
_CDIST = {"euclidean": "euclidean", "chebyshev": "chebyshev",
          "manhattan": "cityblock"}


class TestAutoChunk:
    def test_bounds(self):
        assert 64 <= auto_chunk(10) <= 8192
        assert 64 <= auto_chunk(10**9) <= 8192


class TestFloat64Parity:
    """The float64 path must be bit-identical to SciPy's cdist — the
    pre-kernels implementation every parity test pins."""

    @pytest.mark.parametrize("name", METRICS)
    def test_matches_cdist(self, name):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(37, 3)), rng.normal(size=(23, 3))
        D = pairwise_kernel(name, a, b)
        assert D.dtype == np.float64
        np.testing.assert_array_equal(D, cdist(a, b, metric=_CDIST[name]))

    @pytest.mark.parametrize("name", METRICS)
    def test_metric_object_routes_through_kernel(self, name):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(11, 2)), rng.normal(size=(7, 2))
        m = get_metric(name)
        np.testing.assert_array_equal(
            m.pairwise(a, b), cdist(a, b, metric=_CDIST[name])
        )

    def test_empty_inputs(self):
        a = np.zeros((0, 2))
        b = np.ones((4, 2))
        assert pairwise_kernel("euclidean", a, b).shape == (0, 4)
        assert pairwise_kernel("euclidean", b, a).shape == (4, 0)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            pairwise_kernel("mahalanobis", np.zeros((2, 2)), np.zeros((2, 2)))


class TestWorkspace:
    def test_buffer_reuse_and_growth(self):
        ws = Workspace()
        b1 = ws.buffer("t", (4, 4), np.float64)
        b2 = ws.buffer("t", (2, 8), np.float64)
        assert b1.base is b2.base  # same backing allocation, re-viewed
        b3 = ws.buffer("t", (100, 100), np.float64)
        assert b3.shape == (100, 100)

    def test_buffer_distinct_tags_and_dtypes(self):
        ws = Workspace()
        a = ws.buffer("x", (4,), np.float64)
        b = ws.buffer("y", (4,), np.float64)
        c = ws.buffer("x", (4,), np.float32)
        assert a.base is not b.base and a.dtype != c.dtype
