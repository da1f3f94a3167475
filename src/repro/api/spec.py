"""The problem specification every algorithm in the library consumes.

The paper solves one problem — k-center with ``z`` outliers at quality
``eps`` — in five computational models.  :class:`ProblemSpec` is the
single validated carrier of those parameters: algorithms stop taking
loose positional ``(k, z, eps, ...)`` tuples and instead receive a frozen
spec, so a stream session, an MPC run and an offline solve are guaranteed
to be talking about the *same* instance.

The spec also pins the :class:`~repro.core.metrics.Metric` (resolved once,
at construction) and the random seed, which makes every facade run
reproducible: two sessions built from equal specs consume identical
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.metrics import Metric, get_metric

__all__ = ["ProblemSpec"]

#: keys older :meth:`ProblemSpec.as_dict` records carry; only a
#: ``dtype`` other than float64 ever changed results
_RETIRED_KEYS = ("dtype", "kernel_backend", "kernel_chunk", "prune",
                 "executor", "jobs", "decision_jobs")


@dataclass(frozen=True)
class ProblemSpec:
    """A validated ``(eps, k, z)`` problem instance description.

    Parameters
    ----------
    k:
        Number of centers (``>= 1``).
    z:
        Outlier weight budget (``>= 0``).
    eps:
        Coreset quality parameter in ``(0, 1]``.
    metric:
        Metric instance, registry name (``"euclidean"``, ``"linf"``, ...)
        or ``None`` (Euclidean).  Resolved to a
        :class:`~repro.core.metrics.Metric` instance at construction.
    seed:
        Seed for every random choice a backend makes (sketch randomness,
        random partitioning).  ``None`` means fresh OS entropy — fine for
        production, but parity/replay tooling should always set it.
    dim:
        Ambient dimension ``d`` of the point space.  Required by the
        backends whose size thresholds depend on the doubling dimension
        (streaming, sliding-window, dynamic); ``None`` is accepted for
        purely offline/MPC use.

    The spec describes the problem only.  How the work is executed is
    not part of it: sessions run serially, and the functions that can
    fan out take their own knob (``executor=`` on the MPC protocols, a
    thread count on :func:`repro.core.greedy.charikar_greedy`).
    """

    k: int
    z: int
    eps: float
    metric: "Metric | str | None" = None
    seed: "int | None" = None
    dim: "int | None" = None
    _metric_obj: Metric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if int(self.z) < 0:
            raise ValueError(f"z must be >= 0, got {self.z}")
        if not 0 < float(self.eps) <= 1:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.dim is not None and int(self.dim) < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.seed is not None and int(self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "z", int(self.z))
        object.__setattr__(self, "eps", float(self.eps))
        if self.dim is not None:
            object.__setattr__(self, "dim", int(self.dim))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "_metric_obj", get_metric(self.metric))

    # -- resolved views ----------------------------------------------------

    @property
    def resolved_metric(self) -> Metric:
        """The :class:`Metric` instance the spec was resolved against."""
        return self._metric_obj

    @property
    def metric_name(self) -> str:
        """Short metric identifier (``"euclidean"``, ``"chebyshev"``, ...)."""
        return self._metric_obj.name

    def require_dim(self) -> int:
        """``dim``, raising a helpful error when the spec omitted it."""
        if self.dim is None:
            raise ValueError(
                "this backend needs ProblemSpec.dim (the ambient dimension); "
                "build the spec with ProblemSpec(k, z, eps, dim=d)"
            )
        return self.dim

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A generator derived from ``seed`` (fresh entropy when unset).

        ``salt`` decorrelates independent consumers of the same spec
        (e.g. the partitioner and the sketch randomness).
        """
        if self.seed is None:
            return np.random.default_rng()
        return np.random.default_rng(self.seed + salt)

    # -- derivation --------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ProblemSpec":
        """Rebuild a spec from an :meth:`as_dict` record.

        Older records carry the retired keys in :data:`_RETIRED_KEYS`:
        ``dtype``, ``kernel_backend``, ``kernel_chunk`` and ``prune``
        (2.x and earlier) and the three execution keys of 3.x.  They are
        dropped, since what remains computes what they computed (every
        kernel backend, chunk size, ``prune`` value and execution setting
        was bit-identical).  A record with a ``dtype`` other than
        ``"float64"`` raises :class:`ValueError` naming ``dtype``: its
        lower-precision results cannot be reproduced.
        """
        doc = dict(doc)
        dtype = doc.get("dtype")
        if dtype not in (None, "float64"):
            raise ValueError(
                f"spec dtype={dtype!r} is no longer supported: distances "
                "are computed in float64 only"
            )
        for key in _RETIRED_KEYS:
            doc.pop(key, None)
        return cls(**doc)

    def replace(self, **changes) -> "ProblemSpec":
        """A copy of the spec with the given fields replaced."""
        base = {
            "k": self.k, "z": self.z, "eps": self.eps,
            "metric": self.metric, "seed": self.seed, "dim": self.dim,
        }
        base.update(changes)
        return ProblemSpec(**base)

    def as_dict(self) -> dict:
        """Plain-dict view (used by provenance records and reports)."""
        return {
            "k": self.k,
            "z": self.z,
            "eps": self.eps,
            "metric": self.metric_name,
            "seed": self.seed,
            "dim": self.dim,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProblemSpec(k={self.k}, z={self.z}, eps={self.eps}, "
            f"metric={self.metric_name!r}, seed={self.seed}, dim={self.dim})"
        )

