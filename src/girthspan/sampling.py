"""Edge subsampling, bad-edge detection and short-cycle stripping.

The keep probability is p = alpha * log2(sigma_a) / d.  The log base is
pinned to 2 and p > 1 clamps to 1 (with a recorded flag) since desk-scale
parameters routinely fall outside the asymptotic regime.  Each superedge is
decided by one position-addressable PRNG draw, so results are independent
of iteration order and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import _within
from .labelcover import LabelCoverInstance, supergraph
from .rng import draws_array, keep_threshold


@dataclass(frozen=True)
class SampleParams:
    """Subsampling knobs: strength alpha, cycle threshold k, master seed."""

    alpha: float
    k: int = 3
    seed: int = 0
    clamp_p: bool = True
    d_override: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"alpha must be a positive finite number, not {self.alpha}")
        if self.d_override is not None and self.d_override < 1:
            raise InputError("degree override must be >= 1")
        if self.k < 3:
            raise InputError("cycle threshold k must be >= 3")


def keep_probability(lc: LabelCoverInstance, params: SampleParams) -> float:
    """p = alpha * log2(sigma_a) / d, clamped to 1 unless ``clamp_p`` is off.

    d is the degree override, else the maximum supergraph degree (1 on an
    instance without superedges).
    """
    if lc.sigma_a < 2:
        raise InputError("sample probability needs sigma_a >= 2")
    d = params.d_override
    if d is None:
        d = int(max(lc.degrees_a().max(), lc.degrees_b().max())) if lc.edge_count else 1
    p = params.alpha * math.log2(lc.sigma_a) / d
    if p > 1.0:
        if not params.clamp_p:
            raise InputError(f"sample probability {p} exceeds 1 and clamping is off")
        return 1.0
    return p


def kept_edge_ids(lc: LabelCoverInstance, params: SampleParams) -> np.ndarray:
    """Superedge ids kept by the sample, decided in canonical edge order."""
    p = keep_probability(lc, params)
    threshold = keep_threshold(p)
    if threshold is None:
        return np.arange(lc.edge_count, dtype=np.int64)
    draws = draws_array(params.seed, lc.edge_count)
    return np.nonzero(draws < np.uint64(threshold))[0].astype(np.int64)


def subsample(lc: LabelCoverInstance, params: SampleParams) -> LabelCoverInstance:
    """Keep each superedge independently with probability p; relations untouched."""
    return lc.restrict_edges(kept_edge_ids(lc, params))


def bad_edges(lc: LabelCoverInstance, k: int) -> list:
    """Superedge ids lying on a supergraph cycle of length <= k."""
    if k < 3:
        raise InputError("cycle threshold k must be >= 3")
    g = supergraph(lc)
    eu, ev = g.edge_arrays()
    # A cycle of length <= k through {u, v} is a u-v path of <= k - 1 hops without it.
    bad = np.concatenate([np.zeros(0, dtype=bool), *_within(g, eu, ev, k - 1, skip_direct=True)])
    return np.flatnonzero(bad).tolist()


def strip_bad_edges(lc: LabelCoverInstance, k: int) -> LabelCoverInstance:
    """Remove all bad edges in one simultaneous pass.

    Any cycle of length <= k in the output would already have been a cycle
    in the input, so every one of its edges would have been removed; the
    output supergirth therefore exceeds k.
    """
    return lc.without_edges(bad_edges(lc, k))


def _side_degrees(counts: np.ndarray) -> dict:
    if counts.size == 0:
        return {"minimum": 0, "mean": 0.0, "maximum": 0}
    return {"minimum": int(counts.min()), "mean": float(counts.mean()),
            "maximum": int(counts.max())}


def degree_stats(lc: LabelCoverInstance) -> tuple[dict, dict]:
    """Exact supergraph degrees per side: dicts of minimum, mean and maximum."""
    return _side_degrees(lc.degrees_a()), _side_degrees(lc.degrees_b())
