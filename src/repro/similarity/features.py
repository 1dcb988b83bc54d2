"""Deterministic kernel/loop feature vectors for tuning transfer.

A loop's vector is computed purely from the *unoptimized* module — the
same artifact the cell cache fingerprints — using the analyses the
heuristic and the tuner already trust: path counts, the cost model,
trip-count analysis, divergence, and the per-opcode-category breakdown
the timing model charges (:data:`repro.gpu.counters.CATEGORIES`).
Nothing is simulated and nothing depends on the execution engine, the
worker count, or any cache state, so vectors are bit-identical across
``-j1``/``-jN``, across the warp and jit engines, and across
cold-versus-warm in-process jit state (tests/test_similarity.py pins
all three).

Each dimension carries a fixed normalization scale — *data-independent*,
never fitted to the corpus — so distances between two kernels do not
drift as the index grows.  :data:`FEATURE_SCHEMA_VERSION` versions the
layout; the index folds it into every entry key, so changing a feature
definition orphans (rather than silently corrupts) old entries.

Trip counts come in a static and a "profiled" slot: the static slot is
:func:`repro.analysis.tripcount.constant_trip_count`; the profiled slot
defaults to the static value but callers holding measured trip counts
(e.g. from counters of an earlier run) may supply them via
``trip_profile`` — the slot is part of the schema so profiled corpora
and static corpora stay distance-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.cost_model import instruction_cost, loop_size
from ..analysis.divergence import (DivergenceInfo, dataflow_tid_tainted,
                                   loop_has_divergent_branch,
                                   loop_has_tid_dataflow_branch)
from ..analysis.loops import LoopInfo
from ..analysis.paths import count_paths
from ..analysis.tripcount import constant_trip_count
from ..gpu.counters import CATEGORIES, cat_index
from ..ir.module import Module

#: Bump when a feature definition, the dimension order, or a
#: normalization scale changes.  Folded (together with the timing-model
#: and tune-schema versions) into every similarity-index entry key.
FEATURE_SCHEMA_VERSION = 1

#: Per-loop dimensions as ``(name, normalization scale)``.  Count-like
#: dimensions are log2-compressed first so a 1000-path loop and a
#: 2000-path loop are near neighbors while both stay far from a
#: straight-line loop.
LOOP_FEATURE_SPECS: Tuple[Tuple[str, float], ...] = (
    ("log_paths", 8.0),
    ("log_size", 10.0),
    ("log_trip_static", 6.0),
    ("trip_known", 1.0),
    ("log_trip_profile", 6.0),
    ("depth", 3.0),
    ("innermost", 1.0),
    ("divergent", 1.0),
    ("tid_branch", 1.0),
) + tuple((f"cat_{name}", 1.0) for name in CATEGORIES)

#: Whole-kernel summary dimensions (appended to every loop vector for
#: distance purposes: two identical loops in very different kernels are
#: *not* interchangeable evidence).
KERNEL_FEATURE_SPECS: Tuple[Tuple[str, float], ...] = (
    ("k_log_size", 12.0),
    ("k_log_loops", 4.0),
    ("k_max_depth", 3.0),
) + tuple((f"k_cat_{name}", 1.0) for name in CATEGORIES)

LOOP_FEATURE_NAMES = tuple(name for name, _ in LOOP_FEATURE_SPECS)
KERNEL_FEATURE_NAMES = tuple(name for name, _ in KERNEL_FEATURE_SPECS)

#: Normalization scales of the combined (loop ++ kernel) vector, in
#: dimension order — the denominator of :func:`distance`.
COMBINED_SCALES: Tuple[float, ...] = tuple(
    scale for _, scale in LOOP_FEATURE_SPECS + KERNEL_FEATURE_SPECS)


def _log2p1(value: float) -> float:
    return math.log2(1.0 + max(0.0, float(value)))


def _category_fractions(blocks) -> List[float]:
    """Cost-weighted opcode-category histogram, normalized to sum 1.

    Static: each instruction contributes its cost-model weight to its
    ``category`` bucket.
    """
    totals = [0.0] * len(CATEGORIES)
    for block in blocks:
        for inst in block.instructions:
            totals[cat_index(inst.category)] += float(instruction_cost(inst))
    grand = sum(totals)
    if grand <= 0:
        return totals
    return [t / grand for t in totals]


@dataclass(frozen=True)
class LoopFeatures:
    """One loop's feature vector plus the raw facts behind it.

    ``paths``/``size`` are kept un-encoded so the predictor can re-check
    transferred decisions against the cost model without re-running any
    analysis.
    """

    loop_id: str
    vector: Tuple[float, ...]
    paths: int
    size: int
    trip: Optional[int]
    depth: int
    descendants: Tuple[str, ...]
    #: An in-body branch condition is data-flow tid-tainted — the
    #: paper's `complex` signature; unrolling such a loop multiplies its
    #: serialized divergent body (see predict's divergence clamp).
    tid_branch: bool = False


@dataclass(frozen=True)
class KernelFeatures:
    """Whole-kernel summary vector plus every loop's features."""

    name: str
    vector: Tuple[float, ...]
    loops: Tuple[LoopFeatures, ...]


def kernel_features(module: Module,
                    trip_profile: Optional[Dict[str, float]] = None
                    ) -> KernelFeatures:
    """Extract the feature vectors of every loop in ``module``.

    ``trip_profile`` optionally maps ``loop_id`` to a measured trip
    count; absent entries fall back to the static trip count (or 0 when
    unknown).  Extraction is pure and deterministic: same module text,
    same vectors.
    """
    profile = trip_profile or {}
    loops: List[LoopFeatures] = []
    total_size = 0
    max_depth = 0
    all_blocks = []
    for func in module.functions.values():
        info = LoopInfo.compute(func)
        divergence = DivergenceInfo.compute(func, set())
        tid_tainted = dataflow_tid_tainted(func)
        all_blocks.extend(func.blocks)
        total_size += sum(int(instruction_cost(inst))
                          for block in func.blocks
                          for inst in block.instructions)
        for loop in info.loops:
            paths = count_paths(loop, info)
            size = loop_size(loop)
            trip = constant_trip_count(loop)
            depth = loop.depth
            max_depth = max(max_depth, depth)
            profiled = profile.get(loop.loop_id,
                                   float(trip) if trip is not None else 0.0)
            stack = list(loop.children)
            descendants: List[str] = []
            while stack:
                child = stack.pop()
                descendants.append(child.loop_id)
                stack.extend(child.children)
            tid_branch = loop_has_tid_dataflow_branch(loop, tid_tainted)
            values = [
                _log2p1(paths),
                _log2p1(size),
                _log2p1(trip if trip is not None else 0.0),
                1.0 if trip is not None else 0.0,
                _log2p1(profiled),
                float(depth),
                1.0 if loop.is_innermost else 0.0,
                1.0 if loop_has_divergent_branch(loop, divergence) else 0.0,
                1.0 if tid_branch else 0.0,
            ]
            values.extend(_category_fractions(loop.blocks))
            loops.append(LoopFeatures(
                loop_id=loop.loop_id, vector=tuple(values), paths=paths,
                size=size, trip=trip, depth=depth,
                descendants=tuple(sorted(descendants)),
                tid_branch=tid_branch))
    kernel_values = [
        _log2p1(total_size),
        _log2p1(len(loops)),
        float(max_depth),
    ]
    kernel_values.extend(_category_fractions(all_blocks))
    loops.sort(key=lambda lf: lf.loop_id)
    return KernelFeatures(name=module.name, vector=tuple(kernel_values),
                          loops=tuple(loops))


def combined_vector(kernel: KernelFeatures, loop: LoopFeatures
                    ) -> Tuple[float, ...]:
    """The distance-bearing vector: loop dimensions ++ kernel context."""
    return loop.vector + kernel.vector


def distance(u: Sequence[float], v: Sequence[float]) -> float:
    """Normalized Euclidean distance between two combined vectors.

    Each dimension is divided by its fixed scale before squaring, and
    the sum is averaged over the dimension count, so the result is
    roughly in [0, 1] for plausibly-related kernels regardless of how
    many dimensions a future schema adds.
    """
    if len(u) != len(v) or len(u) != len(COMBINED_SCALES):
        raise ValueError(
            f"vector arity mismatch: {len(u)} vs {len(v)} "
            f"(schema wants {len(COMBINED_SCALES)})")
    acc = 0.0
    for a, b, scale in zip(u, v, COMBINED_SCALES):
        d = (a - b) / scale
        acc += d * d
    return math.sqrt(acc / len(COMBINED_SCALES))
