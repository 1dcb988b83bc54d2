"""K-nearest-neighbor decision transfer for unseen kernels.

Given a query kernel, every loop is mapped to its K nearest tuned loops
in the similarity index (normalized-distance brute force over the whole
corpus — deterministic: ties break on ``(distance, app, loop_id)``), and
the neighbors vote a ``(factor, unmerge)`` label with weight
``1/(eps + distance)``.  The result is an instant plan — the same list of
:class:`~repro.directive.LoopDirective` the ``tuned`` pipeline replays —
at zero empirical evaluations.

Safety rails, in order:

* **corpus exclusion** — entries of the query app itself never vote, so
  the leave-one-out acceptance gate measures the production semantics
  (an already-tuned kernel is served its tuned file, not a prediction);
* **confidence fallback** — a loop whose nearest neighbor is farther
  than ``max_distance`` falls back to the static heuristic's decision
  for that loop;
* **feasibility check** — a transferred decision whose cost-model size
  estimate exceeds the tuner's own enumeration cap
  (:data:`repro.tune.space.TuneParams.size_cap`) is demoted to the
  heuristic decision rather than replayed blindly;
* **nesting rule** — innermost loops are decided first and an outer
  loop is left alone when any descendant was transformed, mirroring
  both the heuristic and the tuner's per-loop composition.

Every per-loop outcome is surfaced as a typed ``analysis`` remark
(neighbors, distances, confidence) and counted in the metrics plane
(``repro_similarity_predictions_total`` by outcome, neighbor-distance
histogram).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.paths import estimate_unmerged_size
from ..directive import LoopDirective
from ..ir.module import Module
from ..obs import metrics as obs_metrics
from ..obs import session as obs
from ..transforms.heuristic import HeuristicParams, choose_factor
from ..tune.space import TuneParams
from .features import (KernelFeatures, LoopFeatures, combined_vector,
                       distance, kernel_features)

#: Neighbors consulted per query loop.
DEFAULT_K = 3

#: Nearest-neighbor distance beyond which a loop falls back to the
#: static heuristic.  The normalized distance is ~0 for near-identical
#: loops and climbs past 0.5 for structurally unrelated ones.
DEFAULT_MAX_DISTANCE = 0.35

#: Keeps an exact-match neighbor (distance 0) from having infinite vote
#: weight while still dominating any non-exact neighbor.
_EPS = 1e-6


@dataclass(frozen=True)
class NeighborVote:
    """One corpus loop's contribution to a query loop's vote."""

    app: str
    loop_id: str
    distance: float
    factor: int
    unmerge: bool

    @property
    def label(self) -> str:
        return f"{self.app}/{self.loop_id}@{self.distance:.4f}"


@dataclass(frozen=True)
class LoopPrediction:
    """The decided transform for one query loop, with its evidence.

    ``source`` is ``transfer`` (neighbors voted), ``heuristic`` (nearest
    neighbor too far — static fallback), ``infeasible`` (transferred
    decision failed the cost-model cap — static fallback),
    ``divergence-clamped`` (the decided unroll factor was reset to 1
    because an in-body branch is tid-divergent by data flow — the
    paper's `complex` worst case), or ``inner-selected`` (nesting rule:
    a descendant was transformed).
    """

    loop_id: str
    factor: int
    unmerge: bool
    source: str
    confidence: float
    neighbors: Tuple[NeighborVote, ...]

    @property
    def is_identity(self) -> bool:
        return self.factor <= 1 and not self.unmerge


@dataclass(frozen=True)
class Prediction:
    """A whole-kernel predicted decision set.

    ``fallback`` is True when the corpus held no usable evidence at all
    (empty index, or only entries of the query app itself); the caller
    then runs the plain heuristic pipeline instead of a replay.
    """

    app: str
    decisions: Tuple[LoopDirective, ...]
    loops: Tuple[LoopPrediction, ...]
    fallback: bool
    corpus_loops: int


def _corpus_loops(entries: Sequence[Dict], exclude_app: Optional[str]
                  ) -> List[Tuple[Tuple[float, ...], NeighborVote]]:
    """Flatten index entries into votable (vector, provenance) rows."""
    rows: List[Tuple[Tuple[float, ...], NeighborVote]] = []
    for entry in entries:
        app = str(entry.get("app", ""))
        if exclude_app is not None and app == exclude_app:
            continue
        kernel_vec = tuple(entry.get("kernel_vector", ()))
        for loop in entry.get("loops", ()):
            vec = tuple(loop.get("vector", ())) + kernel_vec
            rows.append((vec, NeighborVote(
                app=app, loop_id=str(loop.get("loop_id", "")),
                distance=0.0, factor=int(loop.get("factor", 1)),
                unmerge=bool(loop.get("unmerge", False)))))
    return rows


def _nearest(query: Tuple[float, ...],
             corpus: Sequence[Tuple[Tuple[float, ...], NeighborVote]],
             k: int) -> List[NeighborVote]:
    scored: List[NeighborVote] = []
    for vec, vote in corpus:
        try:
            d = distance(query, vec)
        except ValueError:
            continue  # Foreign-schema row: never comparable, never votes.
        scored.append(NeighborVote(vote.app, vote.loop_id, d,
                                   vote.factor, vote.unmerge))
    scored.sort(key=lambda v: (v.distance, v.app, v.loop_id))
    return scored[:k]


def _vote(neighbors: Sequence[NeighborVote]) -> Tuple[int, bool, float]:
    """Weighted majority over (factor, unmerge); returns its confidence."""
    weights: Dict[Tuple[int, bool], float] = {}
    for vote in neighbors:
        label = (vote.factor, vote.unmerge)
        weights[label] = weights.get(label, 0.0) + 1.0 / (_EPS + vote.distance)
    total = sum(weights.values())
    # Deterministic winner: heaviest label, ties to the smaller label.
    (factor, unmerge), weight = sorted(
        weights.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return factor, unmerge, (weight / total if total > 0 else 0.0)


def _heuristic_decision(lf: LoopFeatures, params: HeuristicParams
                        ) -> Tuple[int, bool]:
    """What the static heuristic would do with this loop (identity if
    unselected) — the per-loop fallback target."""
    factor = choose_factor(lf.paths, lf.size, params)
    if factor is None:
        return 1, False
    return factor, True


def _feasible(lf: LoopFeatures, factor: int, unmerge: bool,
              size_cap: int) -> bool:
    if unmerge:
        return estimate_unmerged_size(lf.paths, lf.size,
                                      max(1, factor)) <= size_cap
    return lf.size * max(1, factor) <= size_cap


def predict_module(module: Module, entries: Sequence[Dict], *,
                   app: Optional[str] = None,
                   exclude_app: Optional[str] = None,
                   k: int = DEFAULT_K,
                   max_distance: float = DEFAULT_MAX_DISTANCE,
                   heuristic: Optional[HeuristicParams] = None
                   ) -> Prediction:
    """Predict a decision set for ``module`` from index ``entries``.

    Pure given its inputs: the same module text and corpus produce the
    same prediction regardless of engine, worker count, or cache state.
    """
    params = heuristic or HeuristicParams()
    size_cap = TuneParams().size_cap
    name = app if app is not None else module.name
    features = kernel_features(module)
    corpus = _corpus_loops(entries, exclude_app)
    if not corpus or not features.loops:
        return Prediction(app=name, decisions=(), loops=(),
                          fallback=not corpus, corpus_loops=len(corpus))

    # Innermost-first (fewest descendants first, loop_id tie-break) so the
    # nesting rule below sees inner decisions before their enclosing loops
    # — the same composition order as the heuristic and the tuner.
    order = sorted(features.loops,
                   key=lambda lf: (len(lf.descendants), lf.loop_id))
    transformed: set = set()
    predictions: List[LoopPrediction] = []
    for lf in order:
        query = combined_vector(features, lf)
        neighbors = tuple(_nearest(query, corpus, k))
        nearest_d = neighbors[0].distance if neighbors else float("inf")
        if any(d in transformed for d in lf.descendants):
            predictions.append(LoopPrediction(
                lf.loop_id, 1, False, "inner-selected", 0.0, neighbors))
            continue
        if not neighbors or nearest_d > max_distance:
            factor, unmerge = _heuristic_decision(lf, params)
            source, confidence = "heuristic", 0.0
        else:
            factor, unmerge, confidence = _vote(neighbors)
            source = "transfer"
            if (factor > 1 or unmerge) and \
                    not _feasible(lf, factor, unmerge, size_cap):
                factor, unmerge = _heuristic_decision(lf, params)
                source = "infeasible"
        if lf.tid_branch and factor > 1:
            # Divergence clamp (paper Section V, the `complex` case): an
            # in-body branch re-diverges every iteration by construction
            # — its condition is a pure data-flow function of the thread
            # id — so unrolling multiplies the serialized divergent body.
            # Unmerging alone is kept: with no unroll there is no path
            # product to amplify, and `complex`'s own empirical optimum
            # is exactly u=1 + unmerge.
            factor = 1
            source = "divergence-clamped"
        if factor > 1 or unmerge:
            transformed.add(lf.loop_id)
        predictions.append(LoopPrediction(
            lf.loop_id, factor, unmerge, source, confidence, neighbors))

    predictions.sort(key=lambda p: p.loop_id)
    decisions = tuple(
        LoopDirective(p.loop_id, max(1, p.factor), p.unmerge)
        for p in predictions if not p.is_identity)
    return Prediction(app=name, decisions=decisions,
                      loops=tuple(predictions), fallback=False,
                      corpus_loops=len(corpus))


def emit_prediction_telemetry(prediction: Prediction) -> None:
    """Remarks + metrics for one prediction (no-ops when planes are off).

    Split from :func:`predict_bench` so the harness can resolve a
    prediction silently for cache-key fingerprinting and emit exactly
    once, on the measurement path (keeping ``-j1``/``-jN`` remark
    streams identical).
    """
    outcome = "fallback" if prediction.fallback else "transfer"
    obs_metrics.inc("repro_similarity_predictions_total", outcome=outcome)
    if obs.active() is not None and prediction.fallback:
        obs.remark("missed", "predict", prediction.app,
                   "no usable index entries; heuristic fallback",
                   reason="empty-index",
                   corpus_loops=prediction.corpus_loops)
    for lp in prediction.loops:
        if lp.neighbors:
            obs_metrics.observe("repro_similarity_neighbor_distance",
                                lp.neighbors[0].distance,
                                buckets=obs_metrics.DISTANCE_BUCKETS)
        if obs.active() is None:
            continue
        func = lp.loop_id.split(":", 1)[0]
        what = (f"u={lp.factor}, unmerge="
                f"{'on' if lp.unmerge else 'off'}")
        obs.remark(
            "analysis", "predict", func,
            f"predicted {what} via {lp.source} "
            f"(confidence {lp.confidence:.2f})",
            loop_id=lp.loop_id, u=lp.factor, unmerge=lp.unmerge,
            source=lp.source, confidence=round(lp.confidence, 4),
            neighbors=",".join(v.label for v in lp.neighbors))


def predict_bench(bench, index=None, *,
                  k: int = DEFAULT_K,
                  max_distance: float = DEFAULT_MAX_DISTANCE,
                  heuristic: Optional[HeuristicParams] = None,
                  exclude_self: bool = True,
                  emit: bool = True) -> Prediction:
    """Predict a decision set for a benchmark from the on-disk index.

    ``exclude_self`` (the default) keeps the benchmark's own entries out
    of the vote, so predicting an already-indexed app measures genuine
    transfer — the same semantics as the leave-one-out perf gate.
    ``emit=False`` suppresses remarks/metrics (fingerprint-only callers).
    """
    from .index import SimilarityIndex

    store = index if index is not None else SimilarityIndex()
    entries = store.load_entries()
    prediction = predict_module(
        bench.build_module(), entries, app=bench.name,
        exclude_app=bench.name if exclude_self else None,
        k=k, max_distance=max_distance, heuristic=heuristic)
    if emit:
        emit_prediction_telemetry(prediction)
    return prediction
