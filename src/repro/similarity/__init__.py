"""Tuning transfer via kernel similarity (ROADMAP "Tuning transfer").

The empirical autotuner (:mod:`repro.tune`) finds per-loop decision sets
worth geomean 1.198x, but needs a fresh search per kernel.  This package
makes those wins *transferable*: every tuned kernel contributes its loops
— as deterministic static feature vectors — to a nearest-neighbor index,
and an unseen kernel gets a predicted decision set by voting over its K
nearest tuned loops, with zero empirical evaluations.  The tuner is
demoted to a background refiner (``repro serve`` enqueues it at low
priority; completed refinements upgrade the index).

Layers:

* :mod:`repro.similarity.features` — per-loop + whole-kernel feature
  vectors, versioned by :data:`FEATURE_SCHEMA_VERSION`;
* :mod:`repro.similarity.index` — content-addressed on-disk index under
  ``results/.simindex`` (ShardedLRUStore discipline);
* :mod:`repro.similarity.corpus` — fuzz-generated kernels wrapped as
  benchmarks so the existing ``repro tune`` machinery can grow the index
  offline (``repro similarity build --fuzz-count N``);
* :mod:`repro.similarity.predict` — K-NN vote with a below-confidence
  fallback to the static heuristic, surfaced as the ``predicted``
  pipeline configuration.
"""

from .corpus import FuzzBenchmark, build_from_fuzz, fuzz_corpus
from .features import (FEATURE_SCHEMA_VERSION, KernelFeatures, LoopFeatures,
                       combined_vector, distance, kernel_features)
from .index import (SIMINDEX_DIR_ENV, SimilarityIndex, build_index,
                    default_index_dir, entry_from_tuned)
from .predict import (Prediction, emit_prediction_telemetry, predict_bench,
                      predict_module)

__all__ = [
    "FuzzBenchmark", "build_from_fuzz", "fuzz_corpus",
    "FEATURE_SCHEMA_VERSION", "KernelFeatures", "LoopFeatures",
    "combined_vector", "distance", "kernel_features",
    "SIMINDEX_DIR_ENV", "SimilarityIndex", "build_index",
    "default_index_dir", "entry_from_tuned",
    "Prediction", "emit_prediction_telemetry", "predict_bench",
    "predict_module",
]
