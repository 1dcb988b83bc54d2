"""Tuning-transfer acceptance gate (leave-one-out over the full suite).

Builds a fresh similarity index from the committed ``results/tuned``
corpus and replays every app's *predicted* configuration with the app's
own entries excluded from the vote (``exclude_self``, the production
semantics for unseen kernels).  The gate:

* predicted geomean speedup >= heuristic geomean speedup — transfer must
  beat the static heuristic it falls back to, or it has no reason to
  exist;
* no app below 0.95x baseline — a prediction may miss the tuned optimum
  but must never wreck a kernel (the paper's `complex` failure mode,
  guarded by the divergence clamp);
* a warm prediction resolves in under 50 ms and performs **zero**
  empirical evaluations, pinned via CellCache session counters — the
  whole point of transfer is instant configs without measurements.

Each run writes the per-app rows and the three geomeans (simulated
cycles, so exact) to ``results/transfer.txt``.  ``REPRO_SKIP_PERF=1``
skips the one wall-clock check, the 50 ms warm-prediction budget.
"""

import os
import time

import pytest

from conftest import write_artifact
from repro.harness import ParallelRunner
from repro.harness.cache import CellCache
from repro.harness.summary import transfer_summary
from repro.similarity.index import SimilarityIndex, build_index
from repro.similarity.predict import predict_bench
from repro.transforms.pass_manager import COMPILE_TIMEOUT
from repro.transforms.unmerge import MAX_INSTRUCTIONS

#: Minimum per-app speedup over baseline a prediction may produce.
PER_APP_FLOOR = 0.95

#: Warm per-kernel prediction budget (seconds).  The reference container
#: resolves a prediction in ~2-10 ms (module build + feature extraction
#: + brute-force neighbor search over the tuned corpus).
PREDICT_BUDGET_S = 0.050


@pytest.fixture(scope="module")
def tuned_index(tmp_path_factory):
    index = SimilarityIndex(tmp_path_factory.mktemp("simindex"))
    report = build_index(index=index)
    assert not report["skipped"], f"stale tuned corpus: {report['skipped']}"
    return index


@pytest.fixture(scope="module")
def transfer_runner(tuned_index):
    # Shares the repo-level cell cache with the session runner (cells key
    # on the prediction fingerprint, so reuse across sessions is safe);
    # only the similarity index is redirected to the fresh build.
    return ParallelRunner(max_instructions=MAX_INSTRUCTIONS,
                          compile_timeout=COMPILE_TIMEOUT,
                          sim_index_dir=tuned_index.root)


def test_predicted_beats_heuristic_leave_one_out(transfer_runner, benches,
                                                 results_dir):
    summary = transfer_summary(transfer_runner, benches)
    write_artifact(results_dir, "transfer.txt", summary.format())
    assert len(summary.rows) == len(benches)
    assert not any(row.fallback for row in summary.rows), (
        "prediction fell back on "
        f"{[r.app for r in summary.rows if r.fallback]}")

    floor_violations = [
        f"{row.app}: {row.predicted_speedup:.3f}x"
        for row in summary.rows if row.predicted_speedup < PER_APP_FLOOR]
    assert not floor_violations, (
        f"predicted config below {PER_APP_FLOOR}x baseline: "
        + ", ".join(floor_violations))

    assert summary.geomean_predicted >= summary.geomean_heuristic, (
        f"predicted geomean {summary.geomean_predicted:.3f}x fell below "
        f"the heuristic's {summary.geomean_heuristic:.3f}x — transfer is "
        "doing worse than its own fallback")


@pytest.mark.skipif(os.environ.get("REPRO_SKIP_PERF") == "1",
                    reason="REPRO_SKIP_PERF=1")
def test_warm_prediction_is_instant_and_measurement_free(tuned_index,
                                                         benches, tmp_path):
    # A dedicated empty cell cache: if prediction ever consults or writes
    # a cell (i.e. performs an empirical evaluation), its session
    # counters move and the assertion below names the regression.
    cache = CellCache(tmp_path / "cells")
    over_budget = []
    for bench in benches:
        predict_bench(bench, tuned_index, emit=False)  # warm caches
        best = min(
            (lambda t0: (predict_bench(bench, tuned_index, emit=False),
                         time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(3))
        if best > PREDICT_BUDGET_S:
            over_budget.append(f"{bench.name}: {best * 1000:.1f}ms")
    assert not over_budget, (
        "warm prediction over the "
        f"{PREDICT_BUDGET_S * 1000:.0f}ms budget: " + ", ".join(over_budget))
    assert (cache.hits, cache.misses, cache.puts) == (0, 0, 0), (
        "prediction touched the cell cache — it must perform zero "
        "empirical evaluations")
