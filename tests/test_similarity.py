"""Tuning-transfer subsystem tests (features, index, prediction, serve).

The load-bearing property of the whole subsystem is determinism: a
kernel's feature vector must be a pure function of the module text —
independent of worker count, execution engine, and any cache state —
because the similarity index is content-addressed over it and the
``predicted`` cell cache key folds the resolved prediction.  The golden
vectors below pin the schema itself: any change to a feature definition,
the dimension order, or a normalization scale must show up here and be
accompanied by a FEATURE_SCHEMA_VERSION bump.
"""

import json
from pathlib import Path

import pytest

from repro.bench import all_benchmarks, benchmark_by_name
from repro.directive import fingerprint
from repro.harness.cache import CellCache
from repro.harness.experiment import ExperimentRunner
from repro.obs import session as obs
from repro.serve.daemon import ServeDaemon
from repro.similarity.features import (COMBINED_SCALES, FEATURE_SCHEMA_VERSION,
                                       KERNEL_FEATURE_SPECS,
                                       LOOP_FEATURE_SPECS, combined_vector,
                                       distance, kernel_features)
from repro.similarity.index import SimilarityIndex, build_index
from repro.similarity.predict import Prediction, predict_bench
from repro.transforms.pipeline import compile_module


@pytest.fixture(autouse=True)
def _clean_obs_slot():
    yield
    obs.uninstall()


@pytest.fixture(scope="module")
def tuned_index(tmp_path_factory):
    """A similarity index built from the committed results/tuned corpus."""
    root = tmp_path_factory.mktemp("simindex")
    index = SimilarityIndex(root)
    report = build_index(index=index)
    return index, report


# -- feature vectors ---------------------------------------------------------

#: Hand-pinned vectors (6-decimal) for three structurally distinct apps:
#: mandelbrot (unknown-trip divergent escape loop — the paper's big win),
#: complex (the tid-data-flow worst case), bspline-vgh (short known-trip
#: loop, the paper's best unroll case).  Loop dims are LOOP_FEATURE_SPECS
#: order; kernel dims are KERNEL_FEATURE_SPECS order.
GOLDEN = {
    "mandelbrot": {
        "loop_id": "mandelbrot_escape:0",
        "loop": [2.807355, 5.857981, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0,
                 0.087719, 0.842105, 0.0, 0.0, 0.070175, 0.0, 0.0],
        "kernel": [6.442943, 1.0, 1.0, 0.151163, 0.55814, 0.093023,
                   0.093023, 0.069767, 0.0, 0.034884],
    },
    "complex": {
        "loop_id": "complex_pow:0",
        "loop": [1.584963, 4.247928, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0,
                 0.222222, 0.666667, 0.0, 0.0, 0.111111, 0.0, 0.0],
        "kernel": [5.321928, 1.0, 1.0, 0.25641, 0.358974, 0.102564,
                   0.102564, 0.102564, 0.0, 0.076923],
    },
    "bspline-vgh": {
        "loop_id": "bspline_vgh:0",
        "loop": [1.584963, 4.643856, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0,
                 0.25, 0.666667, 0.0, 0.0, 0.083333, 0.0, 0.0],
        "kernel": [6.087463, 1.0, 1.0, 0.328358, 0.328358, 0.119403,
                   0.119403, 0.059701, 0.0, 0.044776],
    },
}


class TestFeatureVectors:
    def test_schema_arity(self):
        assert FEATURE_SCHEMA_VERSION == 1
        assert len(LOOP_FEATURE_SPECS) == 16
        assert len(KERNEL_FEATURE_SPECS) == 10
        assert len(COMBINED_SCALES) == 26

    @pytest.mark.parametrize("app", sorted(GOLDEN))
    def test_golden_vectors(self, app):
        golden = GOLDEN[app]
        features = kernel_features(benchmark_by_name(app).build_module())
        by_id = {lf.loop_id: lf for lf in features.loops}
        lf = by_id[golden["loop_id"]]
        assert len(lf.vector) == len(LOOP_FEATURE_SPECS)
        assert list(lf.vector) == pytest.approx(golden["loop"], abs=1e-6)
        assert list(features.vector) == pytest.approx(golden["kernel"],
                                                      abs=1e-6)
        assert len(combined_vector(features, lf)) == len(COMBINED_SCALES)

    def test_deterministic_across_rebuilds(self):
        bench = benchmark_by_name("mandelbrot")
        a = kernel_features(bench.build_module())
        b = kernel_features(bench.build_module())
        assert a.vector == b.vector
        assert tuple(lf.vector for lf in a.loops) == \
            tuple(lf.vector for lf in b.loops)

    @pytest.mark.parametrize("engine", ["warp", "batched", "jit"],
                             indirect=True)
    def test_invariant_under_engine(self, engine):
        # Extraction is static, but this pins the operational claim:
        # running the app under any engine leaves the vectors extracted
        # before and after bit-identical.
        bench = benchmark_by_name("haccmk")
        before = kernel_features(bench.build_module())
        module = bench.build_module()
        compile_module(module, "baseline")
        bench.run(module, engine=engine)
        after = kernel_features(bench.build_module())
        assert before.vector == after.vector
        assert tuple(lf.vector for lf in before.loops) == \
            tuple(lf.vector for lf in after.loops)

    def test_invariant_under_region_cache_state(self):
        # (No region store is left; what a second pass finds warm is the
        # process's jit state, the fuser's code-object memo.)
        bench = benchmark_by_name("haccmk")
        vectors = []
        for _ in range(2):
            runner = ExperimentRunner()
            runner.baseline(bench)
            kf = kernel_features(bench.build_module())
            vectors.append((kf.vector,
                            tuple(lf.vector for lf in kf.loops)))
        assert vectors[0] == vectors[1]

    def test_tid_branch_flags_exactly_complex(self):
        flagged = sorted(
            lf.loop_id
            for bench in all_benchmarks()
            for lf in kernel_features(bench.build_module()).loops
            if lf.tid_branch)
        assert flagged == ["complex_pow:0"]

    def test_distance_arity_mismatch_rejected(self):
        ok = tuple(0.0 for _ in COMBINED_SCALES)
        with pytest.raises(ValueError):
            distance(ok[:-1], ok[:-1])
        with pytest.raises(ValueError):
            distance(ok, ok[:-1])
        assert distance(ok, ok) == 0.0


# -- index -------------------------------------------------------------------

class TestSimilarityIndex:
    def test_builds_from_committed_tuned(self, tuned_index):
        index, report = tuned_index
        assert not report["skipped"]
        assert report["entries"] == len(report["added"])
        for app in ("mandelbrot", "complex", "bspline-vgh"):
            assert app in report["added"]

    def test_rebuild_is_idempotent(self, tuned_index):
        index, report = tuned_index
        files = sorted(p.name for p in index.entries())
        again = build_index(index=index)
        assert again["added"] == report["added"]
        assert sorted(p.name for p in index.entries()) == files

    def test_entries_round_trip(self, tuned_index):
        index, report = tuned_index
        entries = index.load_entries()
        assert [str(e["app"]) for e in entries] == \
            sorted(str(e["app"]) for e in entries)
        for entry in entries:
            assert entry["schema"] == {
                "feature": FEATURE_SCHEMA_VERSION,
                "timing": index.stats()["schema"]["timing"],
                "tune": index.stats()["schema"]["tune"],
            }
            assert len(entry["kernel_vector"]) == len(KERNEL_FEATURE_SPECS)
            for loop in entry["loops"]:
                assert len(loop["vector"]) == len(LOOP_FEATURE_SPECS)
                assert loop["factor"] >= 1

    def test_stale_schema_entry_deleted_as_miss(self, tmp_path):
        index = SimilarityIndex(tmp_path)
        build_index(benches=[benchmark_by_name("haccmk")], index=index)
        (path,) = index.entries()
        entry = json.loads(path.read_text())
        entry["schema"]["feature"] = FEATURE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        misses = index.misses
        assert index.get_entry(path.stem) is None
        assert not path.exists()
        assert index.misses == misses + 1
        assert index.load_entries() == []

    def test_corrupt_entry_deleted_as_miss(self, tmp_path):
        index = SimilarityIndex(tmp_path)
        build_index(benches=[benchmark_by_name("haccmk")], index=index)
        (path,) = index.entries()
        path.write_text("{not json")
        assert index.get_entry(path.stem) is None
        assert not path.exists()

    def test_stats_shape(self, tuned_index):
        index, _ = tuned_index
        stats = index.stats()
        assert stats["entries"] > 0
        assert stats["bytes"] > 0
        assert stats["tmp_files"] == 0
        assert set(stats["schema"]) == {"feature", "timing", "tune"}


# -- prediction --------------------------------------------------------------

class TestPredict:
    def test_leave_one_out_prediction_well_formed(self, tuned_index):
        index, _ = tuned_index
        bench = benchmark_by_name("mandelbrot")
        prediction = predict_bench(bench, index, emit=False)
        assert isinstance(prediction, Prediction)
        assert not prediction.fallback
        assert prediction.app == "mandelbrot"
        assert [lp.loop_id for lp in prediction.loops] == \
            sorted(lp.loop_id for lp in prediction.loops)
        for lp in prediction.loops:
            # exclude_self (the default) keeps the app's own entries out.
            assert all(v.app != "mandelbrot" for v in lp.neighbors)
            assert lp.source in ("transfer", "heuristic", "infeasible",
                                 "divergence-clamped", "inner-selected")
        for decision in prediction.decisions:
            assert decision.factor >= 1

    def test_prediction_is_deterministic(self, tuned_index):
        index, _ = tuned_index
        bench = benchmark_by_name("bspline-vgh")
        a = predict_bench(bench, index, emit=False)
        b = predict_bench(bench, index, emit=False)
        assert fingerprint(a.decisions) == fingerprint(b.decisions)
        assert a.loops == b.loops

    def test_divergence_clamp_on_complex(self, tuned_index):
        # The paper's worst case: complex's in-body branch is a pure
        # data-flow function of the thread id, so a transferred unroll
        # factor is clamped to 1 while the voted unmerge is kept —
        # complex's own empirical optimum (u=1 + unmerge).
        index, _ = tuned_index
        prediction = predict_bench(benchmark_by_name("complex"), index,
                                   emit=False)
        (lp,) = [p for p in prediction.loops
                 if p.loop_id == "complex_pow:0"]
        assert lp.source == "divergence-clamped"
        assert lp.factor == 1
        assert lp.unmerge is True

    def test_empty_index_falls_back_with_missed_remark(self, tmp_path):
        session = obs.install()
        prediction = predict_bench(benchmark_by_name("haccmk"),
                                   SimilarityIndex(tmp_path))
        assert prediction.fallback
        assert prediction.decisions == ()
        missed = [r for r in session.remarks if r.kind == "missed"]
        assert any(r.pass_name == "predict" and
                   r.args.get("reason") == "empty-index" for r in missed)

    def test_fingerprint_fallback_sentinel(self):
        assert fingerprint(None) == "fallback"


# -- harness integration -----------------------------------------------------

class TestPredictedPipeline:
    def test_cells_identical_across_worker_counts(self, tuned_index,
                                                  tmp_path):
        index, _ = tuned_index
        bench = benchmark_by_name("haccmk")
        observed = []
        for jobs in (1, 2):
            runner = ExperimentRunner(
                jobs=jobs, cache=CellCache(tmp_path / f"cache{jobs}"),
                sim_index_dir=index.root)
            cells = runner.prefetch([bench],
                                    configs=("baseline", "predicted"))
            observed.append((
                [(c.config, c.cycles, c.code_size) for c in cells],
                fingerprint(runner.resolve_plan(bench, "predicted",
                                                emit=False))))
        assert observed[0] == observed[1]
        assert observed[0][1] != "fallback"

    def test_empty_index_predicted_equals_heuristic(self, tmp_path):
        runner = ExperimentRunner(sim_index_dir=tmp_path)
        bench = benchmark_by_name("haccmk")
        with pytest.warns(RuntimeWarning):
            predicted = runner.cell(bench, "predicted")
        heuristic = runner.heuristic_cell(bench)
        assert predicted.cycles == heuristic.cycles
        assert predicted.code_size == heuristic.code_size

    def test_ptx_predicted_compiles_the_predicted_plan(self, tuned_index,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        """`repro ptx --config predicted` means predicted, not heuristic."""
        from repro.cli import main
        from repro.codegen import lower_function, render
        from repro.transforms.pipeline import compile_module

        def ptx(config, index_dir):
            monkeypatch.setenv("REPRO_SIMINDEX_DIR", str(index_dir))
            assert main(["ptx", "--app", "bezier-surface",
                         "--config", config]) == 0
            return capsys.readouterr()

        index, _ = tuned_index
        bench = benchmark_by_name("bezier-surface")
        prediction = predict_bench(bench, index, emit=False)
        assert prediction.decisions and not prediction.fallback
        module = bench.build_module()
        compile_module(module, "predicted", max_instructions=8_000,
                       plan=prediction.decisions)
        direct = "".join(render(lower_function(f)) + "\n\n"
                         for f in module.functions.values())
        predicted = ptx("predicted", index.root)
        assert predicted.out == direct and predicted.err == ""
        heuristic = ptx("uu_heuristic", index.root)
        assert predicted.out != heuristic.out

        # No evidence: the heuristic's code, and the fallback said aloud.
        empty = ptx("predicted", tmp_path)
        assert empty.out == heuristic.out
        assert empty.err == ("note: bezier-surface: no usable "
                             "similarity-index evidence; falling back to "
                             "the static heuristic\n")

    def test_tuned_fallback_emits_missed_remark(self, tmp_path):
        # Satellite: a tuned replay that cannot resolve its decisions
        # surfaces a typed `missed` remark with the staleness reason.
        session = obs.install()
        runner = ExperimentRunner(tuned_dir=tmp_path)
        bench = benchmark_by_name("haccmk")
        with pytest.warns(RuntimeWarning):
            runner.cell(bench, "tuned")
        missed = [r for r in session.remarks
                  if r.kind == "missed" and r.pass_name == "tuned-uu"]
        assert missed
        assert missed[0].args.get("reason")


# -- serve-daemon similarity plane -------------------------------------------

class TestServeSimilarity:
    def test_ir_submission_resolves_predicted_against_the_index(
            self, tmp_path):
        """``predicted`` on a bare module is a real prediction (or an
        announced fallback), not a silent heuristic compile."""
        from repro.directive import LoopDirective
        from repro.ir.parser import parse_module
        from repro.serve import OptimizeRequest, execute_request
        from repro.similarity.predict import predict_module
        from repro.tune.store import TunedConfig

        text = (Path(__file__).parent / "corpus"
                / "phi_parallel_copy.ll").read_text()
        # A one-entry index whose donor is this very kernel, tuned to
        # something the heuristic (u'=5 here) would not pick.
        index = SimilarityIndex(tmp_path / "index")
        index.add_tuned(parse_module(text, "donor"), TunedConfig(
            app="donor", decisions=[LoopDirective("fuzz80:0", 2, True)],
            source="per_loop", baseline_cycles=2.0, heuristic_cycles=2.0,
            tuned_cycles=1.0))
        expected = predict_module(parse_module(text, "submission"),
                                  index.load_entries())
        # (Unmerge survives; the factor is divergence-clamped to 1.)
        assert expected.decisions == (LoopDirective("fuzz80:0", 1, True),)
        request = OptimizeRequest(ir=text, config="predicted", lanes=4)

        result = execute_request(
            request, runner=ExperimentRunner(sim_index_dir=index.root))
        assert result.status == "ok", result.error
        assert [(d["loop_id"], d["factor"], d["reason"], d["applied"])
                for d in result.decisions] == \
            [("fuzz80:0", 1, "unmerge", True)]
        assert not any(r["kind"] == "missed" and r["pass"] == "predict"
                       for r in result.remarks)
        heuristic = execute_request(
            OptimizeRequest(ir=text, config="uu_heuristic", lanes=4))
        assert result.optimized_ir != heuristic.optimized_ir

        with pytest.warns(RuntimeWarning, match="similarity-index"):
            fallback = execute_request(request, runner=ExperimentRunner(
                sim_index_dir=tmp_path / "empty"))
        assert fallback.optimized_ir == heuristic.optimized_ir
        assert any(r["kind"] == "missed" and r["pass"] == "predict"
                   and r["args"]["reason"] == "empty-index"
                   for r in fallback.remarks)

    def test_refinement_counters_and_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIMINDEX_DIR", str(tmp_path))
        daemon = ServeDaemon(workers=1, use_cache=False)

        def fake_refine(app, sim_index_dir=None):
            if app == "complex":
                raise RuntimeError("boom")
            return {"status": "ok", "app": app, "indexed": True,
                    "entry_key": "k", "source": "refined",
                    "tuned_cycles": 1}

        daemon.refine_fn = fake_refine
        daemon.start()
        try:
            job, deduped = daemon.submit_refinement("haccmk")
            assert not deduped
            finished = daemon.queue.wait(job.id, timeout=10.0)
            assert finished is not None and finished.done_event.is_set()
            assert finished.result["status"] == "ok"

            # A second predicted submission dedups on refine:<app>.
            again, deduped_again = daemon.submit_refinement("haccmk")
            assert deduped_again and again.id == job.id

            bad, _ = daemon.submit_refinement("complex")
            daemon.queue.wait(bad.id, timeout=10.0)

            stats = daemon.stats()
            similarity = stats["similarity"]
            assert similarity["refinements_submitted"] == 2
            assert similarity["refinements_completed"] == 1
            assert similarity["refinements_failed"] == 1
            assert similarity["refinements_pending"] == 0
            assert similarity["predictions_served"] == 0
            assert similarity["index"]["entries"] == 0
            assert similarity["index"]["root"] == str(tmp_path)
        finally:
            daemon.shutdown()
