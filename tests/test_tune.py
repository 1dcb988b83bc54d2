"""Tests for the empirical per-loop autotuner (``repro.tune``).

Covers the search-space units, the persisted-config store (staleness,
canonical bytes), the determinism contract (``-j1`` vs ``-jN`` and cold
vs cache-warm runs produce byte-identical tuned files), the ``tuned``
pipeline end-to-end on both execution engines, and the graceful
heuristic fallback when no usable tuned file exists.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.loops import LoopInfo
from repro.bench import benchmark_by_name
from repro.bench.base import scale_geometry
from repro.directive import LoopDirective, fingerprint
from repro.gpu.timing import TIMING_MODEL_VERSION
from repro.harness.cache import TUNE_PREFIX, CellCache
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import ParallelRunner
from repro.ir.printer import print_module
from repro.transforms.heuristic import HeuristicParams
from repro.transforms.pass_manager import PassManager
from repro.transforms.pipeline import transform_passes
from repro.transforms.simplifycfg import SimplifyCFG
from repro.transforms.uu import apply_uu
from repro.tune import (TuneParams, enumerate_candidates, loop_facts,
                        tune_benchmark)
from repro.tune.search import (_compose_per_loop, _heuristic_decisions,
                               _verify_winner)
from repro.tune.space import LoopFacts, predicted_size
from repro.tune.store import (TUNE_SCHEMA_VERSION, TunedConfig, load_tuned,
                              resolve_decisions, save_tuned, tuned_path)

#: Small, fast benchmarks used for the simulation-backed tests.
FAST_BENCH = "bspline-vgh"      # one loop — the cheapest full search
E2E_BENCHES = ("bspline-vgh", "complex", "coordinates")


# -- search space ------------------------------------------------------------

class TestSpace:
    def test_enumeration_excludes_identity(self):
        facts = [LoopFacts("f:0", paths=2, size=10, descendants=())]
        admitted, pruned = enumerate_candidates(facts, TuneParams(u_max=4))
        keys = [c.key for c in admitted]
        assert "f:0|u=1|unmerge=off" not in keys
        # u in 1..4, unmerge on/off, minus the identity point.
        assert len(admitted) + len(pruned) == 2 * 4 - 1

    def test_enumeration_order_is_canonical(self):
        facts = [LoopFacts("f:0", paths=2, size=4, descendants=()),
                 LoopFacts("f:1", paths=2, size=4, descendants=())]
        admitted, _ = enumerate_candidates(
            facts, TuneParams(u_max=2, size_cap=10**9))
        assert [c.key for c in admitted] == [
            "f:0|u=1|unmerge=on",
            "f:0|u=2|unmerge=on", "f:0|u=2|unmerge=off",
            "f:1|u=1|unmerge=on",
            "f:1|u=2|unmerge=on", "f:1|u=2|unmerge=off",
        ]

    def test_size_cap_prunes_with_predicted_size(self):
        # paths=4, size=100: unmerged size grows as sum(4^i)*100, so high
        # factors blow through a small cap while plain unrolling survives
        # longer (100 * u).
        facts = [LoopFacts("f:0", paths=4, size=100, descendants=())]
        params = TuneParams(u_max=8, size_cap=1000)
        admitted, pruned = enumerate_candidates(facts, params)
        assert pruned, "expected the cost model to prune something"
        for candidate, predicted in pruned:
            assert predicted > params.size_cap
            assert predicted == predicted_size(facts[0], candidate)
        for candidate in admitted:
            assert predicted_size(facts[0], candidate) <= params.size_cap

    def test_candidate_config_mapping(self):
        assert LoopDirective("f:0", 4, True).kind == "uu"
        assert LoopDirective("f:0", 1, True).kind == "unmerge"
        assert LoopDirective("f:0", 4, False).kind == "unroll"

    def test_loop_facts_cover_benchmark_loops(self):
        bench = benchmark_by_name("coordinates")
        facts = loop_facts(bench.build_module())
        assert sorted(f.loop_id for f in facts) == sorted(bench.loop_ids())


# -- composing per-loop winners ----------------------------------------------

class TestCompose:
    def test_nesting_rule_drops_outer_when_inner_won(self):
        facts = [LoopFacts("f:outer", 2, 10, descendants=("f:inner",)),
                 LoopFacts("f:inner", 2, 5, descendants=())]
        winners = {"f:outer": LoopDirective("f:outer", 2, True),
                   "f:inner": LoopDirective("f:inner", 4, True)}
        decisions = _compose_per_loop(facts, winners)
        assert [d.loop_id for d in decisions] == ["f:inner"]

    def test_outer_winner_kept_when_inner_lost(self):
        facts = [LoopFacts("f:outer", 2, 10, descendants=("f:inner",)),
                 LoopFacts("f:inner", 2, 5, descendants=())]
        winners = {"f:outer": LoopDirective("f:outer", 2, True)}
        decisions = _compose_per_loop(facts, winners)
        assert [d.loop_id for d in decisions] == ["f:outer"]

    def test_decisions_key_is_order_independent_canonical(self):
        a = [LoopDirective("f:0", 2, True),
             LoopDirective("f:1", 4, False)]
        assert fingerprint(a) == fingerprint(tuple(a))
        assert fingerprint(a) != fingerprint(a[:1])


# -- persisted store ---------------------------------------------------------

def _config(app="bspline-vgh"):
    return TunedConfig(
        app=app,
        decisions=[LoopDirective("bspline_vgh:0", 2, True)],
        source="per_loop", baseline_cycles=100.0, heuristic_cycles=90.0,
        tuned_cycles=80.0)


class TestStore:
    def test_roundtrip(self, tmp_path):
        save_tuned(_config(), tmp_path)
        loaded, reason = load_tuned("bspline-vgh", tmp_path)
        assert reason == "ok"
        assert loaded.decisions == _config().decisions
        assert loaded.source == "per_loop"
        assert loaded.speedup_over_baseline == pytest.approx(1.25)
        assert loaded.speedup_over_heuristic == pytest.approx(1.125)

    def test_missing(self, tmp_path):
        config, reason = load_tuned("nope", tmp_path)
        assert config is None and reason == "missing"
        assert fingerprint(resolve_decisions("nope", tmp_path)[0]) == \
            "fallback"

    def test_stale_schema(self, tmp_path):
        path = save_tuned(_config(), tmp_path)
        data = json.loads(path.read_text())
        data["schema"] = TUNE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        config, reason = load_tuned("bspline-vgh", tmp_path)
        assert config is None and reason.startswith("stale-schema")

    def test_stale_timing(self, tmp_path):
        path = save_tuned(_config(), tmp_path)
        data = json.loads(path.read_text())
        data["timing"] = TIMING_MODEL_VERSION + "-older"
        path.write_text(json.dumps(data))
        config, reason = load_tuned("bspline-vgh", tmp_path)
        assert config is None and reason.startswith("stale-timing")

    def test_unverified_rejected(self, tmp_path):
        config = _config()
        config.verified = False
        save_tuned(config, tmp_path)
        loaded, reason = load_tuned("bspline-vgh", tmp_path)
        assert loaded is None and reason == "unverified"

    def test_corrupt(self, tmp_path):
        tuned_path("bspline-vgh", tmp_path).parent.mkdir(exist_ok=True,
                                                         parents=True)
        tuned_path("bspline-vgh", tmp_path).write_text("{not json")
        config, reason = load_tuned("bspline-vgh", tmp_path)
        assert config is None and reason == "corrupt"

    def test_canonical_bytes(self, tmp_path):
        path = save_tuned(_config(), tmp_path)
        first = path.read_bytes()
        save_tuned(_config(), tmp_path)
        assert path.read_bytes() == first

    def test_fingerprint_tracks_decisions(self, tmp_path):
        def stored():
            return fingerprint(resolve_decisions("bspline-vgh", tmp_path)[0])

        save_tuned(_config(), tmp_path)
        fp = stored()
        # The exact string is part of every tuned/predicted cache key.
        assert fp == ('[{"factor": 2, "loop_id": "bspline_vgh:0", '
                      '"unmerge": true}]')
        other = _config()
        other.decisions = [LoopDirective("bspline_vgh:0", 4, True)]
        save_tuned(other, tmp_path)
        assert stored() != fp


# -- workload scaling --------------------------------------------------------

class TestScaleGeometry:
    def test_identity(self):
        assert scale_geometry(4, 128, 1) == (4, 128)

    def test_drops_whole_blocks_first(self):
        assert scale_geometry(8, 128, 4) == (2, 128)

    def test_shrinks_in_whole_warps(self):
        assert scale_geometry(1, 128, 4) == (1, 32)

    def test_never_below_one_warp(self):
        assert scale_geometry(1, 64, 100) == (1, 32)


# -- cache key folding + tune-entry bookkeeping ------------------------------

class TestCacheTuneExtensions:
    BASE = dict(baseline_ir="ir", workload="w", config="uu",
                loop_id="f:0", factor=2, heuristic=HeuristicParams(),
                max_instructions=1000, compile_timeout=None,
                verify_each=False)

    def test_scale_one_matches_pre_tuner_key(self):
        assert CellCache.make_key(**self.BASE) == \
            CellCache.make_key(**self.BASE, scale=1)

    def test_scale_and_tuned_fold_into_key(self):
        base = CellCache.make_key(**self.BASE)
        assert CellCache.make_key(**self.BASE, scale=4) != base
        assert CellCache.make_key(**self.BASE, tuned="[]") != base
        assert CellCache.make_key(**self.BASE, tuned="[]") != \
            CellCache.make_key(**self.BASE, tuned="fallback")

    def test_stats_report_tuner_entries_separately(self, tmp_path):
        (tmp_path / "aa.json").write_text("{}")
        (tmp_path / f"{TUNE_PREFIX}bb.json").write_text('{"x": 1}')
        stats = CellCache(root=tmp_path).stats()
        assert stats["entries"] == 2
        assert stats["tune_entries"] == 1
        assert stats["tune_bytes"] == len('{"x": 1}')

    def test_prefix_separates_entries_on_disk(self, tmp_path):
        plain = CellCache(root=tmp_path)
        tuner = CellCache(root=tmp_path, prefix=TUNE_PREFIX)
        assert plain._path("k") != tuner._path("k")
        assert tuner._path("k").name.startswith(TUNE_PREFIX)


# -- the search itself (simulation-backed) -----------------------------------

def _tune(tmp, sub, jobs, budget=4, use_cache=True):
    bench = benchmark_by_name(FAST_BENCH)
    return tune_benchmark(
        bench, params=TuneParams(budget=budget),
        max_instructions=8_000, jobs=jobs,
        cache_root=tmp / sub / "cache", use_cache=use_cache,
        tuned_dir=tmp / sub / "tuned")


class TestSearch:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tune")
        result = _tune(tmp, "j1", jobs=1)
        return tmp, result

    def test_winner_persisted_and_verified(self, cold):
        _, result = cold
        assert result.verified and result.persisted
        assert result.path.is_file()
        assert result.candidates_truncated > 0  # budget 4 < 15 candidates

    def test_tuned_never_worse_than_heuristic_or_baseline(self, cold):
        _, result = cold
        c = result.config
        assert c.tuned_cycles <= c.heuristic_cycles
        assert c.tuned_cycles <= c.baseline_cycles

    def test_budget_caps_fresh_evaluations(self, cold):
        _, result = cold
        # budget 4 candidates + baselines + heuristic + combined round:
        # the point is that the cap bounds work, not the exact number.
        assert 0 < result.fresh_evaluations <= 4 * len(TuneParams().scales) \
            + len(TuneParams().budgets) + 8

    def test_uncached_search_counts_what_it_computed(self, cold):
        """Without a cell cache there are no misses to count: the count is
        the cells the search's runners computed, as many as a cold cache
        misses."""
        tmp, result = cold
        uncached = _tune(tmp, "nocache", jobs=1, use_cache=False)
        assert uncached.fresh_evaluations == result.fresh_evaluations > 0

    def test_warm_retune_is_free_and_byte_identical(self, cold):
        tmp, result = cold
        first = result.path.read_bytes()
        warm = _tune(tmp, "j1", jobs=1)
        assert warm.fresh_evaluations == 0
        assert warm.path.read_bytes() == first

    def test_parallel_search_is_byte_identical(self, cold):
        tmp, result = cold
        parallel = _tune(tmp, "j2", jobs=2)
        assert parallel.path.read_bytes() == result.path.read_bytes()

    def test_trials_audit_trail_recorded(self, cold):
        _, result = cold
        rounds = {t["round"] for t in result.config.trials}
        assert "screen-0" in rounds and "combined" in rounds
        combined = [t for t in result.config.trials
                    if t["round"] == "combined"]
        assert any(t["source"].startswith("heuristic:c=1024")
                   for t in combined)


# -- the tuned pipeline end-to-end -------------------------------------------

class TestTunedPipeline:
    def test_tuned_config_runs_bit_identically_on_both_engines(self,
                                                               tmp_path):
        for name in E2E_BENCHES:
            bench = benchmark_by_name(name)
            decisions = _heuristic_decisions(bench, HeuristicParams(),
                                             c=1024, u_max=8)
            if not decisions:  # ensure the transform actually fires
                decisions = [LoopDirective(bench.loop_ids()[0], 2, True)]
            save_tuned(TunedConfig(
                app=name, decisions=decisions, source="per_loop",
                baseline_cycles=1.0, heuristic_cycles=1.0,
                tuned_cycles=1.0), tmp_path)
            cells = {}
            for engine in ("jit", "warp"):
                runner = ExperimentRunner(max_instructions=20_000,
                                          engine=engine, tuned_dir=tmp_path)
                cell = runner.tuned_cell(bench)
                assert cell.error is None, (name, engine, cell.error)
                assert cell.outputs_match_baseline, (name, engine)
                cells[engine] = cell
            assert cells["jit"].cycles == cells["warp"].cycles, name
            assert cells["jit"].counters == cells["warp"].counters, name

    def test_tuned_decisions_are_replayed_not_recomputed(self, tmp_path):
        # A deliberately non-heuristic decision (plain unroll by 2, no
        # unmerge) must produce a cell distinct from the heuristic's.
        bench = benchmark_by_name(FAST_BENCH)
        save_tuned(TunedConfig(
            app=bench.name,
            decisions=[LoopDirective(bench.loop_ids()[0], 2, False)],
            source="per_loop", baseline_cycles=1.0, heuristic_cycles=1.0,
            tuned_cycles=1.0), tmp_path)
        runner = ExperimentRunner(max_instructions=20_000,
                                  tuned_dir=tmp_path)
        tuned = runner.tuned_cell(bench)
        heur = runner.heuristic_cell(bench)
        assert tuned.error is None and tuned.outputs_match_baseline
        assert tuned.code_size != heur.code_size

    @pytest.mark.parametrize("app,loop_id,kind,factor", [
        # u=1 + unmerge is the paper's single-loop unmerge: these two
        # loops have an inner loop the old whole-nest replay unmerged too.
        ("contract", "tensor_contract:0", "unmerge", 1),
        ("quicksort", "qs_insertion:0", "unmerge", 1),
        ("coordinates", "coord_convert:0", "unroll", 2),
        ("coordinates", "coord_convert:0", "uu", 2),
    ])
    def test_replay_is_what_the_tuner_measured(self, tmp_path, app, loop_id,
                                               kind, factor):
        """A candidate screened as a per-loop cell and the same decision
        replayed from a persisted ``tuned`` file enter the cleanup battery
        as the same module."""
        bench = benchmark_by_name(app)
        candidate = LoopDirective(loop_id, factor, kind != "unroll")
        assert candidate.kind == kind

        def entering_cleanup(config, **kwargs):
            module = bench.build_module()
            PassManager([SimplifyCFG()] + transform_passes(
                config, max_instructions=8_000, **kwargs)).run(module)
            return print_module(module)

        save_tuned(TunedConfig(
            app=app, decisions=[candidate], source="per_loop",
            baseline_cycles=1.0, heuristic_cycles=1.0, tuned_cycles=1.0),
            tmp_path)
        replayed = ExperimentRunner(tuned_dir=tmp_path).resolve_plan(
            bench, "tuned")
        assert replayed == [candidate]
        measured = entering_cleanup(kind, loop_id=loop_id, factor=factor)
        assert entering_cleanup("tuned", plan=replayed) == measured
        if kind == "unmerge":
            # What `tuned` used to replay u=1 through — apply_uu, which
            # unmerges the whole nest — is a different module here.
            module = bench.build_module()
            PassManager([SimplifyCFG()]).run(module)
            func = module.get_function(loop_id.split(":")[0])
            apply_uu(func, LoopInfo.compute(func).by_id(loop_id), 1,
                     max_instructions=8_000)
            assert print_module(module) != measured

    def test_oracle_accepts_heuristic_decision_set(self):
        bench = benchmark_by_name(FAST_BENCH)
        decisions = _heuristic_decisions(bench, HeuristicParams(),
                                         c=1024, u_max=8)
        ok, detail = _verify_winner(bench, decisions, ParallelRunner(
            max_instructions=20_000, verify_each=True, jobs=1,
            use_cache=False))
        assert ok, detail


# -- graceful fallback -------------------------------------------------------

class TestFallback:
    def test_missing_file_warns_and_uses_heuristic(self, tmp_path):
        bench = benchmark_by_name(FAST_BENCH)
        runner = ExperimentRunner(max_instructions=20_000,
                                  tuned_dir=tmp_path)
        with pytest.warns(RuntimeWarning,
                          match="no usable tuned config .*missing"):
            tuned = runner.tuned_cell(bench)
        heur = runner.heuristic_cell(bench)
        assert tuned.cycles == heur.cycles
        assert tuned.code_size == heur.code_size

    def test_stale_file_warns_with_reason(self, tmp_path):
        bench = benchmark_by_name(FAST_BENCH)
        path = save_tuned(_config(app=bench.name), tmp_path)
        data = json.loads(path.read_text())
        data["schema"] = TUNE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        runner = ExperimentRunner(max_instructions=20_000,
                                  tuned_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="stale-schema"):
            runner.tuned_cell(bench)

    def test_resolve_decisions_reports_reason(self, tmp_path):
        decisions, reason = resolve_decisions("bspline-vgh", tmp_path)
        assert decisions is None and reason == "missing"
        save_tuned(_config(), tmp_path)
        decisions, reason = resolve_decisions("bspline-vgh", tmp_path)
        assert reason == "ok" and len(decisions) == 1
