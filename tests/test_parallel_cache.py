"""Unit tests for the parallel sweep engine and the persistent cell cache."""

import json

import numpy as np
import pytest

from repro.bench import benchmark_by_name
from repro.gpu.counters import Counters
from repro.harness.cache import (SCHEMA_VERSION, CellCache, cell_from_json,
                                 cell_to_json, outputs_from_json,
                                 outputs_to_json)
from repro.harness.experiment import Cell, ExperimentRunner
from repro.harness.parallel import (CellSpec, ParallelRunner, resolve_jobs,
                                    sweep_specs)
from repro.transforms.heuristic import HeuristicParams


def make_cell(**overrides):
    kwargs = dict(app="demo", config="uu", loop_id="k/L0", factor=2,
                  cycles=1234.5, code_size=77, compile_seconds=0.25,
                  counters=Counters(cycles=1234.5, inst_executed=42),
                  outputs_match_baseline=True)
    kwargs.update(overrides)
    return Cell(**kwargs)


# -- Cell.speedup_over guards -------------------------------------------------

def test_speedup_timed_out_cell_is_zero():
    base = make_cell(config="baseline", cycles=1000.0)
    timed = make_cell(cycles=float("inf"), timed_out=True)
    assert timed.speedup_over(base) == 0.0
    # A timed-out *baseline* equally invalidates the ratio.
    assert make_cell(cycles=500.0).speedup_over(
        make_cell(config="baseline", cycles=float("inf"),
                  timed_out=True)) == 0.0


def test_speedup_nonfinite_or_zero_cycles_is_zero():
    base = make_cell(config="baseline", cycles=1000.0)
    assert make_cell(cycles=float("inf")).speedup_over(base) == 0.0
    assert make_cell(cycles=0.0).speedup_over(base) == 0.0
    assert make_cell(cycles=500.0).speedup_over(base) == 2.0


# -- cache round-trips --------------------------------------------------------

def test_cell_json_round_trip():
    cell = make_cell(error="boom", timed_out=True, cycles=float("inf"))
    back = cell_from_json(json.loads(json.dumps(cell_to_json(cell))))
    assert back == cell


def test_outputs_round_trip():
    outputs = {"a": np.arange(7, dtype=np.float64),
               "b": np.arange(6, dtype=np.int32).reshape(2, 3)}
    back = outputs_from_json(json.loads(json.dumps(outputs_to_json(outputs))))
    assert set(back) == {"a", "b"}
    for name in outputs:
        assert back[name].dtype == outputs[name].dtype
        assert np.array_equal(back[name], outputs[name])


def test_cache_put_get(tmp_path):
    cache = CellCache(tmp_path)
    key = "k" * 64
    outputs = {"out": np.linspace(0.0, 1.0, 5)}
    cache.put(key, make_cell(), outputs)
    entry = cache.get(key)
    assert entry is not None
    cell, loaded = entry
    assert cell == make_cell()
    assert np.array_equal(loaded["out"], outputs["out"])
    assert cache.get("m" * 64) is None
    assert cache.stats()["entries"] == 1


def test_cache_corrupted_entry_discarded(tmp_path):
    cache = CellCache(tmp_path)
    key = "c" * 64
    cache.put(key, make_cell())
    path = cache._path(key)

    path.write_text("{ not json")
    assert cache.get(key) is None
    assert not path.exists()          # Dropped, not left to fail again.

    cache.put(key, make_cell())
    truncated = path.read_text()[: len(path.read_text()) // 2]
    path.write_text(truncated)
    assert cache.get(key) is None

    # After discarding, a fresh put works again.
    cache.put(key, make_cell())
    assert cache.get(key) is not None


def test_cache_stale_schema_discarded(tmp_path):
    cache = CellCache(tmp_path)
    key = "s" * 64
    cache.put(key, make_cell())
    path = cache._path(key)
    data = json.loads(path.read_text())
    data["schema"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(data))
    assert cache.get(key) is None
    assert not path.exists()


def test_cache_clear(tmp_path):
    cache = CellCache(tmp_path)
    cache.put("a" * 64, make_cell())
    cache.put("b" * 64, make_cell())
    assert cache.clear() == 2
    assert cache.entries() == []
    # Emptied shard subdirectories are removed too.
    assert list(tmp_path.iterdir()) == []


# -- sharded layout -----------------------------------------------------------

def test_cache_entries_shard_by_key_prefix(tmp_path):
    cache = CellCache(tmp_path)
    key = "ab" + "0" * 62
    cache.put(key, make_cell())
    assert cache._path(key) == tmp_path / "ab" / f"{key}.json"
    assert cache._path(key).exists()
    assert cache.get(key) is not None
    assert cache.stats()["entries"] == 1


def test_cache_tune_entries_share_shard_with_plain(tmp_path):
    # The shard comes from the key, not the filename, so a tune- entry for
    # key "ab…" lives in the same subdirectory as the plain entry.
    plain = CellCache(tmp_path)
    tuner = CellCache(tmp_path, prefix="tune-")
    key = "ab" + "1" * 62
    plain.put(key, make_cell())
    tuner.put(key, make_cell(config="tuned"))
    assert plain._path(key).parent == tuner._path(key).parent
    # Prefixes still partition the namespace.
    assert plain.get(key)[0].config == "uu"
    assert tuner.get(key)[0].config == "tuned"
    stats = plain.stats()
    assert stats["entries"] == 2 and stats["tune_entries"] == 1


# -- cache keys ---------------------------------------------------------------

def _key(heuristic, **overrides):
    kwargs = dict(baseline_ir="define @k { ... }", workload="w",
                  config="uu_heuristic", loop_id=None, factor=1,
                  heuristic=heuristic, max_instructions=8000,
                  compile_timeout=20.0, verify_each=False)
    kwargs.update(overrides)
    return CellCache.make_key(**kwargs)


def test_key_changes_with_heuristic_params():
    default = HeuristicParams()
    assert _key(default) == _key(HeuristicParams())
    tweaked = HeuristicParams(c=default.c + 1)
    assert _key(default) != _key(tweaked)


def test_key_changes_with_ir_and_config():
    h = HeuristicParams()
    assert _key(h) != _key(h, baseline_ir="define @k { ret }")
    assert _key(h) != _key(h, config="uu", loop_id="k/L0", factor=2)
    assert _key(h) != _key(h, max_instructions=9000)


# -- spec enumeration and jobs resolution -------------------------------------

def test_sweep_specs_cover_full_sweep():
    bench = benchmark_by_name("coordinates")
    specs = sweep_specs(bench)
    assert specs[0] == CellSpec("coordinates", "baseline", None, 1)
    assert len(specs) == len(set(specs))
    loops = bench.loop_ids()
    # baseline + heuristic + unmerge per loop + {uu,unroll} x loops x 3.
    assert len(specs) == 2 + len(loops) + 2 * len(loops) * 3
    assert CellSpec("coordinates", "uu_heuristic", None, 1) in specs


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2
    monkeypatch.setenv("REPRO_JOBS", "nope")
    assert resolve_jobs() >= 1


# -- end-to-end: parallel + cached == serial ---------------------------------

def _cell_tuple(cell):
    import dataclasses
    return (cell.app, cell.config, cell.loop_id, cell.factor, cell.cycles,
            cell.code_size, cell.outputs_match_baseline, cell.timed_out,
            tuple(getattr(cell.counters, f.name)
                  for f in dataclasses.fields(Counters)))


def test_parallel_runner_matches_serial_and_persists(tmp_path):
    bench = benchmark_by_name("coordinates")
    serial = ExperimentRunner()
    expected = [_cell_tuple(serial.cell(bench, "baseline")),
                _cell_tuple(serial.cell(bench, "uu_heuristic"))]

    cache = CellCache(tmp_path)
    cold = ParallelRunner(jobs=2, cache=cache)
    got = cold.prefetch([bench], configs=("baseline", "uu_heuristic"))
    assert [_cell_tuple(c) for c in got] == expected
    assert cache.stats()["entries"] == 2

    warm = ParallelRunner(jobs=2, cache=CellCache(tmp_path))
    rerun = warm.prefetch([bench], configs=("baseline", "uu_heuristic"))
    assert [_cell_tuple(c) for c in rerun] == expected
    assert warm.cache.hits == 2
    # Warm single-cell access also hits the persistent layer.
    assert _cell_tuple(warm.heuristic_cell(bench)) == expected[1]


def test_parallel_runner_isolates_worker_failure(tmp_path, monkeypatch):
    bench = benchmark_by_name("coordinates")
    runner = ParallelRunner(jobs=2, cache=CellCache(tmp_path))
    specs = [CellSpec("coordinates", "baseline", None, 1),
             CellSpec("no-such-app", "baseline", None, 1),
             CellSpec("no-such-app", "uu", "k/L0", 2)]
    cells = runner.prefetch([bench], specs=specs)
    assert cells[0].error is None
    assert cells[1].error is not None and "no-such-app" in cells[1].error
    # Dependent cell is failed too, not computed against nothing.
    assert cells[2].error is not None
    # Failed cells never pollute the persistent cache.
    assert runner.cache.stats()["entries"] == 1
    assert cells[1].speedup_over(cells[0]) == 0.0
