"""Parallel + cached sweeps must be bit-identical to serial sweeps.

The parallel engine is pure plumbing: workers run the very same
``ExperimentRunner._run`` on the very same inputs, and the persistent
cache stores exactly what was computed.  These tests pin that down for
three applications (compute-bound, divergence-bound, and memory-bound
representatives): every metric of every cell — cycles, code size, and
every hardware counter — must match the serial runner exactly, cold and
warm.
"""

import dataclasses

import pytest

from repro.bench import benchmark_by_name
from repro.gpu.counters import Counters
from repro.harness import CellCache, ExperimentRunner
from repro.transforms.pass_manager import COMPILE_TIMEOUT
from repro.transforms.unmerge import MAX_INSTRUCTIONS

APPS = ("complex", "coordinates", "XSBench")


def sweep_signature(sweep):
    """Every observable metric of every cell, in deterministic order."""
    rows = []
    for config in sorted(sweep):
        for cell in sweep[config]:
            rows.append((
                cell.app, cell.config, cell.loop_id, cell.factor,
                cell.cycles, cell.code_size, cell.outputs_match_baseline,
                cell.timed_out, cell.error,
                tuple(getattr(cell.counters, f.name)
                      for f in dataclasses.fields(Counters)),
            ))
    return rows


@pytest.fixture(scope="module")
def serial_sweeps():
    runner = ExperimentRunner(max_instructions=MAX_INSTRUCTIONS,
                              compile_timeout=COMPILE_TIMEOUT)
    return {app: sweep_signature(runner.full_sweep(benchmark_by_name(app)))
            for app in APPS}


def test_parallel_cold_matches_serial(serial_sweeps, tmp_path_factory):
    cache = CellCache(tmp_path_factory.mktemp("cellcache"))
    runner = ExperimentRunner(max_instructions=MAX_INSTRUCTIONS,
                              compile_timeout=COMPILE_TIMEOUT,
                              jobs=2, cache=cache)
    for app in APPS:
        sweep = runner.full_sweep(benchmark_by_name(app))
        assert sweep_signature(sweep) == serial_sweeps[app], app
    assert cache.stats()["entries"] > 0

    # A second runner over the same cache must reproduce everything from
    # disk alone — bit-identical again, with zero recomputation.
    warm = ExperimentRunner(max_instructions=MAX_INSTRUCTIONS,
                            compile_timeout=COMPILE_TIMEOUT,
                            jobs=2, cache=CellCache(cache.root))
    for app in APPS:
        sweep = warm.full_sweep(benchmark_by_name(app))
        assert sweep_signature(sweep) == serial_sweeps[app], app
    assert warm.cache.misses == 0


def test_serial_jobs1_path_matches_serial(serial_sweeps, tmp_path_factory):
    # The default jobs=1 computes in process (no pool), here writing
    # through a cache; must agree as well.
    runner = ExperimentRunner(max_instructions=MAX_INSTRUCTIONS,
                              compile_timeout=COMPILE_TIMEOUT,
                              cache=CellCache(tmp_path_factory.mktemp("cc")))
    app = APPS[0]
    sweep = runner.full_sweep(benchmark_by_name(app))
    assert sweep_signature(sweep) == serial_sweeps[app]
