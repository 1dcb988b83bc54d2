"""The runner's memo of baseline-compiled functions.

A cell with an explicit plan recompiles only the functions its plan names;
every other function comes from :class:`ExperimentRunner`'s memo (compiled
and stored on a miss).  That is exact because the transform stage is a
no-op on a function no directive names.  These tests pin the contract:
the reuse changes no cycle, code size, output or printed function; a
timed-out compile is never stored; the verifier setting is part of the
key; nothing mutates an entry once stored; and Figure 6c's compile time
still counts the functions a cell reused.
"""

import numpy as np
import pytest

from repro.bench import benchmark_by_name
from repro.bench.base import Benchmark
from repro.harness.experiment import ExperimentRunner, sweep_specs
from repro.ir.printer import print_function
from repro.obs import metrics
from repro.transforms.pipeline import PER_LOOP_CONFIGS, compile_module


def _printed(module):
    return {name: print_function(func)
            for name, func in module.functions.items()}


@pytest.fixture
def runs(monkeypatch):
    """Every ``Benchmark.run`` made while the test runs: (printed
    functions, outputs, cycles)."""
    seen = []
    real = Benchmark.run

    def run(self, module, *args, **kwargs):
        outputs, counters = real(self, module, *args, **kwargs)
        seen.append((_printed(module), outputs, counters.cycles))
        return outputs, counters

    monkeypatch.setattr(Benchmark, "run", run)
    return seen


def _memo_counts(registry):
    return {result: int(registry.value("repro_compile_memo_total",
                                       result=result))
            for result in ("hit", "miss")}


@pytest.mark.parametrize("app", ["XSBench", "bezier-surface", "bn"])
def test_per_loop_cells_equal_a_whole_module_compile(app, runs):
    bench = benchmark_by_name(app)
    runner = ExperimentRunner()
    registry = metrics.install()
    try:
        for spec in sweep_specs(bench, configs=PER_LOOP_CONFIGS,
                                factors=(2,)):
            cell = runner.cell(bench, spec.config, spec.loop_id, spec.factor)
            printed, outputs, _ = runs[-1]
            module = bench.build_module()
            compiled = compile_module(module, spec.config,
                                      loop_id=spec.loop_id,
                                      factor=spec.factor)
            expected, counters = bench.run(module)
            assert (cell.cycles, cell.code_size) == \
                (counters.cycles, compiled.code_size), spec
            assert cell.outputs_match_baseline, spec
            assert printed == _printed(module), spec
            assert outputs.keys() == expected.keys()
            for name in expected:
                assert np.array_equal(outputs[name], expected[name]), spec
    finally:
        metrics.uninstall()
    # Each function missed once (the baseline cell) and every function a
    # per-loop cell's plan does not name was reused.
    counts = _memo_counts(registry)
    assert counts["miss"] == len(bench.build_module().functions)
    assert counts["hit"] > 0


def test_a_timed_out_cell_leaves_no_entry():
    # grid_search comes first, and neither plan names it: the budget runs
    # out while it compiles to be stored.
    bench = benchmark_by_name("XSBench")
    runner = ExperimentRunner(compile_timeout=0.0)
    for config, loop_id in (("baseline", None), ("uu", "xs_lookup:0")):
        cell = runner.cell(bench, config, loop_id, 2 if loop_id else 1)
        assert cell.timed_out, config
    assert runner._functions == {}


def test_verify_each_is_never_served_an_unverified_entry(monkeypatch):
    from repro.transforms import pass_manager

    bench = benchmark_by_name("XSBench")
    runner = ExperimentRunner()
    runner.baseline(bench)
    unverified = dict(runner._functions)
    assert {key[-1] for key in unverified} == {False}

    verified = []
    real = pass_manager.verify_function

    def verify(func):
        verified.append(func.name)
        return real(func)

    monkeypatch.setattr(pass_manager, "verify_function", verify)
    runner.verify_each = True
    registry = metrics.install()
    try:
        cell = runner.cell(bench, "uu", "grid_search:0", 2)
    finally:
        metrics.uninstall()
    assert cell.error is None and cell.outputs_match_baseline
    # xs_lookup, which the plan does not name, compiled again — under the
    # verifier — instead of coming from the unverified entry.
    assert _memo_counts(registry) == {"hit": 0, "miss": 1}
    assert "xs_lookup" in verified
    fresh = {key: entry for key, entry in runner._functions.items()
             if key[-1] is True}
    assert [key[1] for key in fresh] == ["xs_lookup"]
    (entry,) = fresh.values()
    assert all(entry.function is not old.function
               for old in unverified.values())


def test_an_entry_prints_the_same_after_its_apps_whole_sweep():
    bench = benchmark_by_name("bezier-surface")
    runner = ExperimentRunner()
    runner.baseline(bench)
    before = {key: print_function(entry.function)
              for key, entry in runner._functions.items()}
    assert len(before) == 2
    cells = runner.prefetch([bench])
    assert all(c.error is None and c.outputs_match_baseline for c in cells)
    assert {key: print_function(entry.function)
            for key, entry in runner._functions.items()} == before


def test_compile_seconds_count_the_reused_functions():
    bench = benchmark_by_name("XSBench")
    runner = ExperimentRunner()
    runner.baseline(bench)
    (reused,) = [entry for key, entry in runner._functions.items()
                 if key[1] == "xs_lookup"]
    spent = runner.phase_seconds["compile"]
    cell = runner.cell(bench, "uu", "grid_search:0", 2)
    spent = runner.phase_seconds["compile"] - spent
    assert reused.seconds > 0
    # The cell compiled grid_search only: its seconds are that compile
    # plus xs_lookup's recorded ones, of which none was spent again.
    assert cell.compile_seconds > reused.seconds
    assert cell.compile_seconds == pytest.approx(reused.seconds + spent,
                                                 abs=1e-3)
