"""Launch replay: each launch simulated once per runner.

The simulator is deterministic, so a launch of the same code with the
same geometry and arguments on the same memory image always writes the
same bytes and counts the same counters.  A run the runner measures looks
every launch up in a :class:`LaunchTable` — by digest, confirmed by a
byte compare of the whole image — and a hit restores the recorded writes
instead of executing.  These tests pin the contract: cells equal runs
without a memo in outputs, every counter and code size; the replays
happen where expected; a launch that allocates is never recorded; a
digest collision cannot replay; geometry is part of the key; observing
sees the same profile; and ``-j1`` and ``-j2`` emit the same remarks.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.bench import benchmark_by_name
from repro.bench.base import Benchmark, LaunchTable, Launch, buf
from repro.gpu import SimtMachine
from repro.gpu.memory import Memory
from repro.harness.experiment import ExperimentRunner, sweep_specs
from repro.ir.parser import parse_module
from repro.obs import metrics
from repro.transforms.pipeline import PER_LOOP_CONFIGS, compile_module

APPS = ("XSBench", "bezier-surface", "complex", "bspline-vgh")


@pytest.fixture
def executed(monkeypatch):
    """The kernel name of every launch that executes."""
    seen = []
    real = SimtMachine.launch

    def launch(self, kernel, *args, **kwargs):
        seen.append(kernel if isinstance(kernel, str) else kernel.name)
        return real(self, kernel, *args, **kwargs)

    monkeypatch.setattr(SimtMachine, "launch", launch)
    return seen


@pytest.fixture
def measured(monkeypatch):
    """Outputs of every run that was given a launch memo."""
    seen = []
    real = Benchmark.run

    def run(self, module, *args, **kwargs):
        outputs, counters = real(self, module, *args, **kwargs)
        if kwargs.get("memo") is not None:
            seen.append(outputs)
        return outputs, counters

    monkeypatch.setattr(Benchmark, "run", run)
    return seen


def _assert_cells_exact(app, measured):
    bench = benchmark_by_name(app)
    runner = ExperimentRunner()
    for spec in sweep_specs(bench, configs=PER_LOOP_CONFIGS,
                            factors=(2, 4)):
        cell = runner.cell(bench, spec.config, spec.loop_id, spec.factor)
        outputs = measured[-1]
        module = bench.build_module()
        compiled = compile_module(module, spec.config, loop_id=spec.loop_id,
                                  factor=spec.factor)
        expected, counters = bench.run(module)
        assert cell.code_size == compiled.code_size, spec
        assert dataclasses.asdict(cell.counters) == \
            dataclasses.asdict(counters), spec
        assert outputs.keys() == expected.keys()
        for name in expected:
            assert np.array_equal(outputs[name], expected[name]), spec


@pytest.mark.parametrize("app", APPS)
def test_cells_equal_runs_without_a_memo(app, measured):
    _assert_cells_exact(app, measured)


@pytest.mark.parametrize("app", ["XSBench", "complex"])
def test_a_digest_collision_cannot_replay(app, measured, monkeypatch):
    """Every image digests alike: only the byte compare tells them apart."""
    monkeypatch.setattr(Memory, "digest", lambda self: b"")
    _assert_cells_exact(app, measured)


def test_a_digest_collision_cannot_replay_an_accumulation(monkeypatch):
    """complex's second launch would replay its first harmlessly (both
    write what they compute from a_re); an accumulating kernel would not."""
    monkeypatch.setattr(Memory, "digest", lambda self: b"")
    bench = _IrBench(ACCUMULATE, "bump", 3)
    outputs, _ = bench.run(bench.build_module(), memo={})
    assert list(outputs["out"]) == [3.0] * 32


def test_replays_where_the_images_repeat(executed):
    complex_ = benchmark_by_name("complex")
    runner = ExperimentRunner()
    registry = metrics.install()
    try:
        runner.baseline(complex_)
        # The raw anchor run executes all four launches, the measured one
        # two: launches 3 and 4 see launch 2's image again.
        assert len(executed) == 4 + 2
        for config, factor in (("unroll", 2), ("uu", 4), ("unmerge", 1)):
            executed.clear()
            runner.cell(complex_, config, "complex_pow:0", factor)
            assert len(executed) == 2, config
    finally:
        metrics.uninstall()
    assert registry.value("repro_launch_replay_total", result="hit") == 8
    assert registry.value("repro_launch_replay_total", result="miss") == 8

    xsbench = benchmark_by_name("XSBench")
    runner.baseline(xsbench)
    executed.clear()
    runner.cell(xsbench, "uu", "xs_lookup:0", 2)
    # grid_search comes from the compile memo and replays the baseline's.
    assert executed == ["xs_lookup"]


ACCUMULATE = """
define void @bump(f64* %out) {
entry:
  %tid = call i64 @tid.x()
  %slot = gep f64* %out, i64 %tid
  %v = load f64, f64* %slot
  %w = fadd f64 %v, 1.0
  store f64 %w, f64* %slot
  ret void
}
"""

ALLOCA = """
define void @scratch(f64* %out) {
entry:
  %tmp = alloca f64, 4
  %tid = call i64 @tid.x()
  %x = sitofp i64 %tid to f64
  store f64 %x, f64* %tmp
  %v = load f64, f64* %tmp
  %dst = gep f64* %out, i64 %tid
  store f64 %v, f64* %dst
  ret void
}
"""


class _IrBench(Benchmark):
    """One IR kernel launched ``times`` times on one zeroed buffer."""

    name = "ir"

    def __init__(self, text, kernel, times):
        self.text, self.kernel, self.times = text, kernel, times

    def build_module(self):
        return parse_module(self.text, self.kernel)

    def setup(self, mem, rng):
        return {"out": mem.alloc("out", "f64", 32)}

    def launches(self):
        return [Launch(self.kernel, 1, 32, [buf("out")])] * self.times

    def output_buffers(self):
        return ["out"]


def test_a_launch_that_allocates_is_never_recorded(executed):
    bench = _IrBench(ALLOCA, "scratch", 2)
    module = bench.build_module()
    memo = {"scratch": LaunchTable()}
    expected, _ = bench.run(module)
    executed.clear()
    for _ in range(2):
        outputs, _ = bench.run(module, memo=memo)
        assert np.array_equal(outputs["out"], expected["out"])
    assert len(executed) == 4


def test_geometry_is_part_of_the_key():
    """Two runs share a table at two scales: the first launch of each
    sees the same image and arguments, on a different geometry."""
    bench = benchmark_by_name("complex")
    module = bench.build_module()
    compile_module(module, "baseline")
    memo = {"complex_pow": LaunchTable()}
    for scale in (1, 4):
        expected, counters = bench.run(module, scale=scale)
        outputs, replayed = bench.run(module, scale=scale, memo=memo)
        assert dataclasses.asdict(replayed) == dataclasses.asdict(counters)
        assert np.array_equal(outputs["out"], expected["out"])


def _profile(bench, module, memo=None):
    with obs.capture() as session:
        bench.run(module, memo=memo)
    profile = session.profile
    return profile.block_hits, profile.block_lanes, profile.block_ticks


@pytest.mark.parametrize("app", ["complex", "XSBench"])
def test_replay_is_invisible_to_the_profile(app, executed):
    bench = benchmark_by_name(app)
    module = bench.build_module()
    compile_module(module, "baseline")
    expected = _profile(bench, module)
    # Unobserved records serve no observed run: the second run executes
    # what the first did and records it observed; the third replays that.
    memo = {name: LaunchTable() for name in module.functions}
    executed.clear()
    bench.run(module, memo=memo)
    counts = [len(executed)]
    for _ in range(2):
        executed.clear()
        assert _profile(bench, module, memo) == expected
        counts.append(len(executed))
    assert counts[0] > 0 and counts == [counts[0], counts[0], 0]


def test_parallel_telemetry_covers_replayed_launches():
    """A memo kernel's launches replay in whichever process ran them
    first; a replay re-emits the remarks and re-counts the jit work its
    recording did, so ``-j1`` and ``-j2`` sweeps emit the same remarks
    and count the same jit work (contract launches each of its two
    kernels twice, so its memo kernel's second launch replays only in a
    process that ran the baseline)."""
    def stream(jobs):
        session, registry = obs.install(), metrics.install()
        try:
            cells = ExperimentRunner(jobs=jobs).prefetch(
                [benchmark_by_name(app)
                 for app in ("complex", "XSBench", "contract")],
                configs=PER_LOOP_CONFIGS, factors=(2,))
        finally:
            obs.uninstall()
            metrics.uninstall()
        assert all(c.error is None and c.outputs_match_baseline
                   for c in cells)
        return ([r.to_json() for r in session.remarks],
                metrics.jit_counts(registry),
                [(c.cycles, c.code_size) for c in cells])

    serial = stream(1)
    assert serial[1]["selections"] > 0
    assert stream(2) == serial
