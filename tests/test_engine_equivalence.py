"""Bit-identicality contract between the execution engines.

The launch-vectorized lattice dispatcher and the superblock trace tier
on top of it (together the "jit" engine) exist purely for wall-clock:
with the tier compiling where a launch gets hot ("jit") and with it
never compiling ("batched", see ``conftest.engine_named``) it must
produce byte-for-byte the same outputs and *exactly* the same Counters —
cycles included, which are float sums and therefore sensitive to
accumulation order — as the per-warp ("warp") engine.  That contract is
what lets the persistent cell cache omit the engine from its keys and
lets the fuzz oracle treat the engines as interchangeable.

Coverage here is deliberately broad rather than deep:

* every benchmark analog's full workload (real multi-launch geometry),
* the same workloads after the heuristic u&u pipeline and after the
  tuned pipeline (optimized CFGs stress unmerged/unrolled control flow),
* every regression kernel in ``tests/corpus/`` at a multi-warp geometry
  with a boundary warp (block_dim not a multiple of 32),
* freshly fuzz-generated kernels, again multi-warp, so data-dependent
  divergence exercises the demotion path,
* a guard-storm kernel engineered so every jit deopt kind fires (diamond
  divergent arms, diamond mixed-class deopt, a guard failing on every
  traversal, loop-region exits, demotion splits),
* a memory-carrying self-loop, the one shape whose executor choice the
  fuzzer cannot reach,
* profiling on vs. off (the execution profile must be strictly
  observational).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
from unittest import mock

import pytest

from repro.bench import all_benchmarks
from repro.frontend.lower import lower_kernels
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import generate_kernel
from repro.fuzz.oracle import default_args
from repro.gpu import Counters, Memory, SimtMachine, fuser, jit
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs import metrics as obs_metrics
from repro.obs import session as obs_session
from repro.transforms.pipeline import compile_module
from tests.conftest import engine_named
from tests.test_tier_up import assert_same_at_every_threshold, launch_all, spy

#: Multi-warp geometry with a boundary warp: 2 blocks x 3 warps, the
#: last warp of each block only 16 lanes active.
GRID_DIM = 2
BLOCK_DIM = 80

#: Measured against the per-warp reference: the lattice interpreter
#: alone (a ``conftest.engine_named`` label) and the jit as it runs.
FAST_ENGINES = ("batched", "jit")

BENCHMARKS = all_benchmarks()
CORPUS = load_corpus()
FUZZ_SEEDS = (3, 11, 27)

#: The jit's expression fuser must be invisible in results: every matrix
#: cell runs once as the jit always runs (``fuse``) and once with no chain
#: long enough to fuse (``nofuse``), so long chains also go down the
#: per-step path that chains under ``MIN_CHAIN`` always take.  There is
#: no such switch in the program; this is a test seam.
FUSE_MODES = (True, False)
FUSE_IDS = ("fuse", "nofuse")


@contextlib.contextmanager
def fusion(enabled: bool):
    """Scope the ``nofuse`` seam to one check."""
    if enabled:
        yield
        return
    with mock.patch.object(fuser, "MIN_CHAIN", sys.maxsize):
        yield


def assert_counters_identical(batched: Counters, warp: Counters,
                              label: str) -> None:
    """Every field — float cycle accumulators included — must be equal."""
    for f in dataclasses.fields(Counters):
        b, w = getattr(batched, f.name), getattr(warp, f.name)
        assert b == w, (f"{label}: Counters.{f.name} differs between "
                        f"engines: batched={b!r} warp={w!r}")


def assert_category_invariant(counters: Counters, label: str) -> None:
    """cat_cycles + fetch stalls re-sum to total cycles (up to fp order)."""
    total = sum(counters.cat_cycles) + counters.fetch_stall_cycles
    assert math.isclose(total, counters.cycles, rel_tol=1e-9, abs_tol=1e-6), \
        f"{label}: sum(cat_cycles)+fetch {total} != cycles {counters.cycles}"


def launch_engine(ir_text: str, name: str, engine: str,
                  grid_dim: int = GRID_DIM, block_dim: int = BLOCK_DIM,
                  args=None):
    """Launch every function of ``ir_text`` under one engine."""
    module = parse_module(ir_text, name)
    per_func = {}
    with engine_named(engine) as real:
        machine = SimtMachine(module, Memory(), engine=real)
        for fname, func in module.functions.items():
            result = machine.launch(
                func, grid_dim, block_dim,
                default_args(func) if args is None else args)
            ret = result.return_values
            per_func[fname] = (None if ret is None else ret.tobytes(),
                               result.counters)
    return per_func


def check_text_kernel(ir_text: str, name: str,
                      grid_dim: int = GRID_DIM,
                      block_dim: int = BLOCK_DIM, args=None) -> None:
    reference = launch_engine(ir_text, name, "warp", grid_dim, block_dim,
                              args)
    for engine in FAST_ENGINES:
        results = launch_engine(ir_text, name, engine, grid_dim, block_dim,
                                args)
        assert results.keys() == reference.keys()
        for fname in results:
            ret_e, counters_e = results[fname]
            ret_w, counters_w = reference[fname]
            label = f"{name}:@{fname}/{engine}"
            assert ret_e == ret_w, f"{label}: return values differ"
            assert_counters_identical(counters_e, counters_w, label)
            assert_category_invariant(counters_e, label)


def _check_bench_engines(bench, config, prepare):
    """Run ``bench`` under every engine and pin outputs + Counters."""
    outs, counters = {}, {}
    for engine in ("warp",) + FAST_ENGINES:
        module = prepare()
        with engine_named(engine) as real:
            outs[engine], counters[engine] = bench.run(module, engine=real)
    for engine in FAST_ENGINES:
        label = f"{bench.name}/{config}/{engine}"
        assert outs[engine].keys() == outs["warp"].keys()
        for buf_name in outs[engine]:
            assert outs[engine][buf_name].tobytes() == \
                outs["warp"][buf_name].tobytes(), \
                f"{label}: output buffer {buf_name} differs vs warp"
        assert_counters_identical(counters[engine], counters["warp"], label)
        assert_category_invariant(counters[engine], label)


@pytest.mark.parametrize("fuse", FUSE_MODES, ids=FUSE_IDS)
@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_benchmark_baseline_bit_identical(bench, fuse):
    with fusion(fuse):
        _check_bench_engines(bench, "baseline", bench.build_module)


@pytest.mark.parametrize("fuse", FUSE_MODES, ids=FUSE_IDS)
@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_benchmark_heuristic_bit_identical(bench, fuse):
    def prepare():
        module = bench.build_module()
        compile_module(module, "uu_heuristic")
        return module
    with fusion(fuse):
        _check_bench_engines(bench, "uu_heuristic", prepare)


@pytest.mark.parametrize("fuse", FUSE_MODES, ids=FUSE_IDS)
@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_benchmark_tuned_bit_identical(bench, fuse):
    from repro.tune import resolve_decisions

    decisions, _reason = resolve_decisions(bench.name)

    def prepare():
        module = bench.build_module()
        compile_module(module, "tuned", plan=decisions)
        return module
    with fusion(fuse):
        _check_bench_engines(bench, "tuned", prepare)


@pytest.mark.skipif(not CORPUS, reason="no corpus entries")
@pytest.mark.parametrize("fuse", FUSE_MODES, ids=FUSE_IDS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_bit_identical(entry, fuse):
    with fusion(fuse):
        check_text_kernel(entry.text, entry.name)


@pytest.mark.parametrize("fuse", FUSE_MODES, ids=FUSE_IDS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_kernels_bit_identical(seed, fuse):
    kernel = generate_kernel(seed)
    module = lower_kernels([kernel], f"fuzz{seed}")
    with fusion(fuse):
        check_text_kernel(print_module(module), f"fuzz{seed}")


# -- guard storm: every jit deopt kind on one kernel --------------------------

#: Crafted so a single hot loop trips every jit bail-out in one run:
#:
#: * ``%laneodd`` diamond (dodd/deven)  — intra-warp divergent condition,
#:   both arms execute masked in-region (R_DIAMOND, divergent class);
#: * ``%warpodd`` diamond (wodd/weven)  — condition uniform per warp but
#:   disagreeing across warps, so the lattice classes are mixed and the
#:   region deopts with both edges pending;
#: * ``%laneodd`` asymmetric branch (ga/gb) — ``gb`` detours through
#:   ``gc`` so the arms do NOT form a diamond; the resulting R_GUARD
#:   fails on every entry (intra-warp divergence) and deoptimizes each
#:   time;
#: * ``%trip`` depends on the warp index, so warps exit the loop on
#:   different iterations — loop-region exits plus demotion splits.
STORM_IR = """
define i64 @storm(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %ctaid = call i64 @ctaid.x()
  %ntid = call i64 @ntid.x()
  %base = mul i64 %ctaid, %ntid
  %gid = add i64 %base, %tid
  %warp = lshr i64 %gid, 5
  %wbit = and i64 %warp, 1
  %warpodd = icmp eq i64 %wbit, 1
  %lbit = and i64 %tid, 1
  %laneodd = icmp eq i64 %lbit, 1
  %extra = and i64 %warp, 3
  %trip = add i64 %n, %extra
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ %gid, %entry ], [ %acc.next, %latch ]
  br i1 %laneodd, label %dodd, label %deven
dodd:
  %a = mul i64 %acc, 3
  br label %djoin
deven:
  %b = add i64 %acc, 7
  br label %djoin
djoin:
  %dacc = phi i64 [ %a, %dodd ], [ %b, %deven ]
  br i1 %warpodd, label %wodd, label %weven
wodd:
  %c = add i64 %dacc, %i
  br label %wjoin
weven:
  %d = mul i64 %dacc, 5
  br label %wjoin
wjoin:
  %wacc = phi i64 [ %c, %wodd ], [ %d, %weven ]
  %wred = and i64 %wacc, 1048575
  br i1 %laneodd, label %ga, label %gb
ga:
  %e = add i64 %wred, 11
  br label %latch
gb:
  %f0 = mul i64 %wred, 9
  br label %gc
gc:
  %f = add i64 %f0, 1
  br label %latch
latch:
  %racc = phi i64 [ %e, %ga ], [ %f, %gc ]
  %acc.next = and i64 %racc, 524287
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %trip
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""

#: Enough loop trips to compile the loop and then fail its guard 24 times.
STORM_TRIPS = 40


def test_guard_storm_bit_identical_multi_warp():
    check_text_kernel(STORM_IR, "storm", args=[STORM_TRIPS])


def test_guard_storm_bit_identical_single_warp():
    # One 32-lane warp: the lattice is a single row, so uniform regions
    # run in scalar mode and the intra-warp divergent guard still fails.
    check_text_kernel(STORM_IR, "storm", grid_dim=1, block_dim=32,
                      args=[STORM_TRIPS])


def test_guard_storm_exercises_every_deopt_kind(monkeypatch):
    """The storm kernel must actually hit the paths it claims to hit.

    Runs under a live obs session and metrics registry so the jit's
    region remarks and deopt counts are observable, then asserts that a
    diamond compiled, that its arms ran in-region, and that the
    asymmetric branch's guard kept failing — without those, the two
    bit-identicality tests above would be vacuous.
    """
    assert obs_session.active() is None, "a test leaked a live session"
    session = obs_session.install()
    registry = obs_metrics.install()
    arms = spy(monkeypatch, jit, "_exec_arm")
    try:
        launch_engine(STORM_IR, "storm", "jit", args=[STORM_TRIPS])
    finally:
        obs_metrics.uninstall()
        obs_session.uninstall()
    jit_remarks = [r for r in session.remarks if r.pass_name == "jit"]
    assert jit_remarks, "jit engine emitted no region remarks"
    diamonds = sum(int(r.args.get("diamonds", 0)) for r in jit_remarks)
    assert diamonds > 0, "no diamond was compiled — kernel shape drifted?"
    assert arms, "no diamond arm ran in-region"
    failures = registry.counter("repro_jit_guard_failures_total",
                                kind="lattice").value
    assert failures >= 8, (
        f"the asymmetric divergent branch is supposed to storm its guard "
        f"({failures} guard failures seen)")
    assert registry.counter("repro_jit_deopts_total").value >= failures


# -- a self-loop that carries memory ------------------------------------------

MEMORY_SELF_LOOP_IR = """
define void @memloop(i64* %buf, i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %p = gep i64* %buf, i64 %tid
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %old = load i64, i64* %p
  %new = add i64 %old, %i
  store i64 %new, i64* %p
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret void
}
"""


def test_memory_self_loop_identical_at_every_threshold(monkeypatch):
    """A single-block self-loop with a load and a store: the shape the
    jit's scalar executor must refuse (``CompiledRegion.scalar_ok``) —
    memory latencies are charged per row, which a replay on Python
    scalars drops: 3 510.0 cycles where every engine says 13 030.0.
    Nothing else notices a ``_run_region`` that forgets the test: the
    perf kernels and the suite have no such loop, and the fuzzer cannot
    find one because fuzz kernels have no buffers.  2 warps x 100 trips;
    outputs, the buffer and every counter equal ``warp``'s, whenever
    the loop compiles."""
    compiled = assert_same_at_every_threshold(
        monkeypatch, MEMORY_SELF_LOOP_IR, "memloop", 1, 64, args=[100])
    assert compiled["default"] > 0
    (_ret, _bufs, counters), = launch_all(
        MEMORY_SELF_LOOP_IR, "memloop", "jit", 1, 64, [100])[0].values()
    assert (counters.cycles, counters.inst_executed) == (13030.0, 1408)


# -- profiling must be strictly observational ---------------------------------

def test_profiling_on_vs_off_bit_identical():
    """Execution profiling may never perturb outputs or Counters.

    The profile hooks sit inside the engines' hot loops (including the
    jit's compiled regions and deopt paths), so this runs the storm
    kernel — every deopt kind live — plus a real benchmark under a live
    session and pins the results against the unprofiled ones.
    """
    assert obs_session.active() is None, "a test leaked a live session"
    plain = {engine: launch_engine(STORM_IR, "storm", engine,
                                   args=[STORM_TRIPS])
             for engine in ("warp",) + FAST_ENGINES}
    session = obs_session.install()
    try:
        profiled = {engine: launch_engine(STORM_IR, "storm", engine,
                                          args=[STORM_TRIPS])
                    for engine in ("warp",) + FAST_ENGINES}
    finally:
        obs_session.uninstall()
    assert session.profile.block_hits, "profiling was on but recorded nothing"
    for engine, per_func in plain.items():
        for fname, (ret, counters) in per_func.items():
            ret_p, counters_p = profiled[engine][fname]
            label = f"storm:@{fname}/{engine}/profiled"
            assert ret_p == ret, f"{label}: return values differ"
            assert_counters_identical(counters_p, counters, label)

    bench = next(b for b in BENCHMARKS if b.name == "bspline-vgh")
    out_plain, counters_plain = bench.run(bench.build_module(), engine="jit")
    session = obs_session.install()
    try:
        out_prof, counters_prof = bench.run(bench.build_module(),
                                            engine="jit")
    finally:
        obs_session.uninstall()
    for buf_name in out_plain:
        assert out_plain[buf_name].tobytes() == out_prof[buf_name].tobytes()
    assert_counters_identical(counters_prof, counters_plain,
                              "bspline-vgh/jit/profiled")


# -- cross-launch region persistence must be strictly observational -----------

def _compare_runs(label, got, reference):
    assert got.keys() == reference.keys()
    for fname in got:
        ret_g, counters_g = got[fname]
        ret_r, counters_r = reference[fname]
        assert ret_g == ret_r, f"{label}:@{fname}: return values differ"
        assert_counters_identical(counters_g, counters_r,
                                  f"{label}:@{fname}")


@pytest.mark.parametrize("fuse", FUSE_MODES, ids=FUSE_IDS)
def test_region_cache_cold_vs_warm_bit_identical(fresh_jit_session, fuse):
    """A second fresh machine in the same process must change nothing.

    No region state outlives a machine, so the second one selects and
    compiles the same regions as the first, and both are bit-identical
    to the per-warp reference.
    """
    reference = launch_engine(STORM_IR, "storm", "warp", args=[STORM_TRIPS])
    with fusion(fuse):
        cold = launch_engine(STORM_IR, "storm", "jit", args=[STORM_TRIPS])
        cold_sess = obs_metrics.jit_counts(fresh_jit_session)
        warm_registry = obs_metrics.install()
        warm = launch_engine(STORM_IR, "storm", "jit", args=[STORM_TRIPS])
        warm_sess = obs_metrics.jit_counts(warm_registry)
    assert cold_sess["selections"] > 0, "cold run did not select regions"
    assert warm_sess == cold_sess
    _compare_runs(f"storm/cold/fuse={fuse}", cold, reference)
    _compare_runs(f"storm/warm/fuse={fuse}", warm, reference)
