"""Heat-gated tier-up of the jit engine (``jit.TIER_UP_DISPATCHES``).

The jit interprets a block until the lattice dispatcher has reached it
``TIER_UP_DISPATCHES`` times and only then selects the function's
regions and compiles the trace starting there.  Compiled and
interpreted execution are bit-identical by contract, so *when* a region
compiles can change no output, cycle or counter: this file pins that
across thresholds, pins what a cold launch does not pay for, and pins
one tier-up in the middle of a launch step by step.
"""

from __future__ import annotations

import contextlib
import pathlib

import pytest

from repro.bench import benchmark_by_name
from repro.frontend.lower import lower_kernels
from repro.fuzz.generator import generate_kernel
from repro.fuzz.oracle import default_args
from repro.gpu import Memory, SimtMachine, batched, fuser, jit, regions
from repro.gpu import machine as machine_mod
from repro.gpu.machine import resolve_engine
from repro.gpu.regions import R_DIAMOND, R_GUARD
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.obs import metrics as obs_metrics
from repro.obs import session as obs_session
from tests.test_region_cache import plan_shape

KERNEL_DIR = (pathlib.Path(__file__).resolve().parent.parent
              / "benchmarks" / "perf" / "kernels")
KERNELS = sorted(p.stem for p in KERNEL_DIR.glob("*.ir"))

#: Tier up at once, where the program does, and never (a dispatch count
#: starts at 1, so it never equals 0).
THRESHOLDS = {"first-dispatch": 1, "default": jit.TIER_UP_DISPATCHES,
              "never": 0}


def launch_all(text, name, engine, grid_dim, block_dim, args=None):
    """Launch every function of ``text``; outputs + Counters per function.

    Pointer parameters get one ``i64`` buffer, which is read back as the
    launch's output next to the return values.
    """
    module = parse_module(text, name)
    memory = Memory()
    machine = SimtMachine(module, memory, engine=engine)
    out = {}
    for fname, func in module.functions.items():
        call = list(default_args(func) if args is None else args)
        bufs = [i for i, a in enumerate(func.args) if a.type.is_pointer]
        for i in bufs:
            call.insert(i, memory.alloc(f"buf{fname}{i}", "i64",
                                        grid_dim * block_dim))
        result = machine.launch(func, grid_dim, block_dim, call)
        ret = result.return_values
        out[fname] = (None if ret is None else ret.tobytes(),
                      [memory.read_back(f"buf{fname}{i}").tobytes()
                       for i in bufs],
                      result.counters)
    return out, machine


def assert_same_at_every_threshold(monkeypatch, text, name, grid_dim,
                                   block_dim, args=None):
    reference, _ = launch_all(text, name, "warp", grid_dim, block_dim, args)
    compiled = {}
    for label, threshold in THRESHOLDS.items():
        monkeypatch.setattr(jit, "TIER_UP_DISPATCHES", threshold)
        got, machine = launch_all(text, name, "jit", grid_dim, block_dim,
                                  args)
        # Counters is a dataclass: == compares every field, the cycle
        # ticks included.
        assert got == reference, f"{name}: jit tiering up {label} differs"
        compiled[label] = sum(len(r) for r in machine._regions.values())
    assert compiled["never"] == 0
    return compiled


def test_thresholds_cover_the_real_one():
    assert THRESHOLDS["default"] > 1, \
        "the default is meant to be a threshold, not immediate compilation"


@pytest.mark.parametrize("kernel", KERNELS)
def test_perf_kernels_identical_at_every_threshold(kernel, monkeypatch):
    assert len(KERNELS) == 6
    text = (KERNEL_DIR / f"{kernel}.ir").read_text()
    # 4 warps x 40 trips: every loop block crosses the default threshold
    # in the middle of the launch.
    compiled = assert_same_at_every_threshold(monkeypatch, text, kernel,
                                              1, 128, args=[40])
    assert 0 < compiled["default"] <= compiled["first-dispatch"]


@pytest.mark.parametrize("seed", range(50))
def test_fuzz_kernels_identical_at_every_threshold(seed, monkeypatch):
    module = lower_kernels([generate_kernel(seed)], f"fuzz{seed}")
    assert_same_at_every_threshold(monkeypatch, print_module(module),
                                   f"fuzz{seed}", 2, 80)


# -- one tier-up inside one launch, step by step ------------------------------

SELF_LOOP_IR = """
define i64 @selfloop(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %loop ]
  %t1 = mul i64 %acc, 7
  %t2 = add i64 %t1, %i
  %t3 = xor i64 %t2, 5
  %acc.next = and i64 %t3, 1048575
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""

TRIPS = 40


def test_mid_launch_tier_up_interprets_compiles_then_deoptimizes(monkeypatch):
    """15 interpreted iterations, 25 compiled ones, one guard failure."""
    threshold = jit.TIER_UP_DISPATCHES
    assert 1 < threshold < TRIPS
    reference, _ = launch_all(SELF_LOOP_IR, "m", "warp", 1, 64, [TRIPS])
    interpreted = spy(monkeypatch, batched, "_exec_block")
    spins = spy(monkeypatch, jit, "_region_scalar")
    deopts = spy(monkeypatch, jit, "_resolve_condbr")
    got, machine = launch_all(SELF_LOOP_IR, "m", "jit", 1, 64, [TRIPS])
    assert got == reference

    (region_map,) = machine._regions.values()
    (loop,) = region_map.values()           # Only the loop head got hot.
    assert loop.head_name == "loop" and loop.self_loop is not None
    # The dispatcher reached the loop head `threshold` times — the last
    # of them compiled the region and entered it — and never again: the
    # region ran every remaining iteration without the scheduler.
    assert region_map.heat[loop.head_id] == threshold
    assert loop.entries == 1
    names = [db.name for _machine, _func, db, *_ in interpreted]
    assert names.count("loop") == threshold - 1
    # One run of the compiled loop, which the guard left once (the loop
    # exit: back to the interpreter for `exit`) after passing on every
    # other iteration — each pass bumps the back edge's epoch.
    ((*_, entry_epoch, _mask, _state, _total, _actives),) = spins
    ((*_, exit_epoch, _state, _total),) = deopts
    assert exit_epoch - entry_epoch == TRIPS - threshold
    heat = sorted(region_map.heat.values())
    assert heat == [1, 1, threshold]        # entry, exit, loop.
    # Every selected head keeps its plan, compiled or not (the bare
    # `ret` stub at `exit` is not worth a region).
    assert set(plan_shape(region_map)) == {"entry", "loop"}


# -- what a launch that never gets hot does not pay ---------------------------

def test_cold_launch_selects_hashes_stores_and_compiles_nothing(
        fresh_jit_session, monkeypatch):
    def forbid(name):
        def _raise(*args, **kwargs):
            raise AssertionError(f"{name} ran for a launch that never "
                                 "reached the tier-up threshold")
        return _raise

    monkeypatch.setattr(jit, "select_regions", forbid("select_regions"))
    monkeypatch.setattr(regions, "_compile_op", forbid("_compile_op"))
    monkeypatch.setattr(fuser, "compile_segment", forbid("compile_segment"))
    trips = jit.TIER_UP_DISPATCHES - 1      # One dispatch short of hot.
    reference, _ = launch_all(SELF_LOOP_IR, "m", "warp", 2, 96, [trips])
    got, machine = launch_all(SELF_LOOP_IR, "m", "jit", 2, 96, [trips])
    assert got == reference
    (region_map,) = machine._regions.values()
    assert not region_map and region_map.plans is None
    assert max(region_map.heat.values()) == trips
    counts = obs_metrics.jit_counts(fresh_jit_session)
    assert not any(counts.values()), counts


def test_heat_accumulates_over_the_launches_of_one_machine(fresh_jit_session):
    module = parse_module(SELF_LOOP_IR, "m")
    machine = SimtMachine(module, Memory(), engine="jit")
    trips = jit.TIER_UP_DISPATCHES // 2 + 1     # Hot on the second launch.
    machine.launch("selfloop", 1, 64, [trips])
    assert not any(obs_metrics.jit_counts(fresh_jit_session).values())
    machine.launch("selfloop", 1, 64, [trips])
    sess = obs_metrics.jit_counts(fresh_jit_session)
    assert (sess["selections"], sess["regions"]) == (1, 1)
    assert sess["fused_steps"] >= fuser.MIN_CHAIN


# Lanes split on tid parity and the arms rejoin asymmetrically, so the
# loop's trace crosses a guard that fails on every traversal and the arm
# heads only ever see partial masks.
STORM_IR = """
define i64 @asym(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %bit = and i64 %tid, 1
  %odd = icmp eq i64 %bit, 1
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %join ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %join ]
  %pre = add i64 %acc, %i
  br i1 %odd, label %a, label %b
a:
  %x = mul i64 %pre, 3
  br label %join
b:
  %y0 = add i64 %pre, 7
  br label %b2
b2:
  %y = mul i64 %y0, 5
  br label %join
join:
  %m = phi i64 [ %x, %a ], [ %y, %b2 ]
  %acc.next = and i64 %m, 1048575
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""


def compiled_kinds(region_map):
    """``{head name: [op kind, ...]}`` of a map's compiled regions."""
    return {r.head_name: [op.kind for op in r.ops]
            for r in region_map.values()}


def test_guard_failures_reshape_no_compiled_region():
    """A ``RegionMap`` only grows and a compiled region is immutable: a
    guard that fails on every traversal, and arm heads that never see a
    full mask, leave every compiled region the object it was."""
    storm = 3 * 8
    module = parse_module(STORM_IR, "m")
    machine = SimtMachine(module, Memory(), engine="jit")
    machine.launch("asym", 1, 64, [jit.TIER_UP_DISPATCHES + 1])
    (region_map,) = machine._regions.values()
    before = {head: (region, region.ops)
              for head, region in region_map.items()}
    assert "loop" in compiled_kinds(region_map)
    registry = obs_metrics.install()
    try:
        machine.launch("asym", 1, 64, [storm])
    finally:
        obs_metrics.uninstall()
    failures = registry.counter("repro_jit_guard_failures_total",
                                kind="lattice").value
    assert failures >= storm
    assert set(before) <= set(region_map)
    for head, (region, ops) in before.items():
        assert region_map[head] is region and region.ops is ops
    assert set(plan_shape(region_map)) >= {"entry", "loop", "a", "b"}


# -- observing does not change what runs --------------------------------------

def test_observed_and_unobserved_launches_compile_the_same(
        fresh_jit_session):
    """Unobserved and under a live obs session the jit selects and
    compiles the same regions — selection reads no execution profile — on
    a first machine and on a second one, after a guard of the first
    failed on every traversal."""
    trips = jit.TIER_UP_DISPATCHES + 3 * 8

    scopes = {
        "unobserved": contextlib.nullcontext,
        "session": obs_session.capture,
    }

    def run(observe):
        registry = obs_metrics.install()
        with scopes[observe]():
            got, machine = launch_all(STORM_IR, "m", "jit", 1, 64, [trips])
        (region_map,) = machine._regions.values()
        return (compiled_kinds(region_map), got,
                obs_metrics.jit_counts(registry))

    first = run("unobserved")
    assert R_GUARD in first[0]["loop"]      # The storming guard: kept.
    assert first[2]["selections"] == 1
    for observe in ("unobserved", "session", "session"):
        assert run(observe) == first, observe


# -- a tier that stops working changes no output, only these counts ------------

#: One block of 16 warps, the shape ``kernel_exec`` times, at a tenth of
#: its trip count.
LATTICE_THREADS = 16 * 32
LATTICE_TRIPS = 100


def spy(monkeypatch, owner, name):
    """Record the positional arguments of every call to ``owner.name``."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def launch_perf_kernel(kernel, engine, threads=LATTICE_THREADS):
    text = (KERNEL_DIR / f"{kernel}.ir").read_text()
    _, machine = launch_all(text, kernel, engine, 1, threads,
                            [LATTICE_TRIPS])
    return machine


def test_a_uniform_launch_stays_one_lattice(monkeypatch, tier_up_never):
    """Catches the lattice splitting per warp: rows that agree on every
    branch handed one by one to the per-warp engine, or run as sixteen
    one-row batches.  Outputs and cycles would not move; the blocks
    dispatched would scale with the warp count."""
    demoted = spy(monkeypatch, batched, "_demote_row")
    per_warp = spy(monkeypatch, SimtMachine, "_warp_loop")
    blocks = spy(monkeypatch, batched, "_exec_block")
    launch_perf_kernel("uniform", "jit")
    assert not demoted and not per_warp
    assert len(blocks) == LATTICE_TRIPS + 2     # entry, the loop, exit.
    # A lone warp is a one-row lattice and dispatches just as many.
    del blocks[:]
    launch_perf_kernel("uniform", "jit", threads=32)
    assert not demoted and not per_warp
    assert len(blocks) == LATTICE_TRIPS + 2


def test_a_hot_uniform_loop_leaves_the_interpreter(monkeypatch):
    """Catches tier-up never firing: the jit would interpret every trip
    block by block."""
    threshold = jit.TIER_UP_DISPATCHES
    blocks = spy(monkeypatch, batched, "_exec_block")
    machine = launch_perf_kernel("uniform", "jit")
    (region_map,) = machine._regions.values()
    entered = [r for r in region_map.values() if r.entries > 0]
    assert entered, "no compiled region was ever entered"
    interpreted = [db.name for _machine, _func, db, *_ in blocks]
    for region in entered:
        assert interpreted.count(region.head_name) == threshold - 1
    assert len(interpreted) == threshold - 1 + 2


# Every warp diverges at the in-loop diamond, each on a different number
# of lanes (warp w takes its true side on w + 1 of them): the arms' charges
# differ per row, so no scalar delta can carry them.
UNEQUAL_IR = """
define i64 @unequal(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %lane = and i64 %tid, 31
  %warp = lshr i64 %tid, 5
  %low = icmp sle i64 %lane, %warp
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %join ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %join ]
  br i1 %low, label %a, label %b
a:
  %x = mul i64 %acc, 3
  br label %join
b:
  %y = add i64 %acc, 7
  br label %join
join:
  %m = phi i64 [ %x, %a ], [ %y, %b ]
  %acc.next = and i64 %m, 1048575
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""


def count_declined(monkeypatch):
    """One entry per ``enter_region`` call: True when it declined the pop."""
    declined = []
    real = jit.enter_region

    def enter_region(*args):
        outcome = real(*args)
        declined.append(outcome is batched.INTERPRET)
        return outcome

    monkeypatch.setattr(jit, "enter_region", enter_region)
    return declined


def diamond_exits(monkeypatch):
    """One entry per region run that left at a diamond (``jit._leave``
    with an ``R_DIAMOND`` op): warps that split on unalike lane counts."""
    left = []
    real = jit._leave

    def leave(machine, func, op, *args):
        if op.kind == R_DIAMOND:
            left.append(op.name)
        return real(machine, func, op, *args)

    monkeypatch.setattr(jit, "_leave", leave)
    return left


def test_diamond_arms_run_through_the_block_interpreter(monkeypatch,
                                                       tier_up_at_once):
    """Catches a second copy of the block interpreter for the arms of a
    diamond whose warps split unalike: the region leaves at the
    diamond's branch, and every ``_exec_block`` call — those arms
    included — is a pop the trace tier declined.  The region runs from
    the loop head on every trip, whatever the cycles its rows' unalike
    arms left them with, and leaves at the diamond each time."""
    declined = count_declined(monkeypatch)
    left = diamond_exits(monkeypatch)
    blocks = spy(monkeypatch, batched, "_exec_block")
    launch_all(UNEQUAL_IR, "m", "jit", 1, LATTICE_THREADS, [LATTICE_TRIPS])
    assert len(left) == LATTICE_TRIPS, "a trip left the region elsewhere"
    names = [db.name for _machine, _func, db, *_ in blocks]
    assert "a" in names and "b" in names
    assert len(blocks) == sum(declined)


@pytest.mark.parametrize("kernel", ["divergent", "chaindia"])
def test_alike_divergent_diamonds_replay_on_scalars(kernel, monkeypatch):
    """Catches the arms of a hot in-loop diamond going back through the
    block interpreter when every warp splits alike: at 16 warps every
    region entry lands in the region executor and no block runs from
    inside a region.  Outputs, cycles and every counter equal
    ``warp``'s."""
    text = (KERNEL_DIR / f"{kernel}.ir").read_text()
    reference, _ = launch_all(text, kernel, "warp", 1, LATTICE_THREADS,
                              [LATTICE_TRIPS])
    declined = count_declined(monkeypatch)
    entries = spy(monkeypatch, jit, "_run_region")
    scalar = spy(monkeypatch, jit, "_region_scalar")
    left = diamond_exits(monkeypatch)
    blocks = spy(monkeypatch, batched, "_exec_block")
    got, _ = launch_all(text, kernel, "jit", 1, LATTICE_THREADS,
                        [LATTICE_TRIPS])
    assert got == reference
    assert entries and len(scalar) == len(entries)
    assert not left
    assert len(blocks) == sum(declined)


def test_unalike_divergent_diamond_exits_to_the_interpreter(monkeypatch):
    """Warps that diverge at an in-region diamond on different lane
    counts: the region executor flushes and leaves at that diamond's
    branch, as a failed guard does (``jit._leave``), and counts the exit
    as a deopt — never a batch split, since every warp diverges — and
    the result equals ``warp``'s at every threshold."""
    left = diamond_exits(monkeypatch)
    splits = spy(monkeypatch, batched, "_split_state")
    registry = obs_metrics.install()
    try:
        compiled = assert_same_at_every_threshold(
            monkeypatch, UNEQUAL_IR, "unequal", 1, LATTICE_THREADS,
            args=[LATTICE_TRIPS])
    finally:
        obs_metrics.uninstall()
    assert compiled["default"] > 0
    assert left, "no region left at its diamond"
    assert not splits
    failures = sum(registry.counter("repro_jit_guard_failures_total",
                                    kind=kind).value
                   for kind in ("loop", "lattice"))
    assert registry.counter("repro_jit_deopts_total").value == \
        failures + len(left)


def count_masked_writes_in(monkeypatch, owner, name):
    """Calls of ``write_masked``, by any module, made inside
    ``owner.name``."""
    inside, writes = [0], []
    real = getattr(owner, name)

    def executor(*args):
        inside[0] += 1
        try:
            return real(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(owner, name, executor)
    for module in (machine_mod, batched, jit):
        write = getattr(module, "write_masked", None)
        if write is None:
            continue

        def counted(*args, _write=write):
            if inside[0]:
                writes.append(args[1])
            return _write(*args)

        monkeypatch.setattr(module, "write_masked", counted)
    return writes


@pytest.mark.parametrize("kernel", ["divergent", "chaindia"])
def test_alike_divergent_diamonds_are_predicated(kernel, monkeypatch):
    """Catches the region executor masked-writing an arm step by step:
    at 16 warps, whose arms run on every lane and whose join phis are
    one select, not one masked write per step and per phi.  Every entry
    still lands in the region executor, and the run equals ``warp``'s
    in outputs, cycles and every counter."""
    text = (KERNEL_DIR / f"{kernel}.ir").read_text()
    reference, _ = launch_all(text, kernel, "warp", 1, LATTICE_THREADS,
                              [LATTICE_TRIPS])
    entries = spy(monkeypatch, jit, "_run_region")
    writes = count_masked_writes_in(monkeypatch, jit, "_region_scalar")
    got, _ = launch_all(text, kernel, "jit", 1, LATTICE_THREADS,
                        [LATTICE_TRIPS])
    assert got == reference
    assert entries
    assert writes == []


def test_a_selected_join_phi_is_aliased_by_the_back_edge():
    """Catches the loop-carried ``acc <- acc.next`` of ``divergent``
    copying on every trip: its join phi is rebound by a select, never
    written in place on the scalar path, so the back edge may bind it
    by reference."""
    machine = launch_perf_kernel("divergent", "jit")
    (region_map,) = machine._regions.values()
    moves = [move for region in region_map.values()
             for op in region.ops for move in op.moves]
    assert moves
    assert all(nocopy for _dst, _src, _dt, nocopy in moves), moves


# The join phi %m is the loop-carried %acc's next value, and the join
# reads the old %acc after it: a masked write of %m into an array %acc
# still shares would zero %d.  Every warp splits on lane 16 for the first
# 40 trips, then warp w on lane w + 1 — so a region run that bound %acc
# to %m's array leaves at the diamond mid-run, and the interpreter's
# arms masked-write %m.
ALIAS_IR = """
define i64 @alias(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %lane = and i64 %tid, 31
  %warp = lshr i64 %tid, 5
  %warp1 = add i64 %warp, 1
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %join ]
  %acc = phi i64 [ %tid, %entry ], [ %m, %join ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %join ]
  %late = icmp sge i64 %i, 40
  %cut = select i1 %late, i64 %warp1, i64 16
  %low = icmp slt i64 %lane, %cut
  br i1 %low, label %a, label %b
a:
  %x0 = mul i64 %acc, 3
  %x = and i64 %x0, 1048575
  br label %join
b:
  %y = add i64 %acc, 7
  br label %join
join:
  %m = phi i64 [ %x, %a ], [ %y, %b ]
  %d = sub i64 %m, %acc
  %s.next = add i64 %s, %d
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  %r = xor i64 %s.next, %m
  ret i64 %r
}
"""


def test_an_exit_after_an_aliased_bind_equals_warp(monkeypatch):
    """Catches the interpreter masked-writing a join phi that a region
    trip's back edge left aliased: alike trips bind ``%acc`` to ``%m``'s
    array, then the warps split unalike, the region leaves at the
    diamond, and the arms run through the interpreter.  Equal to
    ``warp`` at every threshold."""
    left = diamond_exits(monkeypatch)
    scalar = spy(monkeypatch, jit, "_region_scalar")
    compiled = assert_same_at_every_threshold(
        monkeypatch, ALIAS_IR, "alias", 1, LATTICE_THREADS,
        args=[LATTICE_TRIPS])
    assert compiled["default"] > 0
    assert scalar and left


# Every lane takes the empty arm %a while %i < %n, in the compiled loop,
# so %m is bound to %v — a slot the interpreter owns.  Lanes whose
# %lim lies past %n then go round under partial masks, where the
# interpreter masked-writes %m in arm %b, and read %v at the exit.
LONE_IR = """
define i64 @lone(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %lane = and i64 %tid, 3
  %v = mul i64 %tid, 5
  %lim = add i64 %n, %lane
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %join ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %join ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  %y = add i64 %acc, %i
  br label %join
join:
  %m = phi i64 [ %v, %a ], [ %y, %b ]
  %acc.next = add i64 %acc, %m
  %i.next = add i64 %i, 1
  %stop = icmp sge i64 %i.next, %lim
  br i1 %stop, label %exit, label %loop
exit:
  %r = add i64 %acc.next, %v
  ret i64 %r
}
"""


def test_a_lone_arm_copies_a_slot_the_interpreter_owns(monkeypatch):
    """Catches a join phi selected from one arm aliasing an incoming
    value the interpreter owns: exit normalization cannot see that
    alias, and the interpreter's next masked write of the phi would
    overwrite ``%v``.  Equal to ``warp`` at every threshold."""
    compiled = assert_same_at_every_threshold(
        monkeypatch, LONE_IR, "lone", 1, LATTICE_THREADS, args=[40])
    assert compiled["default"] > 0


@pytest.mark.parametrize("kernel", ["divergent", "chaindia", "unequal",
                                    "alias"])
def test_profiled_diamonds_equal_unprofiled_and_warp(kernel, monkeypatch):
    """Diamonds whose warps split alike, unalike, and after an aliased
    bind: profiled, the run must equal the unprofiled one and
    ``warp``'s at every threshold, through the same executors and the
    same diamond exits."""
    texts = {"unequal": UNEQUAL_IR, "alias": ALIAS_IR}
    text = texts.get(kernel) or (KERNEL_DIR / f"{kernel}.ir").read_text()
    reference, _ = launch_all(text, kernel, "warp", 1, LATTICE_THREADS,
                              [LATTICE_TRIPS])
    calls = (spy(monkeypatch, jit, "_region_scalar"),
             spy(monkeypatch, batched, "_exec_block"),
             diamond_exits(monkeypatch))
    for label, threshold in THRESHOLDS.items():
        monkeypatch.setattr(jit, "TIER_UP_DISPATCHES", threshold)
        for seen in calls:
            del seen[:]
        plain, _ = launch_all(text, kernel, "jit", 1, LATTICE_THREADS,
                              [LATTICE_TRIPS])
        assert plain == reference, f"{kernel}: unprofiled, {label}"
        ran = [len(seen) for seen in calls]
        for seen in calls:
            del seen[:]
        with obs_session.capture():
            got, _ = launch_all(text, kernel, "jit", 1, LATTICE_THREADS,
                                [LATTICE_TRIPS])
        assert got == reference, f"{kernel}: profiled, {label}"
        assert [len(seen) for seen in calls] == ran, label
        # Rows that hold unalike cycles still enter the region, so it
        # runs wherever it compiles; ``unequal``'s and ``alias``'s runs
        # leave at the diamond.
        runs = threshold > 0
        assert bool(ran[0]) == runs, label
        assert bool(ran[2]) == (runs and kernel in texts), label


@pytest.mark.parametrize("kernel", ["uniform", "chain"])
def test_icache_statistics_equal_a_warps(kernel, monkeypatch):
    """Catches the scalar spin's skipped re-touches going uncounted: the
    lattice's representative instruction cache must read the hits and
    misses of any one warp's cache on the warp engine (2 warps x 200
    trips: a warp reads 199 hits)."""
    text = (KERNEL_DIR / f"{kernel}.ir").read_text()
    loops = spy(monkeypatch, SimtMachine, "_warp_loop")
    launch_all(text, kernel, "warp", 1, 64, [200])
    caches = {(icache.hits, icache.misses) for *_, icache in loops}
    finished = spy(monkeypatch, batched, "_finish_state")
    launch_all(text, kernel, "jit", 1, 64, [200])
    (state, _results), = finished
    assert caches == {(state.icache.hits, state.icache.misses)}


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_region_entry_lands_in_one_of_two_executors(kernel,
                                                          monkeypatch):
    """A region entry runs in the one region executor, and a full-mask
    entry never goes back to the interpreter, whatever its rows' cycles."""
    executors = sorted(name for name in vars(jit)
                       if name.startswith("_region_"))
    assert executors == ["_region_scalar"]
    scalar = spy(monkeypatch, jit, "_region_scalar")
    declined = []
    real = jit._run_region

    def run_region(*args):
        outcome = real(*args)
        declined.append(outcome is batched.INTERPRET)
        return outcome

    monkeypatch.setattr(jit, "_run_region", run_region)
    launch_perf_kernel(kernel, "jit")
    assert declined and not any(declined)
    assert len(scalar) == len(declined)


def test_a_profiled_self_loop_takes_the_scalar_executor(monkeypatch):
    """Catches a live profile choosing the executor: the scalar spin
    folds its trip count into the profile at exit, so a profiled
    self-loop spins as an unprofiled one does, and the profile counts
    every trip of both warps."""
    reference, _ = launch_all(SELF_LOOP_IR, "m", "warp", 1, 64, [TRIPS])
    scalar = spy(monkeypatch, jit, "_region_scalar")
    with obs_session.capture() as session:
        got, _ = launch_all(SELF_LOOP_IR, "m", "jit", 1, 64, [TRIPS])
    assert got == reference
    assert [region.head_name for _machine, _func, region, *_ in scalar] == \
        ["loop"]
    assert session.profile.block_hits["loop"] == 2 * TRIPS


#: The executors a region entry or a lattice dispatch can land in — what
#: observing a run must not change.
EXECUTORS = ((jit, "_region_scalar"), (batched, "_exec_block"))

OBSERVERS = {
    "unobserved": contextlib.nullcontext,
    "session": obs_session.capture,
    "request": lambda: obs_session.request_capture("r"),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_observing_a_run_changes_no_executor(kernel, monkeypatch):
    """Catches an executor choice that depends on whether anyone is
    watching — a traced CLI run or a served request
    (``request_capture``) taking another path than the unobserved one:
    every executor is called as often under each observer, and the run
    equals ``warp``'s."""
    text = (KERNEL_DIR / f"{kernel}.ir").read_text()
    reference, _ = launch_all(text, kernel, "warp", 1, LATTICE_THREADS,
                              [LATTICE_TRIPS])
    calls = [spy(monkeypatch, owner, name) for owner, name in EXECUTORS]
    counts = {}
    for label, observe in OBSERVERS.items():
        for seen in calls:
            del seen[:]
        with observe():
            got, _ = launch_all(text, kernel, "jit", 1, LATTICE_THREADS,
                                [LATTICE_TRIPS])
        assert got == reference, label
        counts[label] = [len(seen) for seen in calls]
    assert counts["session"] == counts["unobserved"]
    assert counts["request"] == counts["unobserved"]


@pytest.mark.parametrize("case", KERNELS + ["unequal", "complex"])
def test_the_profile_is_the_same_on_both_engines(case, monkeypatch):
    """Catches a profile that depends on the engine or the executor: a
    lattice dispatch counted once instead of once per warp, a scalar
    run's blocks left out, or the phi moves of a split or a region exit
    charged to no block.  ``unequal`` leaves its region at the diamond.
    Hits, lanes and tick sums are exact."""
    if case == "complex":
        bench = benchmark_by_name(case)

        def run(engine):
            bench.run(bench.build_module(), engine=engine)
    else:
        text = (UNEQUAL_IR if case == "unequal"
                else (KERNEL_DIR / f"{case}.ir").read_text())

        def run(engine):
            launch_all(text, case, engine, 1, LATTICE_THREADS,
                       [LATTICE_TRIPS])

    def profile(engine):
        with obs_session.capture() as session:
            run(engine)
        return session.profile

    want = profile("warp")
    assert want.block_hits
    for label, threshold in THRESHOLDS.items():
        monkeypatch.setattr(jit, "TIER_UP_DISPATCHES", threshold)
        got = profile("jit")
        assert got.block_hits == want.block_hits, label
        assert got.block_lanes == want.block_lanes, label
        assert got.block_ticks == want.block_ticks, label
        assert got.block_cycles == want.block_cycles, label


def test_a_briefly_divergent_warp_stays_on_the_compiled_path(monkeypatch):
    """Catches demotion hysteresis being removed: ``briefdiv``'s first
    warp splits off for a three-instruction prelude and would spend the
    whole loop on the per-warp engine instead of the compiled region."""
    demoted = spy(monkeypatch, batched, "_demote_row")
    runs = spy(monkeypatch, jit, "_run_region")
    launch_perf_kernel("briefdiv", "jit")
    assert not demoted
    # The loop's region ran for the fifteen-row batch and the singleton.
    rows = sorted(state.ctx.n for _machine, _func, region, _epoch, _mask,
                  state, *_ in runs if region.head_name == "loop")
    assert rows == [1, 15]


# -- the default ---------------------------------------------------------------

def test_the_jit_is_the_default_engine():
    """Only a machine argument names another engine; nothing in the
    environment does, and a name that is no engine still fails."""
    assert resolve_engine(None) == "jit"
    assert SimtMachine(parse_module(SELF_LOOP_IR, "m")).engine == "jit"
    with pytest.raises(ValueError, match="unknown engine 'batched'"):
        resolve_engine("batched")


def test_only_the_machine_takes_an_engine():
    """Nothing above ``SimtMachine`` selects an engine: the runner (and
    so a pool worker's settings), the tuner, the fuzz differential and
    the fuzz-corpus benchmark run the default.  The oracle's way in
    stays ``SimtMachine`` / ``Benchmark.run`` / ``execute``.  Nor does
    any of them size the icache: a capacity the cell key leaves out
    would serve stale cells."""
    import inspect

    from repro.bench.base import Benchmark
    from repro.fuzz import oracle
    from repro.harness.experiment import ExperimentRunner
    from repro.similarity.corpus import FuzzBenchmark
    from repro.tune import tune_benchmark

    assert "engine" not in ExperimentRunner().settings()
    for fn in (ExperimentRunner.__init__, tune_benchmark, oracle.run_config,
               oracle.run_differential, FuzzBenchmark.run):
        assert "engine" not in inspect.signature(fn).parameters, fn
    for fn in (SimtMachine.__init__, Benchmark.run, oracle.execute,
               oracle.run_one_warp):
        assert "engine" in inspect.signature(fn).parameters, fn
    for fn in (SimtMachine.__init__, Benchmark.run, FuzzBenchmark.run):
        assert "icache_capacity" not in inspect.signature(fn).parameters
