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

from repro.frontend.lower import lower_kernels
from repro.fuzz.generator import generate_kernel
from repro.fuzz.oracle import default_args
from repro.gpu import Memory, SimtMachine, batched, fuser, jit, regions
from repro.gpu.machine import resolve_engine
from repro.gpu.regions import R_GUARD
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
        # Counters is a dataclass: == compares every field, the float
        # cycle accumulators included.
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
    spins = spy(monkeypatch, jit, "_region_self_scalar")
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


def test_diamond_arms_run_through_the_block_interpreter(monkeypatch):
    """Catches a second copy of the block interpreter for the arms of an
    in-region diamond: every ``_exec_block`` call is a pop the trace tier
    declined or an arm run, and every arm run is one."""
    declined = []
    real = jit.enter_region

    def enter_region(*args):
        outcome = real(*args)
        declined.append(outcome is batched.INTERPRET)
        return outcome

    monkeypatch.setattr(jit, "enter_region", enter_region)
    arms = spy(monkeypatch, jit, "_exec_arm")
    blocks = spy(monkeypatch, batched, "_exec_block")
    launch_perf_kernel("divergent", "jit")
    assert arms, "no diamond arm ran in-region"
    assert len(blocks) == sum(declined) + len(arms)


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_region_entry_lands_in_one_of_two_executors(kernel,
                                                          monkeypatch):
    executors = sorted(name for name in vars(jit)
                       if name.startswith("_region_"))
    assert executors == ["_region_self_scalar", "_region_vector"]
    ran = [spy(monkeypatch, jit, name) for name in executors]
    entries = spy(monkeypatch, jit, "_run_region")
    launch_perf_kernel(kernel, "jit")
    assert entries and len(entries) == sum(len(calls) for calls in ran)


def test_a_profiled_self_loop_takes_the_vector_executor(monkeypatch):
    """The scalar spin keeps no per-iteration ``note_block`` stream, so a
    live profile sends the self-loop down the general executor — and
    observing must not change what is computed."""
    reference, _ = launch_all(SELF_LOOP_IR, "m", "warp", 1, 64, [TRIPS])
    scalar = spy(monkeypatch, jit, "_region_self_scalar")
    vector = spy(monkeypatch, jit, "_region_vector")
    with obs_session.capture() as session:
        got, _ = launch_all(SELF_LOOP_IR, "m", "jit", 1, 64, [TRIPS])
    assert got == reference
    assert not scalar
    assert [region.head_name for _machine, _func, region, *_ in vector] == \
        ["loop"]
    assert session.profile.block_hits["loop"] == TRIPS


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

def test_the_jit_is_the_default_engine(monkeypatch, capsys):
    from repro.cli import build_parser

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine(None) == "jit"
    assert SimtMachine(parse_module(SELF_LOOP_IR, "m")).engine == "jit"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig6", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "REPRO_ENGINE or 'jit'" in help_text
