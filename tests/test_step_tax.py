"""One block dispatch pays for its bookkeeping once, not once per step.

The SIMT interpreters used to recount masks they were handed, bump
integer counters, enter ``np.errstate`` and call ``np.unique`` on every
*step*.  Outputs, cycles and counters could not show that tax — every
engine is bit-identical with or without it — so the first half of this
file pins its absence as call counts (the spies of
``tests/test_tier_up.py``), and the second half pins the primitives that
replaced it against the formulas they replaced, value for value.
"""

from __future__ import annotations

import itertools
import pathlib
import types

import numpy as np
import pytest

from repro.bench import benchmark_by_name
from repro.frontend.lower import lower_kernels
from repro.fuzz.generator import generate_kernel
from repro.gpu import Memory, SimtMachine, batched, jit
from repro.gpu import machine as machine_mod
from repro.gpu.counters import CATEGORIES, Counters
from repro.gpu.machine import WARP_SIZE, _PHI_COST
from repro.gpu.timing import charge
from repro.ir.constants import ConstantFloat, ConstantInt
from repro.ir.parser import parse_module
from repro.ir.types import F32, F64, I1, I64
from repro.ir.values import Argument, GlobalVariable
from repro.semantics import storage_dtype
from repro.transforms.pipeline import compile_module
from tests.conftest import engine_named
from tests.test_tier_up import launch_perf_kernel, spy

KERNEL_DIR = (pathlib.Path(__file__).resolve().parent.parent
              / "benchmarks" / "perf" / "kernels")
KERNELS = sorted(p.stem for p in KERNEL_DIR.glob("*.ir"))


def divergent_app():
    """One ``Benchmark.run`` of a suite app whose warps demote, compiled
    here so the spies below see the run and nothing else."""
    bench = benchmark_by_name("XSBench")
    module = bench.build_module()
    compile_module(module, "uu_heuristic")
    return lambda: bench.run(module)


def divergent_kernel(label):
    def run():
        with engine_named(label) as engine:
            launch_perf_kernel("divergent", engine)
    return run


WORKLOADS = {"XSBench/uu_heuristic": divergent_app,
             "divergent.ir[warp]": lambda: divergent_kernel("warp"),
             "divergent.ir[batched]": lambda: divergent_kernel("batched"),
             "divergent.ir[jit]": lambda: divergent_kernel("jit")}


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]()


# -- the tax stays gone, as counts -------------------------------------------

def test_no_access_sorts_its_addresses_through_np_unique(workload,
                                                         monkeypatch):
    calls = spy(monkeypatch, np, "unique")
    workload()
    assert not calls


def test_errstate_is_entered_once_per_launch(workload, monkeypatch):
    launches = spy(monkeypatch, SimtMachine, "launch")
    entered = spy(monkeypatch, np, "errstate")
    workload()
    assert launches and len(entered) == len(launches)


def test_integer_counters_are_bumped_per_block_not_per_step(workload,
                                                            monkeypatch):
    """Catches ``note_issue`` going back inside the step loops: it may run
    once per dispatched block (interpreted — diamond arms included — or
    the flush of a region run) and once per traversed edge that carries
    phi moves."""
    noted = spy(monkeypatch, Counters, "note_issue")
    blocks = [spy(monkeypatch, SimtMachine, "_exec_decoded"),
              spy(monkeypatch, batched, "_exec_block"),
              spy(monkeypatch, jit, "_flush_ints")]
    edges = [spy(monkeypatch, SimtMachine, "_follow"),
             spy(monkeypatch, batched, "_follow_batch"),
             spy(monkeypatch, jit, "_follow_batch")]
    workload()
    dispatched = sum(len(calls) for calls in blocks)
    moved = sum(1 for calls in edges for call in calls
                if next(a for a in call
                        if isinstance(a, machine_mod._Edge)).moves)
    assert dispatched, "nothing ran"
    assert len(noted) <= dispatched + moved


def constant_operands(func):
    """The distinct constants and globals ``func``'s instructions read."""
    return {id(v) for inst in func.instructions() for v in inst.operands
            if isinstance(v, (ConstantInt, ConstantFloat, GlobalVariable))}


@pytest.mark.parametrize("kernel", KERNELS)
def test_decode_builds_each_constant_vector_once(kernel, monkeypatch):
    """Catches operand vectors going back to one ``np.full`` per use."""
    module = parse_module((KERNEL_DIR / f"{kernel}.ir").read_text(), kernel)
    machine = SimtMachine(module, Memory())
    built = spy(monkeypatch, np, "full")
    wanted = set()
    for func in module.functions.values():
        machine._decode(func)
        wanted |= constant_operands(func)
    assert wanted, "the kernel mentions no constant"
    assert len([call for call in built if call[0] == WARP_SIZE]) == \
        len(wanted)


def test_a_lattice_row_without_lanes_skips_memory(monkeypatch):
    """The lattice runners know a row's lane count without asking: a
    row with none makes no access (its lanes may point anywhere)."""
    module = parse_module("""
define void @k(i64* %p) {
entry:
  %v = load i64, i64* %p
  store i64 %v, i64* %p
  ret void
}
""", "k")
    memory = Memory()
    base = memory.alloc("p", "i64", 1, np.array([41]))
    machine = SimtMachine(module, memory)
    func = module.get_function("k")
    entry = machine._decode(func)
    (_, _, _, _, _, brun_load, _, (vid, _)), \
        (_, _, _, _, _, brun_store, _, _) = entry.steps
    lanes = np.zeros((2, WARP_SIZE), dtype=np.int64)
    ctx = batched._BatchContext(lanes.copy(), np.zeros(2, dtype=np.int64),
                                WARP_SIZE, 1, np.arange(2))
    mask = np.zeros((2, WARP_SIZE), dtype=bool)
    mask[0, :3] = True
    actives = mask.sum(axis=1)
    state = batched._BatchState(ctx, np.zeros(2), np.zeros(2),
                                np.zeros((2, len(CATEGORIES))), None, [])
    # Row 0 addresses the buffer, row 1 the null page.
    addrs = np.zeros((2, WARP_SIZE), dtype=np.int64)
    addrs[0] = base
    args = {id(func.args[0]): addrs}
    loads = spy(monkeypatch, Memory, "load")
    stores = spy(monkeypatch, Memory, "store")
    brun_load(ctx, args, mask, actives, state)
    brun_store(ctx, args, mask, actives, state)
    assert len(loads) == len(stores) == 1
    assert ctx.values[vid][0, :3].tolist() == [41, 41, 41]
    assert not ctx.values[vid][1].any()
    assert state.cycles[0] > 0 and state.cycles[1] == 0


# -- exactness of the new primitives -----------------------------------------

@pytest.fixture(scope="module")
def blocks():
    """``(block, out-edges)`` for every reachable decoded block of the
    six perf kernels and fuzz seeds 0-19 (a fixture, so the modules are
    dropped with this file's last test)."""
    modules = [parse_module((KERNEL_DIR / f"{k}.ir").read_text(), k)
               for k in KERNELS]
    modules += [lower_kernels([generate_kernel(seed)], f"fuzz{seed}")
                for seed in range(20)]
    found = []
    for module in modules:
        machine = SimtMachine(module, Memory())
        for func in module.functions.values():
            seen, work = set(), [machine._decode(func)]
            while work:
                db = work.pop()
                if db.block_id in seen:
                    continue
                seen.add(db.block_id)
                edges = []
                if db.term_kind == machine_mod._T_BR:
                    edges = [db.term]
                elif db.term_kind == machine_mod._T_CONDBR:
                    edges = list(db.term[1:])
                work.extend(edge.target for edge in edges)
                found.append((db, edges))
    return found


def note_issue_per_step(counters, category, active):
    """``Counters.note_issue`` as it was: one instruction, one call."""
    counters.inst_executed += 1
    counters.thread_inst_executed += active
    counters.active_lane_sum += active
    attr = {"misc": "inst_misc", "control": "inst_control",
            "int": "inst_int", "fp": "inst_fp", "load": "inst_load",
            "store": "inst_store"}.get(category)
    if attr is not None:
        setattr(counters, attr, getattr(counters, attr) + active)


def test_sealed_issue_counts_equal_a_step_by_step_replay(blocks):
    assert len(blocks) > 100
    for (db, edges), active in itertools.product(blocks, (1, 7, 32)):
        replay = Counters()
        for step in db.steps:
            note_issue_per_step(replay, step[0], active)
        if db.term_kind <= machine_mod._T_RET:
            note_issue_per_step(replay, "control", active)
        sealed = Counters()
        sealed.note_issue(db.issues, active)
        assert sealed == replay, db.name

        # One call for a lattice of three warps = three per-warp calls.
        lattice = Counters()
        lattice.note_issue(db.issues, 3 * active, 3)
        for _ in range(2):
            replay.merge(sealed)
        assert lattice == replay, db.name

        for edge in edges:
            replay, sealed = Counters(), Counters()
            for _ in edge.moves:
                note_issue_per_step(replay, "misc", active)
            sealed.note_issue(edge.issues, active)
            assert sealed == replay, db.name


def test_charge_memo_is_bit_identical_to_timing_charge(blocks):
    for active in range(1, WARP_SIZE + 1):
        assert machine_mod._PHI_CHARGES[active].hex() == \
            charge(_PHI_COST, active).hex()
        factor = batched._issue_factor(np.array([active, WARP_SIZE]))
        for db, _edges in blocks:
            costs = [step[2] for step in db.steps]
            if db.term_kind <= machine_mod._T_RET:
                costs.append(1)     # Every control terminator issues in 1.
            assert list(db.costs) == costs
            want = [charge(cost, active) for cost in costs]
            assert [c.hex() for c in db.charges(active)] == \
                [c.hex() for c in want]
            assert db.charges(active) is db.charges(active)
            # The lattice's one product holds the per-step products.
            column = db.cost_column * factor
            assert column.shape == (len(costs), 2)
            for row, cost in zip(column, costs):
                assert row.tobytes() == (cost * factor).tobytes()
                assert float(row[0]).hex() == charge(cost, active).hex()


def old_write(slot, value, mask):
    """The masked writer as it was: astype, broadcast, gather, scatter."""
    if value.dtype != slot.dtype:
        value = value.astype(slot.dtype)
    if value.shape != mask.shape:
        value = np.broadcast_to(value, mask.shape)
    slot[mask] = value[mask]


#: Values a step can hand the writer: every storage dtype (kernels), every
#: memory dtype (loads), with the edge values a cast has to survive.
SOURCES = {
    "bool": np.array([True, False] * 16),
    "int8": np.arange(-16, 16, dtype=np.int8),
    "int16": np.arange(-16, 16, dtype=np.int16) * 1000,
    "int32": np.arange(-16, 16, dtype=np.int32) * 100_000_000,
    "int64": np.array([0, 1, -1, 2**62, -2**63, 2**53 + 1] * 5 + [7, 9]),
    "float32": np.array([0.0, -0.0, 1.5, -2.75, 3e38, 1e-40, np.inf,
                         np.nan] * 4, dtype=np.float32),
    "float64": np.array([0.0, -0.0, 1.5, -2.75, 1e300, 2.0**63, -np.inf,
                         np.nan] * 4),
}


@pytest.mark.parametrize("type_", [I1, I64, F32, F64], ids=repr)
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_copyto_writer_equals_the_old_writer(type_, source):
    write = SimtMachine._writer(Argument(type_, "r", 0))
    value = SOURCES[source]
    rng = np.random.default_rng(7)
    even = np.arange(WARP_SIZE) % 2 == 0
    masks = [np.zeros(WARP_SIZE, dtype=bool), np.ones(WARP_SIZE, dtype=bool),
             rng.random(WARP_SIZE) < 0.5,
             # A lattice mask: the (32,) value broadcasts up to it.
             rng.random((3, WARP_SIZE)) < 0.5,
             np.ones((3, WARP_SIZE), dtype=bool)]
    with np.errstate(all="ignore"):
        for mask in masks:
            ctx = types.SimpleNamespace(values={})
            want = np.zeros(mask.shape, dtype=storage_dtype(type_))
            # The first write allocates the slot, the second lands on
            # one that already holds values.
            for val, m in ((value, mask), (value[::-1], mask & even)):
                write(ctx, val, m)
                old_write(want, val, m)
                (slot,) = ctx.values.values()
                assert slot.dtype == want.dtype
                assert slot.tobytes() == want.tobytes(), (source, mask.shape)
