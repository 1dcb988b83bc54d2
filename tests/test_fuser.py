"""Unit tests for the jit expression fuser (``repro.gpu.fuser``).

The engine-equivalence suite pins fused execution bit-identical to the
other engines; this file pins the fuser's *decisions* and mechanics:
which step runs become segments, where liveouts are required, that the
generated code objects are shared across identical functions, and that
fused chains compute what the unfused per-step closures compute.
"""

from __future__ import annotations

import numpy as np

from repro.gpu import Memory, SimtMachine, fuser
from repro.gpu.fuser import MIN_CHAIN, _CODE_CACHE, find_segments, use_counts
from repro.gpu.regions import RegionMap, compile_region, select_regions
from repro.ir.parser import parse_module

CHAIN_IR = """
define i64 @chain(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %loop ]
  %t1 = mul i64 %acc, 1103515245
  %t2 = add i64 %t1, 12345
  %t3 = xor i64 %t2, %i
  %t4 = lshr i64 %t3, 9
  %t5 = add i64 %t4, %t2
  %big = icmp sgt i64 %t5, 524287
  %sel = select i1 %big, i64 %t4, i64 %t5
  %acc.next = and i64 %sel, 16777215
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""

# A store in the middle of the chain: memory steps are fusion barriers,
# so the chain must split around it (front long enough to fuse, back not).
SPLIT_IR = """
define void @split(i64* %buf, i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %loop ]
  %t1 = mul i64 %acc, 7
  %t2 = add i64 %t1, %i
  %t3 = xor i64 %t2, 5
  %t4 = and i64 %t3, 1048575
  %addr = gep i64* %buf, i64 %tid
  store i64 %t4, i64* %addr
  %acc.next = add i64 %t4, 1
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret void
}
"""


def decoded_block(ir_text: str, block: str, name: str = "m"):
    module = parse_module(ir_text, name)
    func = next(iter(module.functions.values()))
    machine = SimtMachine(module, Memory(), engine="jit")
    entry = machine._decode(func)
    stack, seen = [entry], set()
    while stack:
        db = stack.pop()
        if id(db) in seen:
            continue
        seen.add(id(db))
        if db.name == block:
            return machine, func, db
        if db.term_kind == 0:        # _T_BR
            stack.append(db.term.target)
        elif db.term_kind == 1:      # _T_CONDBR
            stack.extend((db.term[1].target, db.term[2].target))
    raise AssertionError(f"no block named {block}")


# -- chain analysis -----------------------------------------------------------

def test_whole_block_chain_is_one_segment():
    machine, func, loop = decoded_block(CHAIN_IR, "loop")
    segments = find_segments(loop.steps, use_counts(func))
    assert len(segments) == 1
    lo, hi, live = segments[0]
    # Every step in the loop body (10 binops/icmps/selects) joins.
    assert (lo, hi) == (0, len(loop.steps))
    assert len(live) == hi - lo


def test_liveouts_mark_exactly_the_externally_used_values():
    machine, func, loop = decoded_block(CHAIN_IR, "loop")
    (lo, hi, live), = find_segments(loop.steps, use_counts(func))
    by_name = {loop.steps[k][7][2].name: live[k - lo] for k in range(lo, hi)}
    # Used by phis (next iteration), the terminator, or the exit block:
    assert by_name["acc.next"] == 1
    assert by_name["i.next"] == 1   # phi incoming (done's use is internal)
    assert by_name["done"] == 1     # the conditional branch reads it
    # Pure intermediates die inside the segment: no store is emitted.
    for name in ("t1", "t2", "t3", "t4", "t5", "big", "sel"):
        assert by_name[name] == 0, f"{name} should be dead outside"


def test_memory_step_breaks_the_chain():
    machine, func, loop = decoded_block(SPLIT_IR, "loop")
    segments = find_segments(loop.steps, use_counts(func))
    # Front: t1..t4 + the gep (5 fusible steps).  The store is a barrier;
    # the tail (acc.next, i.next, done) is below MIN_CHAIN and stays
    # on the specialized per-step closures.
    assert len(segments) == 1
    lo, hi, _ = segments[0]
    assert lo == 0
    assert loop.steps[hi][3] != 0 or loop.steps[hi][7] is None \
        or loop.steps[hi][7][2].name != "t4"


def test_min_chain_floor_is_enforced():
    machine, func, loop = decoded_block(SPLIT_IR, "loop")
    segments = find_segments(loop.steps, use_counts(func))
    for lo, hi, _ in segments:
        assert hi - lo >= MIN_CHAIN


# -- region integration -------------------------------------------------------

def region_fused_counts(ir_text: str):
    module = parse_module(ir_text, "m")
    func = next(iter(module.functions.values()))
    machine = SimtMachine(module, Memory(), engine="jit")
    regions = RegionMap(func.name)
    select_regions(regions, machine, func)
    for head_id in list(regions.plans):     # As if every head had got hot.
        compile_region(regions, head_id)
    return (sum(r.fused_segments for r in regions.values()),
            sum(r.fused_steps for r in regions.values()),
            max((r.max_chain for r in regions.values()), default=0))


def test_compiled_regions_carry_fusion_accounting():
    segments, steps, max_chain = region_fused_counts(CHAIN_IR)
    assert segments > 0
    assert steps >= 10          # the loop body chain at minimum
    assert max_chain >= 10


def test_fused_results_match_warp_engine(tier_up_at_once):
    outs = {}
    for engine in ("warp", "jit"):
        module = parse_module(CHAIN_IR, "chain")
        machine = SimtMachine(module, Memory(), engine=engine)
        result = machine.launch("chain", 1, 64, [50])
        outs[engine] = (result.return_values.tobytes(), result.counters)
    assert outs["jit"][0] == outs["warp"][0]
    assert outs["jit"][1] == outs["warp"][1]


def test_generated_code_objects_are_shared_across_reparses():
    """Identical IR in a fresh machine must not recompile its segments.

    The generated source is id-free (SSA slots bind through the closure
    namespace), so the (filename, source) memo hits across re-parses —
    this is what amortizes codegen over repeated launches.
    """
    region_fused_counts(CHAIN_IR)      # Prime the cache.
    before = dict(_CODE_CACHE)
    region_fused_counts(CHAIN_IR)      # Fresh parse, same IR.
    assert dict(_CODE_CACHE) == before, \
        "re-parsing identical IR created new code objects"


def test_fused_numpy_values_match_unfused(monkeypatch, tier_up_at_once):
    """Value arrays agree elementwise between fused and unfused runs.

    With the chain floor out of reach no segment forms, and the jit runs
    the chain as the per-step closures every short chain uses.
    """
    results = {}
    for floor in (MIN_CHAIN, 10**9):
        monkeypatch.setattr(fuser, "MIN_CHAIN", floor)
        module = parse_module(CHAIN_IR, "chain")
        machine = SimtMachine(module, Memory(), engine="jit")
        result = machine.launch("chain", 2, 96, [40])
        fused = sum(r.fused_steps for r in machine._regions[
            id(module.functions["chain"])].values())
        assert (fused > 0) == (floor == MIN_CHAIN)
        results[floor] = np.asarray(result.return_values)
    np.testing.assert_array_equal(results[MIN_CHAIN], results[10**9])
