"""Unit tests for jit superblock selection (``repro.gpu.regions``).

The engine-equivalence suite pins the jit tier's *results*; this file
pins its *decisions*: which region shapes get selected, how diamonds are
detected (and what disqualifies one), when a diverged warp leaves the
lattice, and which remarks document all of it.
"""

from __future__ import annotations

from repro.gpu import Memory, SimtMachine
from repro.gpu.batched import DEMOTE_HYSTERESIS
from repro.gpu.regions import (R_DIAMOND, R_GUARD, RegionMap, compile_region,
                               select_regions)
from repro.ir.parser import parse_module
from repro.obs import session as obs_session
from tests.conftest import engine_named

SELF_LOOP_IR = """
define i64 @selfloop(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %loop ]
  %t = mul i64 %acc, 7
  %acc.next = add i64 %t, %i
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""

# Both arms end in an unconditional br to the same join, no phi moves on
# the way in: the canonical diamond.
DIAMOND_IR = """
define i64 @diamond(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %bit = and i64 %tid, 1
  %odd = icmp eq i64 %bit, 1
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %join ]
  %acc = phi i64 [ %tid, %entry ], [ %acc.next, %join ]
  br i1 %odd, label %a, label %b
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

# Same condition, but the false arm detours through an extra block before
# the join, so the arms do NOT rejoin symmetrically -> guard, not diamond.
ASYMMETRIC_IR = """
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


def regions_of(ir_text: str, name: str = "m"):
    module = parse_module(ir_text, name)
    func = next(iter(module.functions.values()))
    machine = SimtMachine(module, Memory(), engine="jit")
    regions = RegionMap(func.name)
    select_regions(regions, machine, func)
    for head_id in list(regions.plans):     # As if every head had got hot.
        compile_region(regions, head_id)
    return regions, machine._decode(func)


def region_at(regions, entry, block_name: str):
    heads = {r.head_name: r for r in regions.values()}
    assert block_name in heads, (
        f"no region headed at {block_name}; heads: {sorted(heads)}")
    return heads[block_name]


# -- selection ----------------------------------------------------------------

def test_self_loop_region_selected():
    regions, entry = regions_of(SELF_LOOP_IR)
    loop = region_at(regions, entry, "loop")
    assert loop.loopback
    assert loop.self_loop is not None
    assert loop.ops[0].kind == R_GUARD
    assert loop.ops[0].next_i == 0
    # Memory-free single-warp shape: the scalar replay mode is valid.
    assert loop.scalar_ok


def test_diamond_selected_and_vector_only():
    regions, entry = regions_of(DIAMOND_IR)
    loop = region_at(regions, entry, "loop")
    dia = [op for op in loop.ops if op.kind == R_DIAMOND]
    assert len(dia) == 1
    op = dia[0]
    # An arm is its decoded block, as the interpreter runs it.
    assert op.arm_t.name == "a" and op.arm_f.name == "b"
    issues, _cat_counts = op.arm_t.issues
    assert issues == len(op.arm_t.steps) + 1    # steps + the arm's br.
    # Arms run masked with per-row accounting: no scalar replay.
    assert not loop.scalar_ok
    # The loop back-edge was still followed past the join.
    assert loop.loopback


def test_asymmetric_arms_fall_back_to_guard():
    regions, entry = regions_of(ASYMMETRIC_IR)
    loop = region_at(regions, entry, "loop")
    assert not any(op.kind == R_DIAMOND for op in loop.ops)
    assert any(op.kind == R_GUARD for op in loop.ops)


def test_region_remarks_document_selection():
    session = obs_session.install()
    try:
        regions, entry = regions_of(DIAMOND_IR)
    finally:
        obs_session.uninstall()
    remarks = [r for r in session.remarks if r.pass_name == "jit"]
    assert remarks and all(r.kind == "analysis" for r in remarks)
    compiled = [r for r in remarks if "compiled superblock" in r.message]
    assert any(r.args.get("diamonds", 0) > 0 for r in compiled)
    assert any(r.args.get("mode") == "vector" for r in compiled)
    # Every remark names its head block so streams are greppable.
    assert all(r.args.get("head") for r in remarks)


# -- demotion hysteresis ------------------------------------------------------

BRIEFDIV_IR = """
define i64 @briefdiv(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  %ctaid = call i64 @ctaid.x()
  %ntid = call i64 @ntid.x()
  %base = mul i64 %ctaid, %ntid
  %gid = add i64 %base, %tid
  %first = icmp slt i64 %gid, 32
  br i1 %first, label %prelude, label %main
prelude:
  %p = mul i64 %gid, 17
  br label %main
main:
  %seed = phi i64 [ %p, %prelude ], [ %gid, %entry ]
  br label %loop
loop:
  %i = phi i64 [ 0, %main ], [ %i.next, %loop ]
  %acc = phi i64 [ %seed, %main ], [ %acc.next, %loop ]
  %t = mul i64 %acc, 1103515245
  %acc.next = add i64 %t, %i
  %i.next = add i64 %i, 1
  %done = icmp sge i64 %i.next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i64 %acc.next
}
"""


def _demotions(trips: int = 50) -> int:
    """Run briefdiv (one warp takes a prelude) and count row demotions."""
    session = obs_session.install()
    try:
        module = parse_module(BRIEFDIV_IR, "briefdiv")
        machine = SimtMachine(module, Memory(), engine="jit")
        func = next(iter(module.functions.values()))
        machine.launch(func, 1, 128, [trips])
    finally:
        obs_session.uninstall()
    return len(session.profile.demotions)


def test_hysteresis_is_engine_dependent(tier_up_at_once):
    """The first split demotes without a compiled region, not with one.

    briefdiv splits its 4-row lattice once (warp 0 takes the prelude).
    With nothing compiled the singleton demotes immediately — a 1-row
    lattice is slower than the per-warp engine — while with regions it
    stays vectorized so the row re-enters them (``DEMOTE_HYSTERESIS``
    splits must be survived before a singleton is handed over).
    """
    assert DEMOTE_HYSTERESIS > 1
    with engine_named("batched"):           # Never tiering up.
        assert _demotions() > 0
    assert _demotions() == 0


def test_hysteresis_waits_for_a_compiled_region():
    """A one-row lattice is only worth keeping for a region to re-enter.

    At the real threshold nothing is compiled when briefdiv splits (the
    entry block's first dispatch); what counts is whether anything is
    when the singleton's turn comes.  In a launch too short to get hot
    the jit demotes it, instead of paying lattice accounting on one row
    for nothing; in a long one the other rows have compiled the loop by
    then, and it stays on the lattice to enter that region.
    """
    assert _demotions(trips=5) > 0
    assert _demotions(trips=50) == 0
