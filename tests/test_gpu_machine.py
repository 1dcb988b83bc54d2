"""SIMT machine tests: semantics, divergence, counters, memory."""

import numpy as np
import pytest

from repro.gpu import Memory, SimtMachine, SimulationError, WARP_SIZE
from repro.gpu.timing import charge
from repro.ir import Module, parse_function, parse_module


def machine_for(text, mem=None):
    module = parse_module(text, "m")
    return SimtMachine(module, mem), module


class TestScalarExecution:
    def test_arithmetic(self):
        m, _ = machine_for("""
define i64 @f(i64 %x) {
entry:
  %a = mul i64 %x, 3
  %b = add i64 %a, 4
  ret i64 %b
}
""")
        ret, _ = m.run_function("f", [5], lanes=1)
        assert ret[0] == 19

    def test_sdiv_truncates_toward_zero(self):
        m, _ = machine_for("""
define i64 @f(i64 %x, i64 %y) {
entry:
  %d = sdiv i64 %x, %y
  ret i64 %d
}
""")
        assert m.run_function("f", [7, 2], lanes=1)[0][0] == 3
        assert m.run_function("f", [-7, 2], lanes=1)[0][0] == -3

    def test_srem_sign_follows_dividend(self):
        m, _ = machine_for("""
define i64 @f(i64 %x, i64 %y) {
entry:
  %r = srem i64 %x, %y
  ret i64 %r
}
""")
        assert m.run_function("f", [7, 3], lanes=1)[0][0] == 1
        assert m.run_function("f", [-7, 3], lanes=1)[0][0] == -1

    def test_i32_wrapping(self):
        m, _ = machine_for("""
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
""")
        assert m.run_function("f", [2**31 - 1], lanes=1)[0][0] == -(2**31)

    def test_select(self):
        m, _ = machine_for("""
define i64 @f(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 0
  %r = select i1 %c, i64 1, i64 -1
  ret i64 %r
}
""")
        assert m.run_function("f", [5], lanes=1)[0][0] == 1
        assert m.run_function("f", [-5], lanes=1)[0][0] == -1


class TestLanes:
    def test_tid_per_lane(self):
        m, _ = machine_for("""
define i64 @f() {
entry:
  %t = call i64 @tid.x()
  %r = mul i64 %t, 2
  ret i64 %r
}
""")
        ret, _ = m.run_function("f", [], lanes=8)
        assert list(ret) == [2 * i for i in range(8)]

    def test_divergent_branch_results(self):
        m, _ = machine_for("""
define i64 @f() {
entry:
  %t = call i64 @tid.x()
  %bit = and i64 %t, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %r = phi i64 [ 100, %a ], [ 200, %b ]
  ret i64 %r
}
""")
        ret, counters = m.run_function("f", [], lanes=8)
        assert list(ret) == [200, 100] * 4
        assert counters.divergent_branches >= 1

    def test_divergent_trip_counts(self):
        # Each lane loops tid times: results must still be exact.
        m, _ = machine_for("""
define i64 @f() {
entry:
  %t = call i64 @tid.x()
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %header ]
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %t
  br i1 %c, label %header, label %exit
exit:
  ret i64 %i
}
""")
        ret, _ = m.run_function("f", [], lanes=8)
        assert list(ret) == [0, 0, 1, 2, 3, 4, 5, 6]

    def test_epoch_scheduler_reconverges(self):
        # A loop whose body splits every iteration: the convergent group
        # scheduler should re-merge lanes at each back-edge traversal, so
        # WEE stays well above the no-reconvergence floor.
        m, _ = machine_for("""
define i64 @f(i64 %n) {
entry:
  %t = call i64 @tid.x()
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %merge ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %merge ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %mix = add i64 %t, %i
  %bit = and i64 %mix, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  %v = phi i64 [ 1, %a ], [ 2, %b ]
  %nacc = add i64 %acc, %v
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
""")
        ret, counters = m.run_function("f", [16], lanes=32)
        # Alternating lanes: half add 1, half add 2 each iteration.
        expected = [16 * (1 if (t % 2 == 1) else 2) for t in range(32)]
        # t+i parity flips per iteration: each lane alternates 1/2.
        expected = [16 // 2 * 3 for _ in range(32)]
        assert list(ret) == expected
        assert counters.warp_execution_efficiency > 45.0


class TestMemoryOps:
    def test_gather_scatter(self):
        text = """
define void @copy(f64* %src, f64* %dst, i64 %n) {
entry:
  %t = call i64 @tid.x()
  %c = icmp slt i64 %t, %n
  br i1 %c, label %do, label %done
do:
  %ps = gep f64* %src, i64 %t
  %v = load f64, f64* %ps
  %pd = gep f64* %dst, i64 %t
  store f64 %v, f64* %pd
  br label %done
done:
  ret void
}
"""
        mem = Memory()
        data = np.arange(16, dtype=np.float64)
        src = mem.alloc("src", "f64", 16, data)
        dst = mem.alloc("dst", "f64", 16)
        machine, _ = machine_for(text, mem)
        machine.launch("copy", 1, 16, [src, dst, 16])
        assert np.array_equal(mem.read_back("dst"), data)

    def test_coalescing_counted(self):
        mem = Memory()
        data = np.zeros(1024)
        src = mem.alloc("src", "f64", 1024, data)
        addrs = src + np.arange(32, dtype=np.int64) * 8
        vals, tx = mem.load(addrs, np.ones(32, dtype=bool), 8)
        assert tx == 8  # 32 consecutive f64 = 256B = 8 x 32B segments.
        strided = src + np.arange(32, dtype=np.int64) * 8 * 16
        _, tx2 = mem.load(strided, np.ones(32, dtype=bool), 8)
        assert tx2 == 32  # Fully scattered.

    def test_unmapped_address_faults(self):
        mem = Memory()
        with pytest.raises(MemoryError):
            mem.load(np.full(32, 8, dtype=np.int64),
                     np.ones(32, dtype=bool), 8)

    def test_global_variables_materialised(self):
        module = parse_module("""
@table = global f64 x 4

define f64 @f() {
entry:
  %p = gep f64* @table, i64 2
  store f64 9.0, f64* %p
  %v = load f64, f64* %p
  ret f64 %v
}
""", "m")
        machine = SimtMachine(module)
        ret, _ = machine.run_function("f", [], lanes=1)
        assert ret[0] == 9.0


class TestCounters:
    def test_misc_counts_selects_and_phi_moves(self):
        m, _ = machine_for("""
define i64 @f(i64 %x) {
entry:
  %c = icmp sgt i64 %x, 0
  %s = select i1 %c, i64 1, i64 2
  ret i64 %s
}
""")
        _, counters = m.run_function("f", [1], lanes=32)
        assert counters.inst_misc == 32  # One select, 32 lanes.

    def test_wee_100_for_uniform(self):
        m, _ = machine_for("""
define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, 1
  ret i64 %a
}
""")
        _, counters = m.run_function("f", [1], lanes=32)
        assert counters.warp_execution_efficiency == pytest.approx(100.0)

    def test_charge_is_activity_weighted(self):
        full = charge(10, 32)
        half = charge(10, 16)
        one = charge(10, 1)
        assert full == pytest.approx(10.0)
        assert half < full
        assert one < half
        assert one > 0

    def test_runaway_kernel_detected(self):
        m, _ = machine_for("""
define void @f() {
entry:
  br label %spin
spin:
  br label %spin
}
""")
        m.max_cycles = 10_000
        with pytest.raises(SimulationError, match="exceeded"):
            m.run_function("f", [], lanes=1)

    # The same spin, a lone warp and a two-warp lattice, on every path:
    # the per-warp scheduler, the lattice dispatcher (``batched``: the jit
    # engine never tiering up, see ``conftest.engine``), and (from the
    # 16th trip) a compiled self-loop region each watch ``max_cycles``.
    @pytest.mark.parametrize("lanes", [1, 64])
    @pytest.mark.parametrize("engine", ["warp", "batched", "jit"],
                             indirect=True)
    def test_runaway_kernel_detected_on_every_path(self, engine, lanes):
        module = parse_module("""
define void @f() {
entry:
  br label %spin
spin:
  br label %spin
}
""", "m")
        m = SimtMachine(module, engine=engine, max_cycles=2_000)
        with pytest.raises(SimulationError, match="exceeded 2000 cycles"):
            m.launch("f", 1, lanes, [])

    @pytest.mark.parametrize("engine", ["batched", "jit"], indirect=True)
    def test_runaway_after_demotion_detected(self, engine, monkeypatch):
        """Warp 0 diverges from warp 1, is handed to the per-warp
        scheduler mid-flight, and half of it spins there."""
        from repro.gpu import batched
        module = parse_module("""
define void @f() {
entry:
  %tid = call i64 @tid.x()
  %low = icmp slt i64 %tid, 16
  br i1 %low, label %spin, label %done
spin:
  br label %spin
done:
  ret void
}
""", "m")
        demoted = []
        real = batched._demote_row
        monkeypatch.setattr(
            batched, "_demote_row",
            lambda *args: (demoted.append(args), real(*args))[1])
        m = SimtMachine(module, engine=engine, max_cycles=2_000)
        with pytest.raises(SimulationError, match="exceeded 2000 cycles"):
            m.launch("f", 1, 64, [])
        assert demoted, "the diverging warp never left the lattice"


class TestPhiParallelCopy:
    """Edge phi moves are a parallel copy: all incomings read before any
    phi is written, even when an incoming *is* a sibling phi of the
    target block (phi swaps/rotations — the shape unmerge produces when
    it resolves a clone's phi straight to a header phi)."""

    SWAP = """
define i64 @f(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  br i1 %c, label %loop, label %exit
exit:
  %hi = mul i64 %a, 10
  %r = add i64 %hi, %b
  ret i64 %r
}
"""

    def test_phi_swap_round_trips(self):
        m, _ = machine_for(self.SWAP)
        # Each back edge swaps (a, b); after an even number of swaps the
        # pair is back to (1, 2).
        assert m.run_function("f", [3], lanes=1)[0][0] == 12  # 2 swaps
        assert m.run_function("f", [2], lanes=1)[0][0] == 21  # 1 swap

    def test_phi_rotation_divergent_lanes(self):
        text = """
define i64 @f(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %a = phi i64 [ %tid, %entry ], [ %b, %loop ]
  %b = phi i64 [ 100, %entry ], [ %c2, %loop ]
  %c2 = phi i64 [ 200, %entry ], [ %a, %loop ]
  %next = add i64 %i, 1
  %cond = icmp slt i64 %next, %n
  br i1 %cond, label %loop, label %exit
exit:
  %h1 = mul i64 %a, 1000000
  %h2 = mul i64 %b, 1000
  %s = add i64 %h1, %h2
  %r = add i64 %s, %c2
  ret i64 %r
}
"""
        m, _ = machine_for(text)
        ret, _ = m.run_function("f", [4], lanes=2)
        # 3 rotations of (tid, 100, 200): back to the start.
        assert ret[0] == 0 * 1000000 + 100 * 1000 + 200
        assert ret[1] == 1 * 1000000 + 100 * 1000 + 200
