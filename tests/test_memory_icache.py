"""Memory subsystem and instruction-cache model tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.icache import InstructionCache
from repro.gpu.memory import Memory, MemoryStats, SEGMENT_BYTES
from repro.gpu.timing import charge, cycles_to_ms, issue_cost, load_latency


class TestMemoryAllocation:
    def test_alloc_alignment_and_disjointness(self):
        mem = Memory()
        a = mem.alloc("a", "f64", 10)
        b = mem.alloc("b", "i64", 10)
        assert a % 256 == 0
        assert b >= a + 10 * 8

    def test_initializer_copied(self):
        mem = Memory()
        data = np.ones(4)
        mem.alloc("a", "f64", 4, data)
        data[0] = 99.0  # Host-side mutation must not leak into the device.
        assert mem.read_back("a")[0] == 1.0

    def test_initializer_size_checked(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.alloc("a", "f64", 4, np.ones(5))

    def test_dtypes(self):
        mem = Memory()
        mem.alloc("a", "i32", 4, np.array([1, 2, 3, 4]))
        assert mem.buffer("a").elem_size == 4
        mem.alloc("b", "f32", 4)
        assert mem.buffer("b").elem_size == 4


class TestLoadStore:
    def test_masked_lanes_untouched(self):
        mem = Memory()
        base = mem.alloc("a", "f64", 32, np.arange(32, dtype=np.float64))
        addrs = base + np.arange(32, dtype=np.int64) * 8
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        vals, _ = mem.load(addrs, mask, 8)
        assert list(vals[:4]) == [0.0, 1.0, 2.0, 3.0]
        assert not vals[4:].any()  # Inactive lanes read as zero fill.

    def test_store_masked(self):
        mem = Memory()
        base = mem.alloc("a", "f64", 8)
        addrs = base + np.arange(8, dtype=np.int64) * 8
        mask = np.array([True, False] * 4)
        mem.store(addrs, np.full(8, 7.0), mask, 8)
        out = mem.read_back("a")
        assert list(out) == [7.0, 0.0] * 4

    def test_traffic_stats(self):
        mem = Memory()
        base = mem.alloc("a", "f64", 32)
        addrs = base + np.arange(32, dtype=np.int64) * 8
        mask = np.ones(32, dtype=bool)
        mem.load(addrs, mask, 8)
        mem.store(addrs, np.zeros(32), mask, 8)
        assert mem.stats.load_requests == 1
        assert mem.stats.store_requests == 1
        assert mem.stats.bytes_loaded == 32 * 8
        assert mem.stats.bytes_stored == 32 * 8

    def test_empty_mask_is_free(self):
        mem = Memory()
        base = mem.alloc("a", "f64", 4)
        addrs = np.full(32, base, dtype=np.int64)
        _, tx = mem.load(addrs, np.zeros(32, dtype=bool), 8)
        assert tx == 0
        assert mem.stats.load_requests == 0

    @pytest.mark.parametrize("dtype", ["i8", "i16", "i32", "i64", "f32",
                                       "f64"])
    def test_empty_mask_zero_fill_has_the_buffer_dtype(self, dtype):
        """An access with no active lane used to come back float64
        whatever it addressed; both runners cast, so only a direct
        caller could see it."""
        mem = Memory()
        base = mem.alloc("a", dtype, 32)
        elem = mem.buffer("a").elem_size
        addrs = base + np.arange(32, dtype=np.int64) * elem
        full, _ = mem.load(addrs, np.ones(32, dtype=bool), elem)
        empty, tx = mem.load(addrs, np.zeros(32, dtype=bool), elem)
        assert empty.dtype == full.dtype == mem.buffer("a").data.dtype
        assert tx == 0 and not empty.any()
        # Lanes that point nowhere: nothing to be faithful to, no fault.
        nowhere, tx = mem.load(np.zeros(32, dtype=np.int64),
                               np.zeros(32, dtype=bool), elem)
        assert nowhere.shape == (32,) and tx == 0 and not nowhere.any()


class TestUnmapped:
    """``_find`` bisects the start addresses; what is mapped and what
    faults is what the linear scan said."""

    def fault(self, mem, addr):
        with pytest.raises(MemoryError) as exc:
            mem.load(np.full(32, addr, dtype=np.int64),
                     np.ones(32, dtype=bool), 1)
        assert str(exc.value) == \
            f"simulated segfault: address {addr:#x} unmapped"

    def test_boundaries(self):
        mem = Memory()
        a = mem.alloc("a", "i8", 10)        # [a, a + 10)
        b = mem.alloc("b", "i32", 3)        # [b, b + 12), 256-aligned.
        assert b == a + 256
        one = np.ones(32, dtype=bool)
        for addr in (a, a + 9, b, b + 11):  # First and last mapped bytes.
            mem.load(np.full(32, addr, dtype=np.int64), one, 1)
        self.fault(mem, 0)                  # The null page...
        self.fault(mem, a - 1)              # ...up to the first buffer.
        self.fault(mem, a + 10)             # One past the end.
        self.fault(mem, b - 1)              # The alignment gap.
        self.fault(mem, b + 12)             # Past the last buffer.
        self.fault(mem, -8)

    def test_nothing_allocated(self):
        self.fault(Memory(), 0x1000)

    def test_many_buffers_each_found(self):
        mem = Memory()
        bases = [mem.alloc(f"b{i}", "i64", 4, np.full(4, i))
                 for i in range(40)]
        for i, base in enumerate(bases):
            vals, _ = mem.load(np.full(32, base + 24, dtype=np.int64),
                               np.ones(32, dtype=bool), 8)
            assert vals[0] == i
            assert mem.buffer(f"b{i}").end == base + 32


# -- exactness of the access primitives --------------------------------------
#
# ``load``/``store`` below are the formulas the machine used before the
# per-step tax went (np.flatnonzero, two-sided bounds compare, np.unique):
# the reference the rewritten primitives must match value for value,
# transaction for transaction, statistic for statistic.

def reference_load(mem, stats, addrs, mask, elem_size):
    active = np.flatnonzero(mask)
    if active.size == 0:
        return None, 0
    first = mem._find(int(addrs[active[0]]))
    lane_addrs = addrs[active]
    if (lane_addrs < first.start).any() or (lane_addrs >= first.end).any():
        out = np.zeros(addrs.shape[0], dtype=np.float64)
        segments = set()
        for lane in active:
            buf = mem._find(int(addrs[lane]))
            out[lane] = buf.data[(int(addrs[lane]) - buf.start)
                                 // buf.elem_size]
            segments.add(int(addrs[lane]) // SEGMENT_BYTES)
        transactions = len(segments)
    else:
        out = np.zeros(addrs.shape[0], dtype=first.data.dtype)
        out[active] = first.data[(lane_addrs - first.start)
                                 // first.elem_size]
        transactions = int(np.unique(lane_addrs // SEGMENT_BYTES).size)
    stats.load_requests += 1
    stats.load_transactions += transactions
    stats.bytes_loaded += int(active.size) * elem_size
    return out, transactions


def reference_store(mem, stats, addrs, values, mask, elem_size):
    active = np.flatnonzero(mask)
    if active.size == 0:
        return 0
    first = mem._find(int(addrs[active[0]]))
    lane_addrs = addrs[active]
    if (lane_addrs < first.start).any() or (lane_addrs >= first.end).any():
        for lane in active:
            buf = mem._find(int(addrs[lane]))
            buf.data[(int(addrs[lane]) - buf.start) // buf.elem_size] = \
                values[lane]
    else:
        first.data[(lane_addrs - first.start) // first.elem_size] = \
            values[active]
    transactions = int(np.unique(lane_addrs // SEGMENT_BYTES).size)
    stats.store_requests += 1
    stats.store_transactions += transactions
    stats.bytes_stored += int(active.size) * elem_size
    return transactions


def two_buffers():
    """Two i64 buffers of 600 elements, an alignment gap between them."""
    mem = Memory()
    a = mem.alloc("a", "i64", 600, np.arange(600))
    b = mem.alloc("b", "i64", 600, np.arange(600) + 10_000)
    return mem, a, b


@st.composite
def accesses(draw):
    """1-32 lanes over two buffers: byte offsets at a 1/4/32/128-byte
    stride — random (duplicates, any order) or consecutive — mostly in
    the first buffer, sometimes spanning both (the per-lane slow path)."""
    lanes = draw(st.integers(1, 32))
    stride = draw(st.sampled_from([1, 4, 32, 128]))
    span = (600 * 8 - 1) // stride
    picks = draw(st.one_of(
        st.lists(st.integers(0, span), min_size=lanes, max_size=lanes),
        st.integers(0, span - lanes).map(
            lambda lo: list(range(lo, lo + lanes)))))
    second = draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes)
                  if draw(st.booleans()) else st.just([False] * lanes))
    mask = draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))
    return [p * stride for p in picks], second, mask


@settings(max_examples=200, deadline=None)
@given(accesses())
def test_load_and_store_match_the_reference_formulas(access):
    offsets, second, mask = access
    mem, a, b = two_buffers()
    ref, ra, rb = two_buffers()
    assert (a, b) == (ra, rb)
    addrs = np.array([(b if s else a) + off
                      for off, s in zip(offsets, second)], dtype=np.int64)
    mask = np.array(mask, dtype=bool)
    values = np.arange(len(offsets), dtype=np.int64) + 77

    ref_stats = MemoryStats()
    want, want_tx = reference_load(ref, ref_stats, addrs, mask, 8)
    got, got_tx = mem.load(addrs, mask, 8)
    assert got_tx == want_tx
    if mask.any():
        assert got_tx == np.unique(addrs[mask] // SEGMENT_BYTES).size
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    assert mem.store(addrs, values, mask, 8) == \
        reference_store(ref, ref_stats, addrs, values, mask, 8)
    for name in ("a", "b"):
        assert mem.read_back(name).tobytes() == ref.read_back(name).tobytes()
    assert dataclasses.asdict(mem.stats) == dataclasses.asdict(ref_stats)


class TestICache:
    def test_hit_after_miss(self):
        ic = InstructionCache(capacity=100)
        first = ic.access(1, 20)
        second = ic.access(1, 20)
        assert first > 0
        assert second == 0
        assert ic.hits == 1 and ic.misses == 1

    def test_lru_eviction(self):
        ic = InstructionCache(capacity=40)
        ic.access(1, 20)
        ic.access(2, 20)
        ic.access(3, 20)   # Evicts 1.
        assert ic.access(1, 20) > 0
        assert ic.misses == 4

    def test_stall_scales_with_block_size(self):
        ic = InstructionCache(capacity=10_000)
        small = ic.access(1, 4)
        big = ic.access(2, 400)
        assert big > small

    def test_thrash_accumulates_stalls(self):
        ic = InstructionCache(capacity=64)
        for _ in range(10):
            for block in range(8):
                ic.access(block, 32)
        assert ic.misses >= 40  # Working set 256 > 64: constant misses.


class TestTiming:
    def test_issue_cost_tiers(self):
        assert issue_cost("int", "add") < issue_cost("int", "sdiv")
        assert issue_cost("fp", "fdiv") > issue_cost("fp", "fadd")
        assert issue_cost("special", "call", "exp") > \
            issue_cost("special", "call", "fabs")

    def test_load_latency_grows_with_transactions(self):
        assert load_latency(1) < load_latency(8) < load_latency(32)
        assert load_latency(0) == 0

    def test_cycles_to_ms(self):
        assert cycles_to_ms(1.38e9) == pytest.approx(1000.0)

    def test_full_warp_charge_is_cost(self):
        assert charge(10, 32) == pytest.approx(10.0)
