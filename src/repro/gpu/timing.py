"""Per-opcode issue/latency timing model (V100-flavoured).

The model is deliberately simple — relative, not absolute, accuracy is the
goal (see DESIGN.md): every warp-instruction issue costs its issue cycles
regardless of how many lanes are active (the SIMT under-utilisation the
paper's *warp_execution_efficiency* measures), loads add a latency that
grows with the number of memory transactions (coalescing), and instruction
fetch stalls are charged by the icache model.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Tuple

#: Version tag of the whole timing model.  Any change to the constants or
#: formulas in this module (or to the icache/memory latency models built on
#: them) must bump this tag: it is folded into the persistent cell-cache key
#: (:mod:`repro.harness.cache`) so stale cached measurements self-invalidate.
#: v2: cycles are summed as exact integer ticks (see :func:`tick_unit`).
TIMING_MODEL_VERSION = "timing-v2"

#: Lanes per warp.
WARP_SIZE = 32

#: Simulated SM clock (V100 boost clock, Hz) used to convert cycles to ms.
CLOCK_HZ = 1.38e9

#: Issue cycles per warp instruction, by opcode category/opcode.
ISSUE_CYCLES = {
    "int": 1,
    "fp": 2,
    "misc": 1,       # selp / mov
    "control": 1,
    "load": 2,       # Address + issue; latency added separately.
    "store": 2,
    "special": 2,
}

#: Extra issue cycles for expensive opcodes (on top of category cost).
OPCODE_EXTRA = {
    "mul": 1,
    "sdiv": 12,
    "udiv": 12,
    "srem": 12,
    "urem": 12,
    "fdiv": 14,
    "frem": 16,
}

INTRINSIC_EXTRA = {
    "sqrt": 12,
    "exp": 16,
    "log": 16,
    "sin": 16,
    "cos": 16,
    "pow": 24,
    "atan": 18,
    "syncthreads": 8,
}

#: Exposed memory latency per load (cycles); warps partially hide latency,
#: so this is far below the ~400-cycle raw DRAM latency.
LOAD_BASE_LATENCY = 12
#: Additional cycles per extra 32-byte transaction (uncoalesced penalty).
LOAD_TRANSACTION_CYCLES = 4
STORE_TRANSACTION_CYCLES = 2

#: Instruction-cache model: capacity in instruction slots and miss penalty.
ICACHE_CAPACITY = 2048
ICACHE_MISS_BASE = 2
ICACHE_FETCH_WIDTH = 4  # Instructions fetched per miss cycle.


#: How warp-instruction cost splits between a fixed per-issue component and
#: a lane-activity-proportional component.  A real SM hides most of the
#: issue cost of partially-active warps behind other resident warps: kernel
#: time tracks per-*thread* work much more closely than raw issue counts.
#: This is why the paper's XSBench gets 1.36x faster even though its warp
#: execution efficiency collapses (Section V) — and the fixed fraction plus
#: the icache model are what still punish `complex`-style divergence.
ISSUE_FIXED_FRACTION = 0.06
ACTIVITY_FRACTION = 0.94


def tick_unit(fixed: float, activity: float) -> Tuple[int, int, int]:
    """``(ticks per cycle, fixed ticks, ticks per active lane)``.

    Cycles are counted in *ticks*, the least common denominator of the
    charge factor ``fixed + activity * active / WARP_SIZE`` read as the
    decimals the constants spell (``0.06`` is 3/50, ``0.94 / 32`` is
    47/1600: 1 600 ticks per cycle).  An issue of ``cost`` cycles at
    ``active`` lanes is then the whole number ``cost * (fixed ticks +
    ticks per lane * active)``, and so is every latency and stall, so the
    engines add integers, in any order, and agree exactly.
    """
    fixed_q = Fraction(repr(fixed))
    lane_q = Fraction(repr(activity)) / WARP_SIZE
    per_cycle = lcm(fixed_q.denominator, lane_q.denominator)
    # Ticks live in int64 lattices: 2**31 cycles must fit.
    if per_cycle >= 1 << 32:
        raise ValueError(f"timing constants {fixed!r}, {activity!r} need "
                         f"{per_cycle} ticks per cycle")
    return (per_cycle, int(fixed_q * per_cycle), int(lane_q * per_cycle))


TICKS_PER_CYCLE, FIXED_T, ACT_T = tick_unit(ISSUE_FIXED_FRACTION,
                                            ACTIVITY_FRACTION)


def issue_cost(category: str, opcode: str, intrinsic: str = "") -> int:
    """Issue cycles for one warp instruction (full warp)."""
    cost = ISSUE_CYCLES.get(category, 1)
    cost += OPCODE_EXTRA.get(opcode, 0)
    if intrinsic:
        cost += INTRINSIC_EXTRA.get(intrinsic, 0)
    return cost


def ticks(cost: int, active: int) -> int:
    """Tick charge for issuing ``cost`` cycles at ``active`` lanes."""
    return cost * (FIXED_T + ACT_T * active)


def charge(cost: int, active: int) -> float:
    """The same charge in cycles: for reports, never for sums."""
    return ticks(cost, active) / TICKS_PER_CYCLE


def load_latency(transactions: int) -> int:
    """Exposed latency of a load touching ``transactions`` segments."""
    if transactions <= 0:
        return 0
    return LOAD_BASE_LATENCY + LOAD_TRANSACTION_CYCLES * (transactions - 1)


def store_cost(transactions: int) -> int:
    if transactions <= 0:
        return 0
    return STORE_TRANSACTION_CYCLES * transactions


def cycles_to_ms(cycles: float) -> float:
    return cycles / CLOCK_HZ * 1e3
