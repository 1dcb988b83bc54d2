"""Instruction-cache model.

u&u can inflate a loop body past what the fetch path streams for free; the
paper observes exactly this on `complex` (stall_inst_fetch 3.7 % -> 79.6 %)
and `haccmk`.  The model is an LRU cache of basic blocks with a capacity in
instruction slots: entering a resident block is free, a miss stalls for a
few cycles plus the time to stream the block in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from .timing import ICACHE_CAPACITY, ICACHE_FETCH_WIDTH, ICACHE_MISS_BASE


class InstructionCache:
    """LRU basic-block instruction cache."""

    def __init__(self, capacity: int = ICACHE_CAPACITY) -> None:
        self.capacity = capacity
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.stall_cycles = 0

    def clone(self) -> "InstructionCache":
        """Independent copy with identical residency and statistics.

        The lattice dispatcher runs one representative cache for every warp of a
        batch (their access sequences are identical by construction); when a
        warp demotes or a batch splits, each part continues from a clone.
        """
        copy = InstructionCache(self.capacity)
        copy._resident = OrderedDict(self._resident)
        copy._used = self._used
        copy.hits = self.hits
        copy.misses = self.misses
        copy.stall_cycles = self.stall_cycles
        return copy

    def access(self, block_id: int, block_size: int) -> int:
        """Charge one block entry; returns the fetch stall in cycles."""
        size = max(1, block_size)
        if block_id in self._resident:
            self._resident.move_to_end(block_id)
            self.hits += 1
            return 0
        self.misses += 1
        while self._used + size > self.capacity and self._resident:
            _, evicted = self._resident.popitem(last=False)
            self._used -= evicted
        self._resident[block_id] = size
        self._used += size
        stall = ICACHE_MISS_BASE + (size + ICACHE_FETCH_WIDTH - 1) // ICACHE_FETCH_WIDTH
        self.stall_cycles += stall
        return stall
