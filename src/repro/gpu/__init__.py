"""SIMT GPU simulation substrate (the stand-in for the paper's V100)."""

from .counters import CATEGORIES, Counters
from .icache import InstructionCache
from .machine import (ENGINES, LaunchResult, SimtMachine, SimulationError,
                      WARP_SIZE, resolve_engine)
from .memory import Memory, MemoryStats, SEGMENT_BYTES
from .timing import CLOCK_HZ, cycles_to_ms

__all__ = [
    "SimtMachine", "LaunchResult", "SimulationError", "WARP_SIZE",
    "ENGINES", "resolve_engine",
    "Memory", "MemoryStats", "SEGMENT_BYTES",
    "Counters", "CATEGORIES", "InstructionCache",
    "CLOCK_HZ", "cycles_to_ms",
]
