"""Benchmark infrastructure.

Each of the 16 HeCBench analogs (paper Table I) subclasses
:class:`Benchmark`: it declares its kernels in the structured frontend,
allocates and initialises its simulated device buffers, and describes the
kernel launches.  The harness compiles the module under a pipeline
configuration, runs the launches on the SIMT machine, and reads back the
output buffers for differential checking.

Paper-anchored metadata (category, command line, compute fraction ``%C``,
baseline RSD) is carried verbatim from Table I so the harness can print the
table and convert simulated cycles into paper-scale milliseconds (see
DESIGN.md, "Known deviations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..frontend.ast import KernelDef
from ..frontend.lower import lower_kernels
from ..gpu.counters import Counters
from ..gpu.machine import WARP_SIZE, SimtMachine
from ..gpu.memory import Memory
from ..ir.module import Module


def scale_geometry(grid_dim: int, block_dim: int,
                   scale: int) -> Tuple[int, int]:
    """Shrink a launch to roughly ``1/scale`` of its threads.

    Used by the autotuner's successive-halving rounds: early rounds rank
    candidates on a reduced geometry and only survivors get full-size
    timing.  Whole blocks are dropped first; once a single block remains,
    it is shrunk in whole warps (never below one warp, so intra-warp
    divergence behaviour is preserved).  ``scale <= 1`` is the identity.
    """
    if scale <= 1:
        return grid_dim, block_dim
    total = grid_dim * block_dim
    target = max(1, total // scale)
    if target >= block_dim:
        return max(1, target // block_dim), block_dim
    if block_dim >= WARP_SIZE:
        warps = max(1, (block_dim // WARP_SIZE) // scale)
        return 1, warps * WARP_SIZE
    return 1, max(1, block_dim // scale)


@dataclass
class Launch:
    """One kernel launch: which kernel, geometry, and argument values.

    ``args`` entries are either literal scalars or ``("buf", name)`` pairs
    resolved to buffer base addresses at run time.
    """

    kernel: str
    grid_dim: int
    block_dim: int
    args: List


@dataclass
class PaperNumbers:
    """Table I reference values (for EXPERIMENTS.md side-by-side output)."""

    loops: int
    compute_percent: float
    baseline_ms: float
    baseline_rsd: float
    heuristic_ms: float
    heuristic_rsd: float


class Benchmark:
    """Base class for one benchmark analog."""

    #: Unique short name (Table I "Name").
    name: str = ""
    #: Table I "Category".
    category: str = ""
    #: Table I "Command Line".
    command_line: str = ""
    #: Paper reference numbers.
    paper: PaperNumbers = PaperNumbers(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    #: Default RNG seed for workload generation (determinism).
    seed: int = 2024

    # -- to be provided by subclasses ------------------------------------
    def kernels(self) -> List[KernelDef]:
        """Kernel definitions (frontend ASTs)."""
        raise NotImplementedError

    def setup(self, mem: Memory, rng: np.random.Generator) -> Dict[str, int]:
        """Allocate and initialise device buffers; returns name -> address."""
        raise NotImplementedError

    def launches(self) -> List[Launch]:
        """The launch sequence of one measured run."""
        raise NotImplementedError

    def output_buffers(self) -> List[str]:
        """Buffers whose contents define the benchmark's observable result."""
        raise NotImplementedError

    # -- provided -----------------------------------------------------------
    def build_module(self) -> Module:
        """Lower all kernels into a fresh module."""
        return lower_kernels(self.kernels(), self.name)

    def run(self, module: Module, engine: Optional[str] = None,
            scale: int = 1) -> Tuple[Dict[str, np.ndarray], Counters]:
        """Execute the workload on a fresh memory; returns outputs+counters.

        ``scale > 1`` runs a reduced launch geometry (see
        :func:`scale_geometry`) — the autotuner's cheap screening rounds.
        Scaled outputs are only comparable to equally-scaled references.
        """
        rng = np.random.default_rng(self.seed)
        mem = Memory()
        buffers = self.setup(mem, rng)
        machine = SimtMachine(module, mem, engine=engine)
        total = Counters()
        for launch in self.launches():
            args = [buffers[a[1]] if isinstance(a, tuple) and a[0] == "buf"
                    else a for a in launch.args]
            grid_dim, block_dim = scale_geometry(launch.grid_dim,
                                                 launch.block_dim, scale)
            result = machine.launch(launch.kernel, grid_dim, block_dim, args)
            total.merge(result.counters)
        outputs = {name: mem.read_back(name)
                   for name in self.output_buffers()}
        return outputs, total

    def loop_ids(self) -> List[str]:
        """Deterministic ids of every loop in the benchmark's kernels."""
        from ..analysis.loops import LoopInfo

        module = self.build_module()
        ids: List[str] = []
        for func in module.functions.values():
            info = LoopInfo.compute(func)
            ids.extend(loop.loop_id for loop in info.loops)
        return ids

    def __repr__(self) -> str:
        return f"<Benchmark {self.name}>"


def buf(name: str) -> Tuple[str, str]:
    """Launch-argument placeholder for a buffer's base address."""
    return ("buf", name)
