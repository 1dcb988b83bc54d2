"""Benchmark infrastructure.

Each of the 16 HeCBench analogs (paper Table I) subclasses
:class:`Benchmark`: it declares its kernels in the structured frontend,
allocates and initialises its simulated device buffers, and describes the
kernel launches.  The harness compiles the module under a pipeline
configuration, runs the launches on the SIMT machine, and reads back the
output buffers for differential checking.

A run the experiment runner measures takes a launch memo: a launch it
has already run on the same memory image replays its recorded effect
instead of executing again (:class:`LaunchTable`).

Paper-anchored metadata (category, command line, compute fraction ``%C``,
baseline RSD) is carried verbatim from Table I so the harness can print the
table and convert simulated cycles into paper-scale milliseconds (see
DESIGN.md, "Known deviations").
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..frontend.ast import KernelDef
from ..frontend.lower import lower_kernels
from ..gpu.counters import Counters
from ..gpu.machine import WARP_SIZE, SimtMachine
from ..gpu.memory import Memory, MemoryChanges, MemoryImage
from ..ir.module import Module
from ..obs import metrics as obs_metrics
from ..obs import session as obs
from ..obs.profile import ExecutionProfile
from ..obs.remarks import Remark


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


@dataclass(frozen=True)
class _LaunchRecord:
    """One executed launch, shared read-only by every launch it serves."""

    #: The memory it started from.
    before: MemoryImage
    #: What it wrote; None when it allocated (an alloca), and then the
    #: record is not kept.
    after: Optional[MemoryChanges]
    counters: Counters
    #: What it emitted under an obs session — its remarks (as JSON) and
    #: its execution-profile contribution; None when it ran with no
    #: session (such a record serves no observed run).
    observed: Optional[Tuple[Tuple[Dict, ...], ExecutionProfile]]
    #: What it counted into the metrics registry (the jit's counts), as a
    #: snapshot; None when none was installed (such a record serves no
    #: metered run).
    counted: Optional[Dict]

    def serves(self, session, metered: bool) -> bool:
        """It has everything the current run would record."""
        return ((session is None or self.observed is not None)
                and (not metered or self.counted is not None))


class LaunchTable:
    """The recorded launches of one kernel's code.

    The simulator is deterministic: a launch of the same code with the
    same geometry and arguments on the same memory image always writes
    the same bytes and counts the same counters.  A launch found here —
    by digest, then confirmed by comparing the whole recorded image, so a
    digest collision cannot replay — restores the recorded writes and
    returns the recorded counters instead of executing.  What the launch
    emitted — remarks, profile and metric counts — is recorded with it
    and passed on again by every replay.  A table must only ever see one
    code for its kernel: the caller keeps it with the function it records
    (:meth:`Benchmark.run`).
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple, List[_LaunchRecord]] = {}

    def launch(self, machine: SimtMachine, kernel: str, grid_dim: int,
               block_dim: int, args: Sequence) -> Counters:
        memory = machine.memory
        key = (kernel, grid_dim, block_dim, tuple(args), memory.digest())
        session = obs.active()
        metered = obs_metrics.active() is not None
        for record in self._records.get(key, ()):
            if record.serves(session, metered) and \
                    memory.matches(record.before):
                obs_metrics.inc("repro_launch_replay_total", result="hit")
                memory.restore(record.after)
                _reemit(session, record)
                return record.counters
        obs_metrics.inc("repro_launch_replay_total", result="miss")
        before = memory.image()
        # Record what the launch emits and counts on its own, then pass
        # it on.
        live = machine.profile
        with (obs.capture() if session is not None
              else contextlib.nullcontext()) as scratch, \
                obs_metrics.capture() as counts:
            if scratch is not None:
                machine.profile = scratch.profile
            try:
                counters = machine.launch(kernel, grid_dim, block_dim,
                                          args).counters
            finally:
                machine.profile = live
        record = _LaunchRecord(
            before, memory.changes_since(before), counters,
            None if scratch is None else (
                tuple(r.to_json() for r in scratch.remarks),
                scratch.profile),
            None if counts is None else counts.snapshot())
        _reemit(session, record)
        if record.after is not None:   # an alloca's buffers never replay
            records = [r for r in self._records.get(key, ())
                       if r.before != before]
            self._records[key] = records + [record]
        return counters


def _reemit(session: Optional[obs.ObsSession],
            record: _LaunchRecord) -> None:
    """Pass a launch's recorded telemetry on: to ``session`` under its
    current context, and to the metrics registry."""
    obs_metrics.fold(record.counted)
    if session is not None:
        remarks, profile = record.observed
        for data in remarks:
            session.emit(Remark.from_json(data))
        session.profile.add(profile)


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
            scale: int = 1, memo: Optional[Dict[str, LaunchTable]] = None
            ) -> Tuple[Dict[str, np.ndarray], Counters]:
        """Execute the workload on a fresh memory; returns outputs+counters.

        ``scale > 1`` runs a reduced launch geometry (see
        :func:`scale_geometry`) — the autotuner's cheap screening rounds.
        Scaled outputs are only comparable to equally-scaled references.

        ``memo`` (None: every launch executes) replays launches through
        a :class:`LaunchTable` per kernel: the tables it maps kernel names
        to belong to functions ``module`` shares with other runs, and
        every other kernel gets a table local to this run.
        """
        rng = np.random.default_rng(self.seed)
        mem = Memory()
        buffers = self.setup(mem, rng)
        machine = SimtMachine(module, mem, engine=engine)
        tables = dict(memo) if memo is not None else None
        total = Counters()
        for launch in self.launches():
            args = [buffers[a[1]] if isinstance(a, tuple) and a[0] == "buf"
                    else a for a in launch.args]
            grid_dim, block_dim = scale_geometry(launch.grid_dim,
                                                 launch.block_dim, scale)
            if tables is None:
                counters = machine.launch(launch.kernel, grid_dim, block_dim,
                                          args).counters
            else:
                table = tables.setdefault(launch.kernel, LaunchTable())
                counters = table.launch(machine, launch.kernel, grid_dim,
                                        block_dim, args)
            total.merge(counters)
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
