"""SIMT execution engine.

Executes IR functions the way a V100-class GPU would at warp granularity:

* 32 lanes per warp execute in lockstep over numpy vectors;
* a conditional branch whose lanes disagree *diverges*: the taken and
  not-taken paths run serially under sub-masks.  Reconvergence follows an
  epoch-based convergent scheduler: lane groups that arrive at the same
  basic block in the same loop iteration merge, and the group that is
  furthest behind (smallest ``(epoch, reverse-postorder)`` key) always runs
  first — modelling Volta-style opportunistic reconvergence, under which
  unrolled loop bodies re-merge at each traversal of the back edge;
* phi nodes are materialised as moves on CFG edges — the data-movement
  instructions nvprof counts in ``inst_misc`` alongside ``selp``;
* cycle charges split into a fixed per-issue part and a lane-activity part
  (see :func:`repro.gpu.timing.charge`): resident-warp overlap hides most
  of the cost of partially-active issues on a real SM, which is how the
  paper's XSBench wins despite collapsing warp-execution efficiency, while
  the fixed fraction plus instruction-fetch stalls still make tid-dependent
  divergence (`complex`) a net loss;
* loads pay a latency that grows with uncoalesced transactions, and
  entering a non-resident basic block pays instruction-fetch stalls.

Execution is driven by a *pre-decoded* program.  Values live at a
number, the way a register file holds them: the first launch of a
function gives every value it reads one dense slot index
(:class:`_Frame`), and a context's values are one list — the read-only
prefix of constant, undef and global-address vectors (built once per
machine, shared by every context), then the context's own slots: the
four launch-geometry values and the arguments, filled in when it is
made, and one slot per value-producing instruction and phi, which holds
its storage dtype until :func:`write_masked` first writes it.  Every
basic block decodes once into a flat list of :class:`Step` records —
plain data: slot numbers, issue cost, and for a value step the op-table
kernel it applies to its source slots, so no function object is made per
operand and the hot loop performs no isinstance chains, attribute
resolution or cost-table lookups.  Reading a slot no definition wrote is
what the verifier's dominance check rules out; every entry point that
takes IR from outside verifies it first.

Cycles are integer ticks (:func:`repro.gpu.timing.tick_unit`), and
decode *seals* each block's issue counts and issue cost
(:class:`_DecodedBlock`), so one dispatch bumps the counters once and
adds one tick charge, ``cost * (FIXED_T + ACT_T * active)``; loads and
stores add theirs as they run.  Integers add in any order, so every
engine's totals equal this one's by construction.  Decoding assumes the
module's IR is not mutated between launches of the same machine (fresh
machines are built per compile in the harness).  What a value
instruction *computes* is not decided here: every engine calls the
kernel of the op-semantics table (:mod:`repro.semantics`, the written
contract), which the constant folder and the jit's fuser share;
:meth:`SimtMachine.launch` holds the ``np.errstate`` those kernels are
total under, once per launch.

Two execution engines consume the decoded form (the ``engine`` argument
of :class:`SimtMachine` selects; see :func:`resolve_engine`):

* ``jit`` (default) — the lattice dispatcher of :mod:`repro.gpu.batched`
  with the trace tier of :mod:`repro.gpu.jit` on top.  All warps of a
  launch execute as one ``(n_warps, 32)`` value lattice while their
  control decisions agree across warps, and individual warps demote to
  this module's per-warp path once they diverge.  Every launch starts
  interpreted; a block that the dispatcher reaches
  ``jit.TIER_UP_DISPATCHES`` times (counted per machine and function,
  across launches) gets the superblock trace starting there
  (:mod:`repro.gpu.regions`) compiled into a fused dispatch sequence
  with guarded side exits, deoptimizing back to the block interpreter
  when a guard fails.  A function that never gets hot pays nothing;
* ``warp`` — the per-warp scheduler below, the reference oracle: every
  warp of a launch runs the decoded schedule on its own, one 32-lane
  numpy vector at a time.

The engines are contractually **bit-identical** — same return values, same
counters, same cycle totals (``tests/test_engine_equivalence.py`` enforces
this) — which is why the persistent cell cache does not key on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.cfg_utils import reverse_postorder
from ..ir.block import BasicBlock
from ..ir.constants import ConstantFloat, ConstantInt, Undef
from ..ir.function import Function
from ..ir.instructions import (AllocaInst, BranchInst, CallInst,
                               CondBranchInst, Instruction, LoadInst, PhiInst,
                               RetInst, StoreInst, UnreachableInst)
from ..ir.module import Module
from ..ir.values import GlobalVariable, Value
from ..obs import session as obs_session
from ..semantics import op_for, storage_dtype
from .counters import CATEGORIES, Counters, cat_index, seal_issues
from .icache import InstructionCache
from .memory import Memory
from .timing import (ACT_T, FIXED_T, TICKS_PER_CYCLE, WARP_SIZE, issue_cost,
                     load_latency, store_cost, ticks)

ArgValue = Union[int, float]

#: Supported execution engines (see module docstring).
ENGINES = ("warp", "jit")


def resolve_engine(engine: Optional[str] = None) -> str:
    """The named engine, or ``jit`` when none is named."""
    engine = "jit" if engine is None else engine.lower()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine

#: Reverse-postorder index for blocks outside the computed order.
_UNKNOWN_RPO = 1 << 30

#: Pre-resolved issue costs for the fixed-cost control/phi charges.
_PHI_COST = issue_cost("misc", "phi")
_BR_COST = issue_cost("control", "br")
_CONDBR_COST = issue_cost("control", "condbr")
_RET_COST = issue_cost("control", "ret")

# Step kinds.  Kinds up to _K_TERNARY compute a value from their source
# slots (see evaluate): a kernel step's kind is its operand count.
_K_MOVE = 0      # The source slot itself (a launch-geometry read).
_K_UNARY = 1
_K_BINARY = 2
_K_TERNARY = 3
_K_ALLOCA = 4    # These three run through the engine's runner table.
_K_LOAD = 5
_K_STORE = 6
_K_VOID = 7      # Timing-only (e.g. syncthreads).

# Terminator kinds; those from _T_UNREACHABLE up cannot transfer control.
_T_BR = 0
_T_CONDBR = 1
_T_RET = 2
_T_UNREACHABLE = 3
_T_MISSING = 4

#: Launch-geometry intrinsics, in the order of their context slots.
GEOMETRY = ("tid.x", "ctaid.x", "ntid.x", "nctaid.x")


class SimulationError(Exception):
    """Raised when a kernel executes an illegal operation."""


class Step(NamedTuple):
    """One decoded non-phi, non-terminator instruction: plain data.

    ``cat`` is the index of its category in :data:`CATEGORIES`, ``cost``
    its issue cost, ``dst`` its result slot (None for a store or a void
    step), ``srcs`` the slots it reads in operand order (a store's are
    ``(pointer, value)``), ``kernel`` the op-table kernel of a unary,
    binary or ternary step, ``dtype`` the result's storage dtype, and
    ``aux`` what a memory step needs besides: the element size of a load
    or store, ``(name, memory dtype, count, element size)`` of an alloca.
    """

    cat: int
    cost: int
    kind: int
    dst: Optional[int]
    srcs: Tuple[int, ...]
    kernel: object = None
    dtype: object = None
    aux: object = None


def evaluate(values: List, kind: int, srcs: Tuple[int, ...], kernel):
    """The result of a value step (kind up to ``_K_TERNARY``)."""
    if kind == _K_BINARY:
        return kernel(values[srcs[0]], values[srcs[1]])
    if kind == _K_UNARY:
        return kernel(values[srcs[0]])
    if kind == _K_MOVE:
        return values[srcs[0]]
    return kernel(values[srcs[0]], values[srcs[1]], values[srcs[2]])


def write_masked(values: List, dst: int, value: np.ndarray,
                 mask: np.ndarray) -> None:
    """Write ``value`` into slot ``dst`` under ``mask``.

    Shape-generic: a slot takes the mask's shape — ``(32,)`` per warp,
    ``(n, 32)`` on the batched lattice — on its first write, when it
    still holds its storage dtype; values that come out of an
    all-uniform-operand computation (e.g. constant + argument) are
    broadcast up to it and cast to its dtype.
    """
    slot = values[dst]
    if slot.__class__ is not np.ndarray:
        slot = values[dst] = np.zeros(mask.shape, dtype=slot)
    np.copyto(slot, value, where=mask, casting="unsafe")


def _bad_terminator(func: Function, db: "_DecodedBlock") -> SimulationError:
    """The error for dispatching a block that cannot transfer control."""
    if db.term_kind == _T_UNREACHABLE:
        return SimulationError(
            f"@{func.name}: executed unreachable in {db.name}")
    return SimulationError(
        f"@{func.name}: block {db.name} has no terminator")


def _merge_groups(groups: List[Tuple]) -> List[Tuple]:
    """Merge the groups parked at one block; the laggard comes last.

    Shared by the per-warp scheduler and the lattice dispatcher.  Groups
    hold disjoint lanes, so their masks OR and their counts add (ints per
    warp, ``(n,)`` vectors on the lattice).  The laggard — smallest
    ``(epoch, rpo)`` — is the next group to run.
    """
    merged: Dict[int, Tuple] = {}
    for group in groups:
        block_id = group[1].block_id
        existing = merged.get(block_id)
        if existing is not None:
            epoch, db, mask, active = group
            group = (max(existing[0], epoch), db, existing[2] | mask,
                     existing[3] + active)
        merged[block_id] = group
    groups = list(merged.values())
    groups.sort(key=lambda g: (g[0], g[1].rpo), reverse=True)
    return groups


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    counters: Counters
    return_values: Optional[np.ndarray] = None


def _geometry_vec(value: int) -> np.ndarray:
    arr = np.full(WARP_SIZE, value, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class _Frame:
    """One function's value table layout (see the module docstring).

    ``prefix`` holds the shared read-only operand vectors; a context's own
    slots start at ``base``: ``tid``, ``ctaid``, ``ntid``, ``nctaid`` (in
    :data:`GEOMETRY` order), then the arguments, then from ``inst`` on one
    slot per value-producing instruction and phi, which start out holding
    their storage dtypes (``fresh``).  Numbering follows the function's
    text, so identical IR gets identical slots.
    """

    __slots__ = ("entry", "prefix", "base", "inst", "arg_dtypes", "fresh")

    def __init__(self, prefix: List[np.ndarray], arg_dtypes: Tuple,
                 fresh: List) -> None:
        self.entry: Optional[_DecodedBlock] = None
        self.prefix = prefix
        self.base = len(prefix)
        self.arg_dtypes = arg_dtypes
        self.inst = self.base + len(GEOMETRY) + len(arg_dtypes)
        self.fresh = fresh

    def bind(self, args: Sequence[ArgValue]) -> List[np.ndarray]:
        """One launch's argument slots: a read-only ``(32,)`` vector each."""
        bound = []
        for value, dtype in zip(args, self.arg_dtypes):
            arr = np.full(WARP_SIZE, value, dtype=dtype)
            arr.setflags(write=False)
            bound.append(arr)
        return bound

    def values(self, tid: np.ndarray, ctaid: np.ndarray, launch: List,
               slots: Optional[List] = None) -> List:
        """A context's value table: the shared prefix, then its own slots.

        ``launch`` is what every context of a launch shares — ``ntid``,
        ``nctaid`` and the bound arguments; ``slots`` the instruction
        slots (fresh when None).
        """
        return self.prefix + [tid, ctaid] + launch + (
            self.fresh if slots is None else slots)

    def dtype(self, slot: int):
        """Storage dtype of an instruction slot."""
        return self.fresh[slot - self.inst]


class _WarpContext:
    """Per-warp register state: one ``(32,)`` vector per value slot."""

    __slots__ = ("values", "allocas", "ret_values")

    def __init__(self, values: List) -> None:
        self.values = values
        self.allocas: Dict[int, int] = {}   # alloca slot -> base address.
        self.ret_values: Optional[np.ndarray] = None

    def alloca_addrs(self, memory: Memory, step: Step) -> np.ndarray:
        """Per-lane base addresses of this warp's buffer for ``step``."""
        name, dtype, count, elem = step.aux
        base = self.allocas.get(step.dst)
        if base is None:
            base = memory.alloc(f"__alloca_{name}_{id(self):x}", dtype,
                                count * WARP_SIZE)
            self.allocas[step.dst] = base
        return base + np.arange(WARP_SIZE, dtype=np.int64) * (count * elem)


def _run_alloca(memory, ctx, step, mask, _active, _accounts) -> None:
    """Both engines' alloca runner: the context knows its own shape."""
    write_masked(ctx.values, step.dst, ctx.alloca_addrs(memory, step), mask)


def _run_load(memory, ctx, step, mask, active, counters) -> None:
    values = ctx.values
    raw, transactions = memory.load(values[step.srcs[0]], mask, step.aux)
    latency = ticks(load_latency(transactions), active)
    counters.ticks += latency
    counters.memory_stall_ticks += latency
    write_masked(values, step.dst, raw, mask)


def _run_store(memory, ctx, step, mask, active, counters) -> None:
    values = ctx.values
    ptr, value = step.srcs
    transactions = memory.store(values[ptr], values[value], mask, step.aux)
    counters.ticks += ticks(store_cost(transactions), active)


#: The per-warp engine's runners, by step kind.
_RUNNERS = {_K_ALLOCA: _run_alloca, _K_LOAD: _run_load,
            _K_STORE: _run_store}


class _Edge:
    """A decoded CFG edge: source block's name, target block, epoch bump,
    and phi moves."""

    __slots__ = ("source", "target", "bump_epoch", "moves", "issues", "cost")

    def __init__(self, source: str, target: "_DecodedBlock",
                 bump_epoch: int,
                 moves: Tuple[Tuple[int, int, bool], ...]) -> None:
        self.source = source
        self.target = target
        self.bump_epoch = bump_epoch
        #: The moves' integer issue counts (one ``misc`` mov per phi),
        #: sealed for one ``note_issue`` per traversal.
        self.issues = seal_issues(["misc"] * len(moves))
        #: Their issue cycles, charged like a block's.
        self.cost = _PHI_COST * len(moves)
        #: ``(dst, src, snapshot)`` per phi: the phi's slot, its incoming
        #: value's slot, and whether that incoming value is a sibling phi
        #: of the target — then the staged read must copy the slot, or
        #: the masked write to the sibling corrupts it mid-copy.
        self.moves = moves


class _DecodedBlock:
    """One basic block, pre-decoded into a flat dispatch list.

    ``steps`` holds one :class:`Step` per non-phi, non-terminator
    instruction and ``insts`` those instructions (the region fuser
    regenerates value expressions from them); ``term``/``term_kind``
    describe the terminator: an :class:`_Edge` for ``br``, ``(cond slot,
    true edge, false edge)`` for a conditional branch, ``(value slot,
    dtype)`` for ``ret`` (``(None, None)`` returning void).

    Decode then *seals* the block (:meth:`seal`), so that one dispatch
    pays for its bookkeeping once instead of once per step:

    * ``issues`` — the integer issue counts of the steps plus the
      terminator (``counters.seal_issues``), applied by one
      ``Counters.note_issue`` per dispatch;
    * ``cost`` — the issue cycles of the steps plus the terminator (none
      for ``unreachable`` and a missing terminator, which raise), charged
      as one tick amount per dispatch: ``cost * (FIXED_T + ACT_T *
      active)``, with ``active`` an int per warp or an ``(n,)`` vector on
      the lattice.
    """

    __slots__ = ("block_id", "name", "size", "rpo", "steps", "insts",
                 "term_kind", "term", "issues", "cost")

    def __init__(self, block: BasicBlock, rpo: int) -> None:
        self.block_id = id(block)
        self.name = block.name
        self.size = len(block.instructions)
        self.rpo = rpo
        self.steps: List[Step] = []
        self.insts: List[Instruction] = []
        self.term_kind = _T_MISSING
        self.term = None

    def seal(self, term_cost: Optional[int]) -> None:
        """Fix the per-dispatch accounting of ``steps`` + terminator."""
        categories = [CATEGORIES[step.cat] for step in self.steps]
        self.cost = sum(step.cost for step in self.steps)
        if term_cost is not None:
            categories.append("control")
            self.cost += term_cost
        self.issues = seal_issues(categories)


class SimtMachine:
    """Executes kernels from a module against a simulated memory."""

    def __init__(self, module: Module, memory: Optional[Memory] = None,
                 max_cycles: int = 2_000_000_000,
                 engine: Optional[str] = None) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.max_cycles = max_cycles
        self.engine = resolve_engine(engine)
        #: Live execution profile, or None — resolved once here so the
        #: recorders pay a plain attribute test, not a session lookup.
        #: Strictly observational: recording never feeds back into
        #: scheduling, executor choice, cycles, or outputs (the
        #: engine-equivalence suite pins runs bit-identical with
        #: profiling on vs. off, ``tests/test_tier_up.py`` the executors).
        self.profile = obs_session.profile()
        self._global_addrs: Dict[str, int] = {}
        #: Constant / undef / global-address operand -> its shared
        #: read-only ``(32,)`` vector, the entries of every frame prefix.
        self._constants: Dict[Value, np.ndarray] = {}
        #: id(func) -> its decoded :class:`_Frame`.
        self._decoded: Dict[int, _Frame] = {}
        #: Per-function tier-up state (jit engine): id(func) ->
        #: ``regions.RegionMap`` — block heat, selected plans, and
        #: {head block_id -> CompiledRegion} for the heads that got hot.
        self._regions: Dict[int, Dict] = {}
        self._materialize_globals()

    def _materialize_globals(self) -> None:
        for gv in self.module.globals.values():
            dtype = repr(gv.element_type)
            addr = self.memory.alloc(gv.name, dtype, gv.count,
                                     init=gv.initializer)
            self._global_addrs[gv.name] = addr

    # -- public API --------------------------------------------------------
    def launch(self, kernel: Union[str, Function],
               grid_dim: int, block_dim: int,
               args: Sequence[ArgValue]) -> LaunchResult:
        """Launch ``kernel`` over a 1-D grid; returns merged counters.

        ``args`` are per-launch scalars: Python ints/floats, or addresses
        (from :meth:`Memory.alloc`) for pointer parameters.
        """
        func = self.module.get_function(kernel) if isinstance(kernel, str) \
            else kernel
        if len(args) != len(func.args):
            raise SimulationError(
                f"@{func.name} expects {len(func.args)} args, got {len(args)}")
        total = Counters()
        # ``memory.stats`` accumulates over every launch on the memory;
        # the launch reports its own traffic, the difference.
        stats = self.memory.stats
        before = (stats.bytes_loaded, stats.bytes_stored,
                  stats.load_transactions, stats.store_transactions)
        entry = self._decode(func)
        frame = self._decoded[id(func)]
        launch = [_geometry_vec(block_dim), _geometry_vec(grid_dim)] \
            + frame.bind(args)
        # The op-semantics kernels are total under errstate-ignore (inf and
        # NaN are values, not events); the launch holds it once for every
        # step it runs.
        with np.errstate(all="ignore"):
            if self.engine == "jit":
                # Lattice dispatcher: all warps execute as one (n, 32)
                # lattice until their control decisions diverge (then they
                # demote to the per-warp path below).  Compiled regions
                # collapse the scheduler loop, so a single-warp launch
                # goes this way too.
                from .batched import run_launch_batched
                ret_all = run_launch_batched(self, func, frame, grid_dim,
                                             block_dim, launch, total)
            else:
                ret_all = []
                warps = (block_dim + WARP_SIZE - 1) // WARP_SIZE
                for block_idx in range(grid_dim):
                    ctaid = _geometry_vec(block_idx)
                    for warp_idx in range(warps):
                        # Per-warp icache: warps spread across SMs, so each
                        # warp streams the kernel's code through its own
                        # front end.
                        icache = InstructionCache()
                        base = warp_idx * WARP_SIZE
                        lane_ids = np.arange(base, base + WARP_SIZE,
                                             dtype=np.int64)
                        active = lane_ids < block_dim
                        ctx = _WarpContext(frame.values(lane_ids, ctaid,
                                                        launch))
                        counters = self._run_warp(func, entry, ctx, active,
                                                  icache)
                        total.merge(counters)
                        # Charged into the warp's ticks as they occurred;
                        # summed again for the stall_inst_fetch metric.
                        total.fetch_stall_cycles += icache.stall_cycles
                        if ctx.ret_values is not None:
                            ret_all.append(ctx.ret_values)
        total.bytes_loaded = stats.bytes_loaded - before[0]
        total.bytes_stored = stats.bytes_stored - before[1]
        total.load_transactions = stats.load_transactions - before[2]
        total.store_transactions = stats.store_transactions - before[3]
        ret = np.concatenate(ret_all) if ret_all else None
        return LaunchResult(counters=total, return_values=ret)

    def run_function(self, func: Union[str, Function],
                     args: Sequence[ArgValue],
                     lanes: int = 1) -> Tuple[np.ndarray, Counters]:
        """Run a function on one warp with ``lanes`` active threads.

        Convenience for differential testing: returns per-lane return
        values and the counters.
        """
        if isinstance(func, str):
            func = self.module.get_function(func)
        result = self.launch(func, grid_dim=1, block_dim=lanes, args=args)
        ret = result.return_values
        if ret is not None:
            ret = ret[:lanes]
        return ret, result.counters

    # -- decode ---------------------------------------------------------------
    def _decode(self, func: Function) -> _DecodedBlock:
        """Pre-decode ``func`` into dispatch lists; returns the entry block.

        Cached per function: the first launch numbers the function's
        values and decodes, later launches (and every warp/group step)
        reuse the flat form from ``self._decoded``.
        """
        cached = self._decoded.get(id(func))
        if cached is not None:
            return cached.entry
        frame, slots = self._number(func)
        rpo_index = {id(b): i
                     for i, b in enumerate(reverse_postorder(func))}
        dblocks: Dict[int, _DecodedBlock] = {
            id(block): _DecodedBlock(block,
                                     rpo_index.get(id(block), _UNKNOWN_RPO))
            for block in func.blocks}
        for block in func.blocks:
            self._decode_block(block, dblocks[id(block)], dblocks, slots,
                               frame.base)
        frame.entry = dblocks[id(func.entry)]
        self._decoded[id(func)] = frame
        return frame.entry

    def _number(self, func: Function) -> Tuple[_Frame, Dict[int, int]]:
        """Give every value ``func`` reads its slot (``id`` -> index)."""
        prefix: Dict[int, Value] = {}
        made: List[Instruction] = []
        for inst in func.instructions():
            if not inst.type.is_void:
                made.append(inst)
            for value in inst.operands:
                if isinstance(value, (ConstantInt, ConstantFloat, Undef,
                                      GlobalVariable)):
                    prefix.setdefault(id(value), value)
        slots = {vid: i for i, vid in enumerate(prefix)}
        base = len(prefix) + len(GEOMETRY)
        for i, arg in enumerate(func.args):
            slots[id(arg)] = base + i
        base += len(func.args)
        # A result type without a storage dtype (label, function) cannot
        # be executed; the verifier keeps operand, phi, load and argument
        # types first-class.
        try:
            fresh = [storage_dtype(inst.type) for inst in made]
        except ValueError as exc:
            raise SimulationError(str(exc)) from exc
        for i, inst in enumerate(made):
            slots[id(inst)] = base + i
        frame = _Frame([self._constant(v) for v in prefix.values()],
                       tuple(storage_dtype(a.type) for a in func.args),
                       fresh)
        return frame, slots

    def _constant(self, value: Value) -> np.ndarray:
        """The ``(32,)`` vector of a constant, undef or global address.

        Built once per machine and shared read-only by every frame,
        context and fused segment that mentions the operand.
        """
        arr = self._constants.get(value)
        if arr is None:
            if isinstance(value, GlobalVariable):
                arr = np.full(WARP_SIZE, self._global_addrs[value.name],
                              dtype=np.int64)
            elif isinstance(value, Undef):
                arr = np.zeros(WARP_SIZE, dtype=storage_dtype(value.type))
            else:
                arr = np.full(WARP_SIZE, value.value,
                              dtype=storage_dtype(value.type))
            arr.setflags(write=False)
            self._constants[value] = arr
        return arr

    def _decode_block(self, block: BasicBlock, db: _DecodedBlock,
                      dblocks: Dict[int, _DecodedBlock],
                      slots: Dict[int, int], geometry: int) -> None:
        term_cost = None
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                continue  # Materialised on edges.
            if isinstance(inst, BranchInst):
                db.term_kind = _T_BR
                db.term = self._decode_edge(block, db, inst.target, dblocks,
                                            slots)
                term_cost = _BR_COST
                break
            if isinstance(inst, CondBranchInst):
                db.term_kind = _T_CONDBR
                db.term = (
                    slots[id(inst.condition)],
                    self._decode_edge(block, db, inst.true_target, dblocks,
                                      slots),
                    self._decode_edge(block, db, inst.false_target, dblocks,
                                      slots))
                term_cost = _CONDBR_COST
                break
            if isinstance(inst, RetInst):
                db.term_kind = _T_RET
                if inst.value is not None:
                    db.term = (slots[id(inst.value)],
                               storage_dtype(inst.value.type))
                else:
                    db.term = (None, None)
                term_cost = _RET_COST
                break
            if isinstance(inst, UnreachableInst):
                db.term_kind = _T_UNREACHABLE
                break
            db.steps.append(self._decode_step(inst, slots, geometry))
            db.insts.append(inst)
        db.seal(term_cost)

    @staticmethod
    def _decode_edge(src: BasicBlock, src_db: _DecodedBlock,
                     dst: BasicBlock, dblocks: Dict[int, _DecodedBlock],
                     slots: Dict[int, int]) -> _Edge:
        target = dblocks[id(dst)]
        bump = 1 if target.rpo <= src_db.rpo else 0  # Back edge.
        # Parallel-copy phi moves, one per phi.  An incoming value that is
        # itself a phi of ``dst`` (e.g. unmerge resolving a clone's phi
        # straight to a header phi: v1 <- v3 while the same edge writes
        # v3) is snapshotted when staged.
        phis = dst.phis()
        siblings = {id(phi) for phi in phis}
        moves = []
        for phi in phis:
            incoming = phi.incoming_for(src)
            moves.append((slots[id(phi)], slots[id(incoming)],
                          id(incoming) in siblings))
        return _Edge(src_db.name, target, bump, tuple(moves))

    @staticmethod
    def _decode_step(inst: Instruction, slots: Dict[int, int],
                     geometry: int) -> Step:
        """One :class:`Step`; ``geometry`` is the slot of ``tid.x``."""
        cat = cat_index(inst.category)
        intrinsic = inst.intrinsic.name if isinstance(inst, CallInst) else ""
        cost = issue_cost(inst.category, inst.opcode, intrinsic)
        if isinstance(inst, StoreInst):
            return Step(cat, cost, _K_STORE, None,
                        (slots[id(inst.pointer)], slots[id(inst.value)]),
                        aux=inst.value.type.size_bytes())
        if inst.type.is_void:
            # e.g. syncthreads: only the issue timing is charged.
            return Step(cat, cost, _K_VOID, None, ())
        dst = slots[id(inst)]
        dtype = storage_dtype(inst.type)
        if isinstance(inst, LoadInst):
            return Step(cat, cost, _K_LOAD, dst, (slots[id(inst.pointer)],),
                        dtype=dtype, aux=inst.type.size_bytes())
        if isinstance(inst, AllocaInst):
            elem = inst.element_type
            return Step(cat, cost, _K_ALLOCA, dst, (), dtype=dtype,
                        aux=(inst.name, repr(elem), inst.count,
                             elem.size_bytes()))
        if intrinsic in GEOMETRY:
            return Step(cat, cost, _K_MOVE, dst,
                        (geometry + GEOMETRY.index(intrinsic),), dtype=dtype)
        # What the value *is* comes from the op-semantics table
        # (repro.semantics); a kernel step's kind is its operand count.
        op = op_for(inst)
        srcs = tuple(slots[id(v)] for v in inst.operands)
        if op is None or not _K_UNARY <= len(srcs) <= _K_TERNARY:
            raise SimulationError(f"cannot execute {inst!r}")
        return Step(cat, cost, len(srcs), dst, srcs, op.kernel, dtype)

    # -- warp execution ------------------------------------------------------
    def _run_warp(self, func: Function, entry: _DecodedBlock,
                  ctx: _WarpContext, initial_mask: np.ndarray,
                  icache: InstructionCache) -> Counters:
        """Convergent group scheduler (see module docstring).

        A *group* is ``(epoch, block, mask, active)``: lanes in lockstep
        at a block, and how many they are.  The count is taken when the
        mask is made and travels with it — like the active mask of a
        hardware SIMT-stack entry, it is never recounted.  Each step merges
        all groups parked at the same block, then executes the group with
        the smallest ``(epoch, rpo)`` key — laggards first — which makes
        divergent paths re-merge at post-dominators and, across back
        edges, at the next loop iteration.
        """
        counters = Counters()
        groups: List[Tuple[int, _DecodedBlock, np.ndarray, int]] = [
            (0, entry, initial_mask.copy(),
             int(np.count_nonzero(initial_mask)))]
        self._warp_loop(func, ctx, groups, counters, icache)
        return counters

    def _warp_loop(self, func: Function, ctx: _WarpContext, groups: List,
                   counters: Counters, icache: InstructionCache) -> None:
        """Drive ``groups`` to completion (the scheduler of ``_run_warp``).

        Split out so the lattice dispatcher can *demote* a warp mid-flight:
        it seeds ``counters``/``groups``/``ctx`` with the warp's state at
        the divergence point and resumes here.
        """
        profile = self.profile
        max_ticks = self.max_cycles * TICKS_PER_CYCLE
        while groups:
            if counters.ticks > max_ticks:
                raise SimulationError(
                    f"@{func.name}: exceeded {self.max_cycles} cycles "
                    "(runaway kernel?)")
            if len(groups) > 1:
                groups = _merge_groups(groups)
            epoch, db, mask, active = groups.pop()
            if not active:
                continue
            counters.ticks += (icache.access(db.block_id, db.size)
                               * TICKS_PER_CYCLE)
            if profile is None:
                self._exec_decoded(func, db, epoch, mask, active, ctx,
                                   counters, groups)
            else:
                start = counters.ticks
                self._exec_decoded(func, db, epoch, mask, active, ctx,
                                   counters, groups)
                profile.note_block(db.name, 1, counters.ticks - start,
                                   active, WARP_SIZE)

    def _exec_decoded(self, func: Function, db: _DecodedBlock, epoch: int,
                      mask: np.ndarray, active: int, ctx: _WarpContext,
                      counters: Counters, groups: List) -> None:
        """Execute one decoded block for one group of ``active`` lanes."""
        counters.note_issue(db.issues, active)
        counters.ticks += db.cost * (FIXED_T + ACT_T * active)
        values = ctx.values
        for step in db.steps:
            _cat, _cost, kind, dst, srcs, kernel, _dtype, _aux = step
            if kind <= _K_TERNARY:
                write_masked(values, dst, evaluate(values, kind, srcs, kernel),
                             mask)
            elif kind != _K_VOID:
                _RUNNERS[kind](self.memory, ctx, step, mask, active, counters)

        term_kind = db.term_kind
        if term_kind >= _T_UNREACHABLE:
            raise _bad_terminator(func, db)
        if term_kind == _T_BR:
            counters.branches += 1
            self._follow(db.term, epoch, mask, active, ctx, counters, groups)
        elif term_kind == _T_CONDBR:
            counters.branches += 1
            cond, true_edge, false_edge = db.term
            cond = values[cond].astype(bool, copy=False)
            t_mask = mask & cond
            # The lanes partition: one count gives both sides.
            taken = int(np.count_nonzero(t_mask))
            if taken == active:
                self._follow(true_edge, epoch, t_mask, active, ctx,
                             counters, groups)
            elif not taken:
                self._follow(false_edge, epoch, mask, active, ctx, counters,
                             groups)
            else:
                counters.divergent_branches += 1
                self._follow(true_edge, epoch, t_mask, taken, ctx, counters,
                             groups)
                self._follow(false_edge, epoch, mask & ~cond,
                             active - taken, ctx, counters, groups)
        else:  # _T_RET
            slot, dtype = db.term
            if slot is not None:
                if ctx.ret_values is None:
                    ctx.ret_values = np.zeros(mask.shape, dtype=dtype)
                np.copyto(ctx.ret_values, values[slot], where=mask,
                          casting="unsafe")

    def _follow(self, edge: _Edge, epoch: int, mask: np.ndarray,
                active: int, ctx: _WarpContext, counters: Counters,
                groups: List) -> None:
        """Run the edge's phi moves and park the group at the target."""
        moves = edge.moves
        if moves:
            counters.note_issue(edge.issues, active)  # One mov per phi.
            counters.ticks += edge.cost * (FIXED_T + ACT_T * active)
            values = ctx.values
            # Parallel-copy semantics: read all incomings before writing.
            staged = [values[src].copy() if snapshot else values[src]
                      for _dst, src, snapshot in moves]
            for (dst, _src, _snapshot), value in zip(moves, staged):
                write_masked(values, dst, value, mask)
        groups.append((epoch + edge.bump_epoch, edge.target, mask, active))
