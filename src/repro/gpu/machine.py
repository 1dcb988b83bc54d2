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

Execution is driven by a *pre-decoded* program: the first launch of a
function decodes every basic block once into a flat dispatch list (operand
readers, result writers, precomputed issue costs, per-edge phi moves), so
the per-warp-step hot loop performs no isinstance chains, attribute
resolution, or cost-table lookups.  The decoded form charges cycles through
the exact same :func:`repro.gpu.timing.charge`/``issue_cost`` calls as the
original tree-walking interpreter, so counters and cycle counts are
bit-identical — only the Python interpreter overhead is removed.  Decode
also *seals* each block's integer issue counts and cost vector
(:class:`_DecodedBlock`), so one dispatch bumps the integer counters once
and reads its charges from a memo, while the float adds stay one per step
in program order.  Decoding assumes the module's IR is not mutated between
launches of the same machine (fresh machines are built per compile in the
harness).  What a
value instruction *computes* is not decided here: every engine calls the
kernel of the op-semantics table (:mod:`repro.semantics`, the written
contract), which the constant folder and the jit's fuser share;
:meth:`SimtMachine.launch` holds the ``np.errstate`` those kernels are
total under, once per launch.

Two execution engines consume the decoded form (``REPRO_ENGINE``
selects; see :func:`resolve_engine`):

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

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.cfg_utils import reverse_postorder
from ..ir.block import BasicBlock
from ..ir.constants import ConstantFloat, ConstantInt, Undef
from ..ir.function import Function
from ..ir.instructions import (AllocaInst, BranchInst, CallInst,
                               CondBranchInst, Instruction, LoadInst, PhiInst,
                               RetInst, StoreInst, UnreachableInst)
from ..ir.module import Module
from ..ir.values import Argument, GlobalVariable, Value
from ..obs import session as obs_session
from ..semantics import op_for, storage_dtype
from .counters import Counters, cat_index, seal_issues
from .icache import InstructionCache
from .memory import Memory
from .timing import charge, issue_cost, load_latency, store_cost

WARP_SIZE = 32

ArgValue = Union[int, float]

#: Environment override for the default execution engine.
ENGINE_ENV = "REPRO_ENGINE"

#: Supported execution engines (see module docstring).
ENGINES = ("warp", "jit")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Explicit value > ``REPRO_ENGINE`` > ``jit``."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "").strip() or "jit"
    engine = engine.lower()
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

#: ``charge(_PHI_COST, active)`` for every possible lane count.
_PHI_CHARGES = tuple(charge(_PHI_COST, active)
                     for active in range(WARP_SIZE + 1))

#: Pre-resolved category indices for the per-category cycle breakdown.
_CAT_CONTROL = cat_index("control")
_CAT_MISC = cat_index("misc")
_CAT_LOAD = cat_index("load")
_CAT_STORE = cat_index("store")

# Step kinds in a decoded block's dispatch list.
_K_VALUE = 0   # Computes a value and writes it to the destination slot.
_K_LOAD = 1    # Memory load (latency charged inside the step closure).
_K_STORE = 2   # Memory store.
_K_VOID = 3    # Timing-only (e.g. syncthreads).

# Terminator kinds; those from _T_UNREACHABLE up cannot transfer control.
_T_BR = 0
_T_CONDBR = 1
_T_RET = 2
_T_UNREACHABLE = 3
_T_MISSING = 4

#: Launch-geometry intrinsics -> the context attribute holding their
#: precomputed read-only array: (32,) per warp, (n, 32) on the lattice.
GEOMETRY = {"tid.x": "lane_ids", "ctaid.x": "ctaid", "ntid.x": "ntid",
            "nctaid.x": "nctaid"}


class SimulationError(Exception):
    """Raised when a kernel executes an illegal operation."""


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


class _WarpContext:
    """Per-warp register state.

    The launch-geometry intrinsics (``ctaid``/``ntid``/``nctaid``) are
    materialised as read-only arrays on the context, so the decoded
    intrinsic readers work unchanged on both this context (``(32,)``
    arrays) and the lattice dispatcher's ``(n, 32)`` lattice context.
    """

    __slots__ = ("values", "lane_ids", "block_idx", "block_dim", "grid_dim",
                 "ctaid", "ntid", "nctaid", "active_init", "allocas",
                 "ret_values")

    def __init__(self, lane_ids: np.ndarray, block_idx: int, block_dim: int,
                 grid_dim: int, active_init: np.ndarray) -> None:
        self.values: Dict[int, np.ndarray] = {}
        self.lane_ids = lane_ids          # Thread ids within the block.
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.ctaid = _geometry_vec(block_idx)
        self.ntid = _geometry_vec(block_dim)
        self.nctaid = _geometry_vec(grid_dim)
        self.active_init = active_init
        self.allocas: Dict[int, int] = {}
        self.ret_values: Optional[np.ndarray] = None

    def alloca_addrs(self, memory: Memory, inst: AllocaInst) -> np.ndarray:
        """Per-lane base addresses of this warp's buffer for ``inst``."""
        base = self.allocas.get(id(inst))
        if base is None:
            dtype = repr(inst.element_type)
            count = inst.count * WARP_SIZE
            base = memory.alloc(
                f"__alloca_{inst.name}_{id(self):x}", dtype, count)
            self.allocas[id(inst)] = base
        elem = inst.element_type.size_bytes()
        stride = inst.count * elem
        return base + np.arange(WARP_SIZE, dtype=np.int64) * stride


class _Edge:
    """A decoded CFG edge: target block, epoch bump, and phi moves."""

    __slots__ = ("target", "bump_epoch", "moves", "issues")

    def __init__(self, target: "_DecodedBlock", bump_epoch: int,
                 moves: List) -> None:
        self.target = target
        self.bump_epoch = bump_epoch
        #: The moves' integer issue counts (one ``misc`` mov per phi),
        #: sealed for one ``note_issue`` per traversal.
        self.issues = seal_issues(["misc"] * len(moves))
        #: [(writer, reader, phi_id, dtype, src_id), ...] per phi — the
        #: id/dtype pair lets the region compiler rebind phi slots
        #: directly, and ``src_id`` (``id()`` of an instruction-produced
        #: incoming value, else None) lets it prove when the incoming
        #: slot is only ever rebound inside a region so the parallel
        #: copy can alias instead of copying.
        self.moves = moves


def _snapshot_reader(read):
    """Wrap a reader to copy its result, detaching it from the live slot."""
    def snapshot(ctx, args):
        return read(ctx, args).copy()
    return snapshot


class _DecodedBlock:
    """One basic block, pre-decoded into a flat dispatch list.

    ``steps`` holds ``(category, cat_idx, cost, kind, run, brun, write,
    meta)`` tuples for the non-phi, non-terminator instructions — ``run``
    is the per-warp runner, ``brun`` the batched ``(n, 32)`` lattice
    runner for memory steps (None for value/void steps, which are
    shape-generic); ``meta`` is ``(inst_id, dtype)`` for value-producing
    steps (None otherwise), consumed by the region compiler to rebind
    result slots without going through the masked writer;
    ``term``/``term_kind`` describe the terminator.  All operand readers,
    result writers, and issue costs are resolved once at decode time.

    Decode then *seals* the block (:meth:`seal`), so that one dispatch
    pays for its bookkeeping once instead of once per step:

    * ``issues`` — the integer issue counts of the steps plus the
      terminator (``counters.seal_issues``), applied by one
      ``Counters.note_issue`` per dispatch;
    * ``costs`` — the issue cost of every step, then the terminator's
      (absent for ``unreachable`` and a missing terminator, which raise
      before charging): :meth:`charges` memoises the per-warp engine's
      ``charge(cost, active)`` row per ``active``, ``cost_column`` is
      the same vector as a ``(k, 1)`` float64 column the lattice
      multiplies by its per-row factor once per dispatch.

    Only the integers are applied per block.  The float charges are
    still *added* one per step, in step order — float addition does not
    associate, and that order is what keeps the engines bit-identical.
    """

    __slots__ = ("block_id", "name", "size", "rpo", "steps", "term_kind",
                 "term", "issues", "costs", "cost_column", "_charges")

    def __init__(self, block: BasicBlock, rpo: int) -> None:
        self.block_id = id(block)
        self.name = block.name
        self.size = len(block.instructions)
        self.rpo = rpo
        self.steps: List[Tuple] = []
        self.term_kind = _T_MISSING
        self.term = None

    def seal(self, term_cost: Optional[int]) -> None:
        """Fix the per-dispatch accounting of ``steps`` + terminator."""
        categories = [step[0] for step in self.steps]
        costs = [step[2] for step in self.steps]
        if term_cost is not None:
            categories.append("control")
            costs.append(term_cost)
        self.issues = seal_issues(categories)
        self.costs = tuple(costs)
        self.cost_column = np.array(costs, dtype=np.float64)[:, None]
        self._charges: Dict[int, Tuple[float, ...]] = {}

    def charges(self, active: int) -> Tuple[float, ...]:
        """``timing.charge(cost, active)`` per entry of ``costs``."""
        row = self._charges.get(active)
        if row is None:
            row = self._charges[active] = tuple(
                charge(cost, active) for cost in self.costs)
        return row


class SimtMachine:
    """Executes kernels from a module against a simulated memory."""

    def __init__(self, module: Module, memory: Optional[Memory] = None,
                 icache_capacity: Optional[int] = None,
                 max_cycles: int = 2_000_000_000,
                 engine: Optional[str] = None) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self._icache_capacity = icache_capacity
        self.max_cycles = max_cycles
        self.engine = resolve_engine(engine)
        #: Live execution profile, or None — resolved once here so the
        #: hot loops pay a plain attribute test, not a session lookup.
        #: Strictly observational: recording never feeds back into
        #: scheduling, cycles, or outputs (the engine-equivalence suite
        #: pins runs bit-identical with profiling on vs. off).
        self.profile = obs_session.profile()
        self._global_addrs: Dict[str, int] = {}
        #: Constant / undef / global-address operand -> its shared
        #: read-only ``(32,)`` vector (see :meth:`_operand_vec`).
        self._operand_vecs: Dict[Value, np.ndarray] = {}
        self._decoded: Dict[int, _DecodedBlock] = {}
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
        entry = self._decode(func)
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
                ret_all, fetch_stalls = run_launch_batched(
                    self, func, entry, grid_dim, block_dim, args, total)
            else:
                ret_all = []
                fetch_stalls = 0
                warps = (block_dim + WARP_SIZE - 1) // WARP_SIZE
                for block_idx in range(grid_dim):
                    for warp_idx in range(warps):
                        # Per-warp icache: warps spread across SMs, so each
                        # warp streams the kernel's code through its own
                        # front end.
                        icache = InstructionCache(self._icache_capacity) \
                            if self._icache_capacity else InstructionCache()
                        base = warp_idx * WARP_SIZE
                        lane_ids = np.arange(base, base + WARP_SIZE,
                                             dtype=np.int64)
                        active = lane_ids < block_dim
                        ctx = _WarpContext(lane_ids, block_idx, block_dim,
                                           grid_dim, active)
                        counters = self._run_warp(func, entry, ctx, args,
                                                  active, icache)
                        total.merge(counters)
                        fetch_stalls += icache.stall_cycles
                        if ctx.ret_values is not None:
                            ret_all.append(ctx.ret_values)
        # Fetch stalls were charged into per-warp cycles as they occurred;
        # record the aggregate for the stall_inst_fetch metric.
        total.fetch_stall_cycles = fetch_stalls
        total.bytes_loaded = self.memory.stats.bytes_loaded
        total.bytes_stored = self.memory.stats.bytes_stored
        total.load_transactions = self.memory.stats.load_transactions
        total.store_transactions = self.memory.stats.store_transactions
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

        Cached per function: the first launch decodes, later launches (and
        every warp/group step) reuse the flat form.
        """
        cached = self._decoded.get(id(func))
        if cached is not None:
            return cached
        rpo_index = {id(b): i
                     for i, b in enumerate(reverse_postorder(func))}
        dblocks: Dict[int, _DecodedBlock] = {
            id(block): _DecodedBlock(block,
                                     rpo_index.get(id(block), _UNKNOWN_RPO))
            for block in func.blocks}
        for block in func.blocks:
            self._decode_block(block, dblocks[id(block)], dblocks)
        entry = dblocks[id(func.entry)]
        self._decoded[id(func)] = entry
        return entry

    def _decode_block(self, block: BasicBlock, db: _DecodedBlock,
                      dblocks: Dict[int, _DecodedBlock]) -> None:
        term_cost = None
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                continue  # Materialised on edges.
            if isinstance(inst, BranchInst):
                db.term_kind = _T_BR
                db.term = self._decode_edge(block, db, inst.target, dblocks)
                term_cost = _BR_COST
                break
            if isinstance(inst, CondBranchInst):
                db.term_kind = _T_CONDBR
                db.term = (
                    self._reader(inst.condition),
                    self._decode_edge(block, db, inst.true_target, dblocks),
                    self._decode_edge(block, db, inst.false_target, dblocks))
                term_cost = _CONDBR_COST
                break
            if isinstance(inst, RetInst):
                db.term_kind = _T_RET
                if inst.value is not None:
                    db.term = (self._reader(inst.value),
                               storage_dtype(inst.value.type))
                else:
                    db.term = (None, None)
                term_cost = _RET_COST
                break
            if isinstance(inst, UnreachableInst):
                db.term_kind = _T_UNREACHABLE
                break
            db.steps.append(self._decode_step(inst))
        db.seal(term_cost)

    def _decode_edge(self, src: BasicBlock, src_db: _DecodedBlock,
                     dst: BasicBlock,
                     dblocks: Dict[int, _DecodedBlock]) -> _Edge:
        target = dblocks[id(dst)]
        bump = 1 if target.rpo <= src_db.rpo else 0  # Back edge.
        # Parallel-copy phi moves: one (writer, incoming reader) per phi.
        # Readers return the live value slot by reference, so when an
        # incoming value is itself a phi of ``dst`` (e.g. unmerge resolving
        # a clone's phi straight to a header phi: v1 <- v3 while the same
        # edge writes v3), the staged read must snapshot the slot or the
        # masked write to the sibling phi corrupts it mid-copy.
        dst_phis = {id(phi) for phi in dst.phis()}
        moves = []
        for phi in dst.phis():
            incoming = phi.incoming_for(src)
            read = self._reader(incoming)
            if id(incoming) in dst_phis:
                read = _snapshot_reader(read)
            src_id = id(incoming) if isinstance(incoming, Instruction) \
                else None
            moves.append((self._writer(phi), read, id(phi),
                          storage_dtype(phi.type), src_id))
        return _Edge(target, bump, moves)

    def _decode_step(self, inst: Instruction) -> Tuple:
        category = inst.category
        cat_idx = cat_index(category)
        intrinsic = inst.intrinsic.name if isinstance(inst, CallInst) else ""
        cost = issue_cost(category, inst.opcode, intrinsic)

        if isinstance(inst, LoadInst):
            read_ptr = self._reader(inst.pointer)
            elem = inst.type.size_bytes()
            dtype = storage_dtype(inst.type)
            write = self._writer(inst)
            memory = self.memory

            def run_load(ctx, arg_values, mask, active, counters):
                addrs = read_ptr(ctx, arg_values)
                raw, transactions = memory.load(addrs, mask, elem)
                latency = charge(load_latency(transactions), active)
                counters.cycles += latency
                counters.memory_stall_cycles += latency
                counters.cat_cycles[_CAT_LOAD] += latency
                write(ctx, raw, mask)

            def brun_load(ctx, arg_values, mask, actives, state):
                # One memory.load per warp row: transaction counting (and
                # therefore the latency charge) is a per-warp-access
                # quantity the coalescing model defines on 32-lane
                # accesses, so it cannot be fused across warps.  A row
                # with no active lane touches nothing and is skipped.
                addrs = read_ptr(ctx, arg_values)
                if addrs.shape != mask.shape:
                    addrs = np.broadcast_to(addrs, mask.shape)
                out = np.zeros(mask.shape, dtype=dtype)
                latencies = [0.0] * mask.shape[0]
                for w, active in enumerate(actives.tolist()):
                    if active:
                        out[w], transactions = memory.load(addrs[w], mask[w],
                                                           elem)
                        latencies[w] = charge(load_latency(transactions),
                                              active)
                # One elementwise add per accumulator: per row the same
                # double added to the same double as row by row.
                latencies = np.array(latencies)
                state.cycles += latencies
                state.memory_stall += latencies
                state.cat_cycles[:, _CAT_LOAD] += latencies
                write(ctx, out, mask)

            return (category, cat_idx, cost, _K_LOAD, run_load, brun_load,
                    None, (id(inst), dtype))

        if isinstance(inst, StoreInst):
            read_ptr = self._reader(inst.pointer)
            read_val = self._reader(inst.value)
            elem = inst.value.type.size_bytes()
            memory = self.memory

            def run_store(ctx, arg_values, mask, active, counters):
                addrs = read_ptr(ctx, arg_values)
                values = read_val(ctx, arg_values)
                transactions = memory.store(addrs, values, mask, elem)
                c = charge(store_cost(transactions), active)
                counters.cycles += c
                counters.cat_cycles[_CAT_STORE] += c

            def brun_store(ctx, arg_values, mask, actives, state):
                addrs = read_ptr(ctx, arg_values)
                values = read_val(ctx, arg_values)
                if addrs.shape != mask.shape:
                    addrs = np.broadcast_to(addrs, mask.shape)
                if values.shape != mask.shape:
                    values = np.broadcast_to(values, mask.shape)
                costs = [0.0] * mask.shape[0]
                for w, active in enumerate(actives.tolist()):
                    if active:
                        transactions = memory.store(addrs[w], values[w],
                                                    mask[w], elem)
                        costs[w] = charge(store_cost(transactions), active)
                costs = np.array(costs)
                state.cycles += costs
                state.cat_cycles[:, _CAT_STORE] += costs

            return (category, cat_idx, cost, _K_STORE, run_store, brun_store,
                    None, None)

        if inst.type.is_void:
            # e.g. syncthreads: only the issue timing is charged.
            return (category, cat_idx, cost, _K_VOID, None, None, None, None)

        # A result type without a storage dtype (label, function) cannot
        # be executed; every other decode site sees only operand, phi,
        # load and argument types, which the verifier keeps first-class.
        try:
            dtype = storage_dtype(inst.type)
        except ValueError as exc:
            raise SimulationError(str(exc)) from exc
        # meta carries the Instruction itself so the region fuser
        # (gpu/fuser.py) can regenerate the value expression from IR.
        return (category, cat_idx, cost, _K_VALUE, self._value_fn(inst),
                None, self._writer(inst), (id(inst), dtype, inst))

    def _value_fn(self, inst: Instruction):
        """Closure computing one instruction's value (operands pre-bound).

        What the value *is* comes from the op-semantics table
        (:mod:`repro.semantics`); only allocas (context-dependent
        addresses) and launch geometry are the machine's own.
        """
        if isinstance(inst, AllocaInst):
            memory = self.memory
            return lambda ctx, args: ctx.alloca_addrs(memory, inst)
        attr = GEOMETRY.get(inst.intrinsic.name) \
            if isinstance(inst, CallInst) else None
        if attr is not None:
            return lambda ctx, args: getattr(ctx, attr)
        op = op_for(inst)
        if op is None:
            def bad(ctx, args, _inst=inst):
                raise SimulationError(f"cannot execute {_inst!r}")
            return bad
        kernel = op.kernel
        readers = tuple(self._reader(v) for v in inst.operands)
        if len(readers) == 2:
            ra, rb = readers
            return lambda ctx, args: kernel(ra(ctx, args), rb(ctx, args))
        if len(readers) == 1:
            ra, = readers
            return lambda ctx, args: kernel(ra(ctx, args))
        return lambda ctx, args: kernel(*[r(ctx, args) for r in readers])

    def _reader(self, value: Value):
        """Closure reading one operand's per-lane vector.

        Constants, undef, and global addresses materialise once per
        machine into shared read-only arrays (no consumer mutates operand
        vectors); arguments and SSA values resolve through the per-warp
        context exactly like the tree-walking interpreter did.
        """
        if isinstance(value, (ConstantInt, ConstantFloat, Undef,
                              GlobalVariable)):
            arr = self._operand_vec(value)
            return lambda ctx, args: arr
        if isinstance(value, Argument):
            vid = id(value)
            return lambda ctx, args: args[vid]
        vid, vname = id(value), value.name

        def read(ctx, args):
            stored = ctx.values.get(vid)
            if stored is None:
                raise SimulationError(f"use of undefined value %{vname}")
            return stored
        return read

    def _operand_vec(self, value: Value) -> np.ndarray:
        """The ``(32,)`` vector of a constant, undef or global address.

        Built once per machine and shared read-only by every reader and
        fused segment that mentions the operand.
        """
        arr = self._operand_vecs.get(value)
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
            self._operand_vecs[value] = arr
        return arr

    @staticmethod
    def _writer(inst: Value):
        """Closure writing an instruction's result under the active mask.

        Shape-generic: slots take the mask's shape — ``(32,)`` per warp,
        ``(n, 32)`` on the batched lattice — and values that come out of
        an all-uniform-operand computation (e.g. constant + argument) are
        broadcast up to it.
        """
        dtype = storage_dtype(inst.type)
        iid = id(inst)

        def write(ctx, value, mask):
            slot = ctx.values.get(iid)
            if slot is None:
                slot = ctx.values[iid] = np.zeros(mask.shape, dtype=dtype)
            # Casts to the slot's dtype and broadcasts up to its shape.
            np.copyto(slot, value, where=mask, casting="unsafe")
        return write

    # -- warp execution ------------------------------------------------------
    def _run_warp(self, func: Function, entry: _DecodedBlock,
                  ctx: _WarpContext, args: Sequence[ArgValue],
                  initial_mask: np.ndarray,
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
        arg_values = self._bind_args(func, args)
        groups: List[Tuple[int, _DecodedBlock, np.ndarray, int]] = [
            (0, entry, initial_mask.copy(),
             int(np.count_nonzero(initial_mask)))]
        self._warp_loop(func, ctx, arg_values, groups, counters, icache)
        return counters

    def _warp_loop(self, func: Function, ctx: _WarpContext,
                   arg_values: Dict[int, np.ndarray], groups: List,
                   counters: Counters, icache: InstructionCache) -> None:
        """Drive ``groups`` to completion (the scheduler of ``_run_warp``).

        Split out so the lattice dispatcher can *demote* a warp mid-flight:
        it seeds ``counters``/``groups``/``ctx`` with the warp's state at
        the divergence point and resumes here.
        """
        profile = self.profile
        while groups:
            if counters.cycles > self.max_cycles:
                raise SimulationError(
                    f"@{func.name}: exceeded {self.max_cycles} cycles "
                    "(runaway kernel?)")
            if len(groups) > 1:
                groups = _merge_groups(groups)
            epoch, db, mask, active = groups.pop()
            if not active:
                continue
            counters.cycles += icache.access(db.block_id, db.size)
            if profile is None:
                self._exec_decoded(func, db, epoch, mask, active, ctx,
                                   arg_values, counters, groups)
            else:
                start_cycles = counters.cycles
                self._exec_decoded(func, db, epoch, mask, active, ctx,
                                   arg_values, counters, groups)
                # Timestamps are warp-local cycle counts: samples from
                # concurrent warps interleave on the timeline, which is
                # exactly the resident-warp overlap picture an SM sees.
                profile.note_block(db.name,
                                   counters.cycles - start_cycles,
                                   active, WARP_SIZE, start_cycles)

    def _exec_decoded(self, func: Function, db: _DecodedBlock, epoch: int,
                      mask: np.ndarray, active: int, ctx: _WarpContext,
                      arg_values: Dict[int, np.ndarray], counters: Counters,
                      groups: List) -> None:
        """Execute one decoded block for one group of ``active`` lanes."""
        counters.note_issue(db.issues, active)
        charges = db.charges(active)
        cat_cycles = counters.cat_cycles
        for (_category, cat_idx, _cost, kind, run, _brun, write,
             _meta), c in zip(db.steps, charges):
            counters.cycles += c
            cat_cycles[cat_idx] += c
            if kind == _K_VALUE:
                write(ctx, run(ctx, arg_values), mask)
            elif kind != _K_VOID:
                run(ctx, arg_values, mask, active, counters)

        term_kind = db.term_kind
        if term_kind >= _T_UNREACHABLE:
            raise _bad_terminator(func, db)
        c = charges[-1]
        counters.cycles += c
        cat_cycles[_CAT_CONTROL] += c
        if term_kind == _T_BR:
            counters.branches += 1
            self._follow(db.term, epoch, mask, active, ctx, arg_values,
                         counters, groups)
        elif term_kind == _T_CONDBR:
            counters.branches += 1
            read_cond, true_edge, false_edge = db.term
            cond = read_cond(ctx, arg_values).astype(bool, copy=False)
            t_mask = mask & cond
            # The lanes partition: one count gives both sides.
            taken = int(np.count_nonzero(t_mask))
            if taken == active:
                self._follow(true_edge, epoch, t_mask, active, ctx,
                             arg_values, counters, groups)
            elif not taken:
                self._follow(false_edge, epoch, mask, active, ctx,
                             arg_values, counters, groups)
            else:
                counters.divergent_branches += 1
                self._follow(true_edge, epoch, t_mask, taken, ctx,
                             arg_values, counters, groups)
                self._follow(false_edge, epoch, mask & ~cond,
                             active - taken, ctx, arg_values, counters,
                             groups)
        else:  # _T_RET
            read_value, dtype = db.term
            if read_value is not None:
                if ctx.ret_values is None:
                    ctx.ret_values = np.zeros(mask.shape, dtype=dtype)
                np.copyto(ctx.ret_values, read_value(ctx, arg_values),
                          where=mask, casting="unsafe")

    def _follow(self, edge: _Edge, epoch: int, mask: np.ndarray,
                active: int, ctx: _WarpContext,
                arg_values: Dict[int, np.ndarray], counters: Counters,
                groups: List) -> None:
        """Run the edge's phi moves and park the group at the target."""
        moves = edge.moves
        if moves:
            c = _PHI_CHARGES[active]
            cat_cycles = counters.cat_cycles
            counters.note_issue(edge.issues, active)  # One mov per phi.
            # Parallel-copy semantics: read all incomings before writing.
            staged = [(write, read(ctx, arg_values))
                      for write, read, _pid, _dt, _sid in moves]
            for write, value in staged:
                counters.cycles += c
                cat_cycles[_CAT_MISC] += c
                write(ctx, value, mask)
        groups.append((epoch + edge.bump_epoch, edge.target, mask, active))

    # -- value plumbing --------------------------------------------------------
    def _bind_args(self, func: Function,
                   args: Sequence[ArgValue]) -> Dict[int, np.ndarray]:
        bound: Dict[int, np.ndarray] = {}
        for arg, value in zip(func.args, args):
            dtype = storage_dtype(arg.type)
            bound[id(arg)] = np.full(WARP_SIZE, value, dtype=dtype)
        return bound
