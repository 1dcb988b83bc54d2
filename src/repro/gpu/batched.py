"""Launch-vectorized batched execution: the lattice dispatcher.

This module is the ``jit`` engine's dispatcher and its block
interpreter: each scheduler pop is first offered to the trace tier
(:func:`repro.gpu.jit.enter_region`), and whatever that leaves — every
block until it gets hot, every group without a full mask, the arms of
an in-region diamond — runs through :func:`interpret_block`.  It
executes *all* warps of a kernel launch
as one ``(n_warps, 32)`` numpy value lattice instead of looping over
warps in Python.  Most HeCBench-style kernels are control-uniform across
warps — every warp runs the same decoded block schedule, only the lane
data differs — so one vectorized pass over the dispatch list replaces
``n_warps`` serial interpreter passes.

Batching invariant
------------------
A batch stays together while every warp makes the *same* control decision:
at each conditional branch the per-warp outcome is classified as
``taken | not-taken | intra-warp-divergent``.  While the classification is
uniform across all rows, every warp's group scheduler would behave
identically (same blocks, same epochs, same merge/sort/pop sequence, same
icache access stream), so one representative schedule — and one
representative :class:`~repro.gpu.icache.InstructionCache` — stands in for
all of them.  The moment warps disagree, the batch *splits* into per-class
sub-batches (which keep running vectorized) and singleton classes *demote*
onto :class:`~repro.gpu.machine.SimtMachine`'s per-warp path, resuming from
the exact divergence point with their sliced register state, seeded
counters, and a cloned icache.

Groups carry their counts.  A parked group is ``(epoch, block, mask,
actives)``: the ``(n, 32)`` mask and, made with it, its ``(n,)`` per-row
active-lane counts (one int per group on the per-warp path).  Nothing
downstream recounts a mask it was handed — hardware does not either, a
SIMT-stack entry carries its active mask with its PC.  At a conditional
branch one count of the taken side gives both sides (the lanes of a row
partition: ``f = actives - t``), groups merging at a block add their
counts (their lanes are disjoint), the charge factor, the full-mask test
for region entry and the per-row branch classification all read the
counts, and no live row is ever empty, so nothing asks a mask ``.any()``.

Bit-identicality contract
-------------------------
Return values, counters, and cycle totals equal the per-warp engine
*exactly* (``tests/test_engine_equivalence.py``), which is what lets the
persistent cell cache omit the engine from its keys and the fuzz oracle
treat engines as interchangeable.  Accounting splits in two:

* **integers, once per block** — ``inst_executed``,
  ``thread_inst_executed``, ``active_lane_sum`` and the six ``inst_*``
  counters commute, so decode seals each block's issue counts
  (:meth:`_DecodedBlock.seal <repro.gpu.machine._DecodedBlock.seal>`) and
  a dispatch applies them in one ``Counters.note_issue`` (an edge's phi
  moves in one more), wherever in the block the steps sat;
* **floats, once per step** — float addition does not associate, so the
  per-warp cycle/stall accumulators are ``(n,)`` float64 vectors updated
  elementwise in the *same step order* as the serial engine.  The charges
  themselves are formed once per dispatch (``cost_column * factor``: each
  element the same :func:`~repro.gpu.timing.charge` product as before —
  IEEE doubles make the per-row sums bit-identical); only their *adds*
  stay one per step, memory latencies interleaved where they occur.

The final reduction into the launch :class:`~repro.gpu.counters.Counters`
runs in original warp order (block-major), for the same reason.

Memory transaction counting stays per-warp: loads/stores loop over the
rows of the lattice calling :meth:`Memory.load`/:meth:`Memory.store` once
per warp access, so coalescing statistics and latency charges match the
serial engine per warp.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .counters import Counters, N_CATEGORIES
from .icache import InstructionCache
from .memory import Memory
from .timing import ACTIVITY_FRACTION, ISSUE_FIXED_FRACTION
from .machine import (WARP_SIZE, SimulationError, _CAT_CONTROL, _CAT_MISC,
                      _PHI_COST, _K_VALUE, _K_VOID, _T_BR, _T_CONDBR,
                      _T_UNREACHABLE, _WarpContext, _bad_terminator,
                      _geometry_vec, _merge_groups)
from .regions import RegionMap

# Per-row conditional-branch classification (bit 1: any lane taken,
# bit 0: any lane not taken).  A live mask row is never empty, so 0 cannot
# occur; 3 is intra-warp divergence, which every row shares or the batch
# splits.
_CLS_DIVERGENT = 3
_CLS_TAKEN = 2
_CLS_NOT_TAKEN = 1

#: Demotion hysteresis: when the function holds a compiled region, a
#: warp must have diverged from its batch this many times before it is
#: handed, as a singleton, to the per-warp engine.  A briefly-diverging
#: warp (one boundary branch, then reconvergence) instead continues as a
#: one-row batch — identical lattice accounting, so observably the same
#: — whose full-mask rows re-enter compiled regions (measured ~1.4x on
#: ``benchmarks/perf/kernels/briefdiv.ir``; pinned by count in
#: ``tests/test_tier_up.py``).  With no region to re-enter — a
#: function still cold when the singleton's turn comes — one split is
#: enough: a one-row lattice is *slower* than
#: the per-warp engine's scalar accounting, which is the old ~0.91x
#: worst case.  Rows that keep splitting are genuinely chaotic and
#: demote either way.
DEMOTE_HYSTERESIS = 2

#: What ``jit.enter_region`` returns for a block left to the interpreter.
INTERPRET = object()


class _BatchContext:
    """Register state for a batch of warps: ``(n, 32)`` value lattices.

    Mirrors :class:`~repro.gpu.machine._WarpContext` field-for-field so the
    decoded readers/writers/intrinsics work on either; ``rows`` maps each
    lattice row back to its original (block-major) warp index for the final
    ordered reduction.
    """

    __slots__ = ("values", "lane_ids", "block_ids", "ctaid", "ntid",
                 "nctaid", "block_dim", "grid_dim", "rows", "n", "allocas",
                 "ret_values")

    def __init__(self, lane_ids: np.ndarray, block_ids: np.ndarray,
                 block_dim: int, grid_dim: int, rows: np.ndarray) -> None:
        self.values: Dict[int, np.ndarray] = {}
        # Region value steps rebind slots directly; freezing the geometry
        # lattice makes any aliasing rebind (e.g. ``%t = tid.x``) detectable
        # by the region-exit normalization pass instead of silently sharing
        # a mutable buffer with the context.
        lane_ids.setflags(write=False)
        self.lane_ids = lane_ids                  # (n, 32) in-block tids.
        self.block_ids = block_ids                # (n,) owning block ids.
        self.ctaid = np.broadcast_to(block_ids[:, None], lane_ids.shape)
        self.ntid = _geometry_vec(block_dim)      # (32,) broadcasts up.
        self.nctaid = _geometry_vec(grid_dim)
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.rows = rows                          # (n,) original warp rows.
        self.n = lane_ids.shape[0]
        self.allocas: Dict[int, np.ndarray] = {}  # inst id -> (n,) bases.
        self.ret_values: Optional[np.ndarray] = None

    def alloca_addrs(self, memory: Memory, inst) -> np.ndarray:
        """Per-lane alloca base addresses, one buffer per warp row.

        Allocation *order* differs from the serial engine (which allocates
        lazily as each warp reaches the alloca), but every allocation is
        256-byte aligned, so 32-byte-segment transaction counts — the only
        address-derived quantity in the timing model — are unaffected.
        """
        bases = self.allocas.get(id(inst))
        if bases is None:
            dtype = repr(inst.element_type)
            count = inst.count * WARP_SIZE
            bases = np.empty(self.n, dtype=np.int64)
            for pos in range(self.n):
                bases[pos] = memory.alloc(
                    f"__alloca_{inst.name}_{id(self):x}_{int(self.rows[pos])}",
                    dtype, count)
            self.allocas[id(inst)] = bases
        elem = inst.element_type.size_bytes()
        stride = inst.count * elem
        return bases[:, None] + np.arange(WARP_SIZE, dtype=np.int64) * stride


class _BatchState:
    """One batch mid-execution: context, accumulators, schedule, icache."""

    __slots__ = ("ctx", "cycles", "memory_stall", "cat_cycles", "icache",
                 "groups", "splits")

    def __init__(self, ctx: _BatchContext, cycles: np.ndarray,
                 memory_stall: np.ndarray, cat_cycles: np.ndarray,
                 icache: InstructionCache, groups: List,
                 splits: Optional[np.ndarray] = None) -> None:
        self.ctx = ctx
        self.cycles = cycles              # (n,) float64 per-warp cycles.
        self.memory_stall = memory_stall  # (n,) float64 memory stalls.
        self.cat_cycles = cat_cycles      # (n, N_CATEGORIES) float64.
        self.icache = icache              # Representative for all rows.
        #: [(epoch, db, (n, 32) mask, (n,) active lanes per row)].
        self.groups = groups
        #: Per-row count of batch splits survived (demotion hysteresis).
        self.splits = splits if splits is not None \
            else np.zeros(ctx.n, dtype=np.int64)


class _Results:
    """Per-original-warp outcome sinks, reduced in warp order at the end."""

    __slots__ = ("cycles", "memory_stall", "cat", "fetch", "ret")

    def __init__(self, n: int) -> None:
        self.cycles = [0.0] * n
        self.memory_stall = [0.0] * n
        self.cat = [[0.0] * N_CATEGORIES for _ in range(n)]
        self.fetch = [0] * n
        self.ret: List[Optional[np.ndarray]] = [None] * n


def _merge_ints(total: Counters, counters: Counters) -> None:
    """Fold a demoted warp's integer counters into the launch total.

    Float fields (cycles, stalls, category cycles) go through the ordered
    per-warp reduction instead, to match serial summation order.
    """
    for name in ("inst_executed", "thread_inst_executed", "active_lane_sum",
                 "inst_misc", "inst_control", "inst_int", "inst_fp",
                 "inst_load", "inst_store", "divergent_branches", "branches"):
        setattr(total, name, getattr(total, name) + getattr(counters, name))


def _issue_factor(actives: np.ndarray) -> np.ndarray:
    """Vectorized ``charge`` factor, same expression shape as the scalar."""
    return ISSUE_FIXED_FRACTION + ACTIVITY_FRACTION * actives / WARP_SIZE


def run_launch_batched(machine, func, entry, grid_dim: int, block_dim: int,
                       args: Sequence, total: Counters
                       ) -> Tuple[List[np.ndarray], int]:
    """Run one launch on the lattice dispatcher (the ``jit`` engine).

    The function's :class:`RegionMap` rides along: blocks tier up into
    compiled regions as they get hot.  Fills ``total``'s integer
    counters as it goes, then reduces the float accumulators in
    original warp order.  Returns ``(ret_all, fetch_stalls)`` exactly
    as the serial loop in ``launch()`` would.
    """
    regions = machine._regions.get(id(func))
    if regions is None:
        regions = machine._regions[id(func)] = RegionMap(func.name)
    warps = (block_dim + WARP_SIZE - 1) // WARP_SIZE
    n = grid_dim * warps
    arg_values = machine._bind_args(func, args)
    warp_lanes = (np.arange(warps, dtype=np.int64)[:, None] * WARP_SIZE
                  + np.arange(WARP_SIZE, dtype=np.int64))
    lane_ids = np.tile(warp_lanes, (grid_dim, 1))
    block_ids = np.repeat(np.arange(grid_dim, dtype=np.int64), warps)
    ctx = _BatchContext(lane_ids, block_ids, block_dim, grid_dim,
                        np.arange(n))
    icache = InstructionCache(machine._icache_capacity) \
        if machine._icache_capacity else InstructionCache()
    active = lane_ids < block_dim
    state = _BatchState(ctx, np.zeros(n), np.zeros(n),
                        np.zeros((n, N_CATEGORIES)), icache,
                        [(0, entry, active, active.sum(axis=1))])
    results = _Results(n)
    worklist = [state]
    while worklist:
        _run_state(machine, func, worklist.pop(), arg_values, total,
                   results, worklist, regions)

    # Ordered float reduction: serial `total.merge(per_warp_counters)` adds
    # warp totals block-major; match that order bit-for-bit.
    ret_all: List[np.ndarray] = []
    fetch_stalls = 0
    for w in range(n):
        total.cycles += results.cycles[w]
        total.memory_stall_cycles += results.memory_stall[w]
        cat = results.cat[w]
        for i in range(N_CATEGORIES):
            total.cat_cycles[i] += cat[i]
        fetch_stalls += results.fetch[w]
        if results.ret[w] is not None:
            ret_all.append(results.ret[w])
    return ret_all, fetch_stalls


def _run_state(machine, func, state: _BatchState, arg_values, total,
               results: _Results, worklist: List[_BatchState],
               regions: RegionMap) -> None:
    """Drive one batch: the serial group scheduler, lifted to the lattice.

    Merge groups parked at the same block (ORing the (n, 32) masks,
    adding their lane counts), run the laggard (min ``(epoch, rpo)``), and
    repeat — identical pop order to what every row's serial scheduler
    would produce, by the batching invariant.  Each pop is first
    offered to the trace tier.  A singleton that has split off often
    enough (``DEMOTE_HYSTERESIS``) goes to the per-warp engine instead.
    Splits and abandons the state on cross-warp divergence; records
    results when the schedule drains.
    """
    # A RegionMap is truthy once it holds a compiled region to re-enter.
    if (state.ctx.n == 1
            and state.splits[0] >= (DEMOTE_HYSTERESIS if regions else 1)):
        _demote_row(machine, func, state, arg_values, total, results)
        return
    from .jit import enter_region  # Deferred: jit builds on this module.
    profile = machine.profile
    while state.groups:
        if float(state.cycles.max()) > machine.max_cycles:
            raise SimulationError(
                f"@{func.name}: exceeded {machine.max_cycles} cycles "
                "(runaway kernel?)")
        if len(state.groups) > 1:
            state.groups = _merge_groups(state.groups)
        epoch, db, mask, actives = state.groups.pop()
        lanes = int(actives.sum())
        if not lanes:
            continue
        pending = enter_region(machine, func, regions, db, epoch, mask,
                               state, arg_values, total, actives, lanes)
        if pending is INTERPRET:
            pending = interpret_block(machine, func, db, epoch, mask, state,
                                      arg_values, total, actives, lanes,
                                      profile)
        if pending is not None:
            if profile is not None:
                cls = pending[-1]
                profile.note_split(db.name, len(set(cls.tolist())),
                                   int(cls.size))
            _split_state(state, arg_values, pending, total, worklist)
            return
    _finish_state(state, results)


def interpret_block(machine, func, db, epoch: int, mask: np.ndarray,
                    state: _BatchState, arg_values, total: Counters,
                    actives: np.ndarray, lanes: int, profile):
    """One interpreted dispatch — fetch, execute, sample — of a pop the
    trace tier declined or of a diamond arm inside a compiled region
    (``jit._exec_arm``).  Returns :func:`_exec_block`'s outcome.
    """
    state.cycles += state.icache.access(db.block_id, db.size)
    if profile is None:
        return _exec_block(machine, func, db, epoch, mask, state, arg_values,
                           total, actives, lanes)
    # One sample per batched block execution: active lanes summed over
    # all rows against the whole lattice's lane capacity, timestamped by
    # the representative row's cycles.
    start_ts = float(state.cycles[0])
    before = float(state.cycles.sum())
    pending = _exec_block(machine, func, db, epoch, mask, state, arg_values,
                          total, actives, lanes)
    profile.note_block(db.name, float(state.cycles.sum()) - before, lanes,
                       mask.size, start_ts)
    return pending


def _exec_block(machine, func, db, epoch: int, mask: np.ndarray,
                state: _BatchState, arg_values, total: Counters,
                actives: np.ndarray, lanes: int):
    """Execute one decoded block for the whole batch.

    ``actives`` are the mask's per-row lane counts and ``lanes`` their
    sum.  Returns ``None`` when the batch stays together, or the pending
    conditional-branch split (see :func:`_resolve_condbr`) when warps
    disagree.
    """
    ctx = state.ctx
    n = mask.shape[0]
    total.note_issue(db.issues, lanes, n)
    # Every charge of the dispatch in one product: row k is step k's
    # ``cost * factor``, the last row the terminator's.
    charges = db.cost_column * _issue_factor(actives)
    cycles = state.cycles
    cat = state.cat_cycles
    for (_category, cat_idx, _cost, kind, run, brun, write,
         _meta), c in zip(db.steps, charges):
        cycles += c
        cat[:, cat_idx] += c
        if kind == _K_VALUE:
            write(ctx, run(ctx, arg_values), mask)
        elif kind != _K_VOID:
            brun(ctx, arg_values, mask, actives, state)

    term_kind = db.term_kind
    if term_kind >= _T_UNREACHABLE:
        raise _bad_terminator(func, db)
    c = charges[-1]
    cycles += c
    cat[:, _CAT_CONTROL] += c
    if term_kind == _T_BR:
        total.branches += n
        _follow_batch(db.term, epoch, mask, actives, state, arg_values,
                      total)
        return None
    if term_kind == _T_CONDBR:
        total.branches += n
        read_cond, true_edge, false_edge = db.term
        return _resolve_condbr(read_cond(ctx, arg_values), mask, actives,
                               true_edge, false_edge, epoch, state,
                               arg_values, total)
    _write_ret(ctx, db.term, mask, arg_values)
    return None


def _write_ret(ctx, ret, mask: np.ndarray, arg_values) -> None:
    """A ``ret`` terminator: the returned value under the group's mask."""
    read_value, dtype = ret
    if read_value is not None:
        if ctx.ret_values is None:
            ctx.ret_values = np.zeros(mask.shape, dtype=dtype)
        np.copyto(ctx.ret_values, read_value(ctx, arg_values), where=mask,
                  casting="unsafe")


def _classify(cond, mask: np.ndarray, actives: np.ndarray):
    """Per-row outcome of a conditional branch over one group.

    Returns ``(first, t_mask, t_actives, f_actives, cls)``: the taken
    side's mask (the other side is ``mask & ~t_mask``), both sides'
    per-row lane counts — the lanes of a row partition, so one count
    gives both — the per-row class, and ``first``, the class every row
    shares (None when rows disagree).
    """
    t_mask = mask & cond.astype(bool, copy=False)
    t_actives = t_mask.sum(axis=1)
    f_actives = actives - t_actives
    cls = (t_actives > 0) * _CLS_TAKEN + (f_actives > 0)
    classes = cls.tolist()
    first = classes[0]
    if classes.count(first) != len(classes):
        first = None
    return first, t_mask, t_actives, f_actives, cls


def _resolve_condbr(cond, mask: np.ndarray, actives: np.ndarray, true_edge,
                    false_edge, epoch: int, state: _BatchState, arg_values,
                    total: Counters):
    """Resolve a conditional branch for a group of the batch.

    Parks the sub-groups when all rows agree, or returns the pending
    split ``(true_edge, false_edge, epoch, t_mask, f_mask, t_actives,
    f_actives, cls)`` for ``_split_state``.
    """
    first, t_mask, t_actives, f_actives, cls = _classify(cond, mask, actives)
    if first == _CLS_TAKEN:
        _follow_batch(true_edge, epoch, t_mask, actives, state, arg_values,
                      total)
    elif first == _CLS_NOT_TAKEN:
        _follow_batch(false_edge, epoch, mask, actives, state, arg_values,
                      total)
    elif first == _CLS_DIVERGENT:
        total.divergent_branches += mask.shape[0]
        _follow_batch(true_edge, epoch, t_mask, t_actives, state, arg_values,
                      total)
        _follow_batch(false_edge, epoch, mask & ~t_mask, f_actives, state,
                      arg_values, total)
    else:
        return (true_edge, false_edge, epoch, t_mask, mask & ~t_mask,
                t_actives, f_actives, cls)
    return None


def _follow_batch(edge, epoch: int, mask: np.ndarray, actives: np.ndarray,
                  state: _BatchState, arg_values, total: Counters) -> None:
    """Batched ``_follow``: phi edge-moves over the lattice, then park."""
    moves = edge.moves
    if moves:
        ctx = state.ctx
        c = _PHI_COST * _issue_factor(actives)
        total.note_issue(edge.issues, int(actives.sum()),
                         mask.shape[0])  # One mov per phi.
        # Parallel-copy semantics: read all incomings before writing.
        staged = [(write, read(ctx, arg_values))
                  for write, read, _pid, _dt, _sid in moves]
        for write, value in staged:
            state.cycles += c
            state.cat_cycles[:, _CAT_MISC] += c
            write(ctx, value, mask)
    state.groups.append((epoch + edge.bump_epoch, edge.target, mask, actives))


def _split_state(state: _BatchState, arg_values, pending, total: Counters,
                 worklist: List[_BatchState]) -> None:
    """Partition a diverged batch by branch class and keep going.

    Every class continues as a sliced sub-batch (fancy-indexed copies of
    every lattice, cloned icache) with the pending branch resolved on
    it; whether a singleton then demotes to the per-warp engine is
    decided when its turn comes (``_run_state``), not here.
    """
    (true_edge, false_edge, epoch, t_mask, f_mask, t_actives, f_actives,
     cls) = pending
    for value in (_CLS_DIVERGENT, _CLS_TAKEN, _CLS_NOT_TAKEN):
        idx = np.flatnonzero(cls == value)
        if idx.size == 0:
            continue
        sub = _slice_state(state, idx)
        if value == _CLS_DIVERGENT:
            total.divergent_branches += int(idx.size)
        if value != _CLS_NOT_TAKEN:
            _follow_batch(true_edge, epoch, t_mask[idx], t_actives[idx], sub,
                          arg_values, total)
        if value != _CLS_TAKEN:
            _follow_batch(false_edge, epoch, f_mask[idx], f_actives[idx],
                          sub, arg_values, total)
        worklist.append(sub)


def _slice_state(state: _BatchState, idx: np.ndarray) -> _BatchState:
    """Sub-batch of ``state`` holding the rows in ``idx`` (copies)."""
    octx = state.ctx
    ctx = _BatchContext(octx.lane_ids[idx], octx.block_ids[idx],
                        octx.block_dim, octx.grid_dim, octx.rows[idx])
    ctx.values = {vid: arr[idx] for vid, arr in octx.values.items()}
    ctx.allocas = {iid: bases[idx] for iid, bases in octx.allocas.items()}
    if octx.ret_values is not None:
        ctx.ret_values = octx.ret_values[idx]
    return _BatchState(ctx, state.cycles[idx], state.memory_stall[idx],
                       state.cat_cycles[idx], state.icache.clone(),
                       [(e, db, m[idx], a[idx])
                        for e, db, m, a in state.groups],
                       state.splits[idx] + 1)


def _demote_row(machine, func, state: _BatchState, arg_values,
                total: Counters, results: _Results) -> None:
    """Hand a one-row batch to the per-warp engine, mid-flight.

    Rebuilds a ``_WarpContext`` over the row's lattices (the sliced
    state owns them), seeds a ``Counters`` with its float accumulators
    so far, and resumes the serial scheduler loop on the parked groups
    and the state's icache.
    """
    octx = state.ctx
    orig = int(octx.rows[0])
    if machine.profile is not None:
        machine.profile.note_demotion(state.groups[0][1].name, orig)
    lane_ids = octx.lane_ids[0]
    wctx = _WarpContext(lane_ids, int(octx.block_ids[0]), octx.block_dim,
                        octx.grid_dim, lane_ids < octx.block_dim)
    wctx.values = {vid: arr[0] for vid, arr in octx.values.items()}
    wctx.allocas = {iid: int(bases[0])
                    for iid, bases in octx.allocas.items()}
    if octx.ret_values is not None:
        wctx.ret_values = octx.ret_values[0]
    counters = Counters()
    counters.cycles = float(state.cycles[0])
    counters.memory_stall_cycles = float(state.memory_stall[0])
    counters.cat_cycles = [float(x) for x in state.cat_cycles[0]]
    groups = [(e, db, m[0], int(a[0])) for e, db, m, a in state.groups]
    machine._warp_loop(func, wctx, arg_values, groups, counters,
                       state.icache)
    results.cycles[orig] = counters.cycles
    results.memory_stall[orig] = counters.memory_stall_cycles
    results.cat[orig] = list(counters.cat_cycles)
    results.fetch[orig] = state.icache.stall_cycles
    results.ret[orig] = wctx.ret_values
    _merge_ints(total, counters)


def _finish_state(state: _BatchState, results: _Results) -> None:
    """Record a drained batch's per-row outcomes into the result sinks."""
    octx = state.ctx
    fetch = state.icache.stall_cycles
    ret = octx.ret_values
    for pos in range(octx.n):
        orig = int(octx.rows[pos])
        results.cycles[orig] = float(state.cycles[pos])
        results.memory_stall[orig] = float(state.memory_stall[pos])
        results.cat[orig] = [float(x) for x in state.cat_cycles[pos]]
        results.fetch[orig] = fetch
        results.ret[orig] = ret[pos].copy() if ret is not None else None
