"""Launch-vectorized batched execution: the lattice dispatcher.

This module is the ``jit`` engine's dispatcher and its block
interpreter: each scheduler pop is first offered to the trace tier
(:func:`repro.gpu.jit.enter_region`), and whatever that leaves — every
block until it gets hot, every block whose trace holds a memory step,
every group without a full mask — runs through :func:`interpret_block`.
It executes *all* warps of a kernel launch as one ``(n_warps, 32)``
numpy value lattice instead of looping over warps in Python.  Most
HeCBench-style kernels are control-uniform across warps — every warp
runs the same decoded block schedule, only the lane data differs — so
one vectorized pass over the dispatch list replaces ``n_warps`` serial
interpreter passes.

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

Return values, counters, and cycle totals equal the per-warp engine
*exactly* (``tests/test_engine_equivalence.py``), which is what lets the
persistent cell cache omit the engine from its keys and the fuzz oracle
treat engines as interchangeable.  Every count is an integer, cycles
included (ticks, :func:`repro.gpu.timing.tick_unit`), so a dispatch
applies a block's sealed issue counts in one ``Counters.note_issue`` and
its charge as one ``(n,)`` int64 add, ``cost * (FIXED_T + ACT_T *
actives)``, and a finished batch adds its rows' ticks to the launch
total in whatever order it finishes.

Memory transaction counting stays per-warp: loads/stores loop over the
rows of the lattice calling :meth:`Memory.load`/:meth:`Memory.store` once
per warp access, so coalescing statistics and latency charges match the
serial engine per warp.

The lattice reads and writes the same value table as the per-warp engine
(:class:`~repro.gpu.machine._Frame`): a context's values are one list,
its own slots ``(n, 32)`` lattices, and a split or a demotion slices or
copies only those — never the shared read-only prefix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .counters import Counters
from .icache import InstructionCache
from .memory import Memory
from .timing import ACT_T, FIXED_T, TICKS_PER_CYCLE, ticks
from .machine import (WARP_SIZE, SimulationError, _K_ALLOCA, _K_LOAD,
                      _K_STORE, _K_TERNARY, _K_VOID, _T_BR, _T_CONDBR,
                      _T_UNREACHABLE, _WarpContext, _bad_terminator,
                      _geometry_vec, _merge_groups, _run_alloca, evaluate,
                      load_latency, store_cost, write_masked)
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
#: enough: a one-row lattice is *slower* than the per-warp engine's
#: scalar accounting — never demoting makes a ``suite_exec`` pass 1.9x
#: as long (EXPERIMENTS.md, "Partial masks, measured").  Rows that keep
#: splitting are genuinely chaotic and demote either way.
DEMOTE_HYSTERESIS = 2

#: What ``jit.enter_region`` returns for a block left to the interpreter.
INTERPRET = object()


class _BatchContext:
    """Register state for a batch of warps: ``(n, 32)`` value lattices.

    Holds the frame's value table like a
    :class:`~repro.gpu.machine._WarpContext`, with lattice rows where a
    warp holds vectors: ``tid`` and ``ctaid`` are ``(n, 32)``, the launch
    values ``ntid``/``nctaid``/arguments ``(32,)`` vectors that broadcast
    up.  ``rows`` maps each lattice row back to its original
    (block-major) warp index, where its return values go.
    """

    __slots__ = ("frame", "values", "block_ids", "rows", "n", "allocas",
                 "ret_values")

    def __init__(self, frame, lane_ids: np.ndarray, block_ids: np.ndarray,
                 rows: np.ndarray, launch: List,
                 slots: Optional[List] = None) -> None:
        # Region value steps rebind slots directly; freezing the geometry
        # lattice makes any aliasing rebind (e.g. ``%t = tid.x``) detectable
        # by the region-exit normalization pass instead of silently sharing
        # a mutable buffer with the context.
        lane_ids.setflags(write=False)
        self.frame = frame
        self.values = frame.values(
            lane_ids, np.broadcast_to(block_ids[:, None], lane_ids.shape),
            launch, slots)
        self.block_ids = block_ids                # (n,) owning block ids.
        self.rows = rows                          # (n,) original warp rows.
        self.n = lane_ids.shape[0]
        self.allocas: Dict[int, np.ndarray] = {}  # slot -> (n,) bases.
        self.ret_values: Optional[np.ndarray] = None

    def alloca_addrs(self, memory: Memory, step) -> np.ndarray:
        """Per-lane alloca base addresses, one buffer per warp row.

        Allocation *order* differs from the serial engine (which allocates
        lazily as each warp reaches the alloca), but every allocation is
        256-byte aligned, so 32-byte-segment transaction counts — the only
        address-derived quantity in the timing model — are unaffected.
        """
        name, dtype, count, elem = step.aux
        bases = self.allocas.get(step.dst)
        if bases is None:
            bases = np.empty(self.n, dtype=np.int64)
            for pos in range(self.n):
                bases[pos] = memory.alloc(
                    f"__alloca_{name}_{id(self):x}_{int(self.rows[pos])}",
                    dtype, count * WARP_SIZE)
            self.allocas[step.dst] = bases
        return bases[:, None] + np.arange(WARP_SIZE,
                                          dtype=np.int64) * (count * elem)

    def take(self, rows) -> Tuple[List, List]:
        """What a context made of some rows of this one starts from: the
        launch slots (``ntid``, ``nctaid``, arguments), shared as they
        are, and the instruction slots, every lattice passed through
        ``rows`` (a fancy index copies, ``0`` views one warp's row)."""
        values, frame = self.values, self.frame
        return (values[frame.base + 2:frame.inst],
                [v[rows] if v.__class__ is np.ndarray else v
                 for v in values[frame.inst:]])


def _load_rows(memory, ctx, step, mask, actives, state) -> None:
    """A load, one ``memory.load`` per warp row.

    Transaction counting (and therefore the latency charge) is a
    per-warp-access quantity the coalescing model defines on 32-lane
    accesses, so it cannot be fused across warps.  A row with no active
    lane touches nothing and is skipped.
    """
    addrs = ctx.values[step.srcs[0]]
    if addrs.shape != mask.shape:
        addrs = np.broadcast_to(addrs, mask.shape)
    out = np.zeros(mask.shape, dtype=step.dtype)
    elem = step.aux
    latencies = [0] * mask.shape[0]
    for w, active in enumerate(actives.tolist()):
        if active:
            out[w], transactions = memory.load(addrs[w], mask[w], elem)
            latencies[w] = ticks(load_latency(transactions), active)
    latencies = np.array(latencies, dtype=np.int64)
    state.cycles += latencies
    state.memory_stall += latencies
    write_masked(ctx.values, step.dst, out, mask)


def _store_rows(memory, ctx, step, mask, actives, state) -> None:
    """A store, one ``memory.store`` per warp row (see :func:`_load_rows`)."""
    ptr, value = step.srcs
    addrs, values = ctx.values[ptr], ctx.values[value]
    if addrs.shape != mask.shape:
        addrs = np.broadcast_to(addrs, mask.shape)
    if values.shape != mask.shape:
        values = np.broadcast_to(values, mask.shape)
    costs = [0] * mask.shape[0]
    for w, active in enumerate(actives.tolist()):
        if active:
            transactions = memory.store(addrs[w], values[w], mask[w],
                                        step.aux)
            costs[w] = ticks(store_cost(transactions), active)
    state.cycles += np.array(costs, dtype=np.int64)


#: The lattice's memory-step runners, by step kind.
ROW_RUNNERS = {_K_ALLOCA: _run_alloca, _K_LOAD: _load_rows,
               _K_STORE: _store_rows}


class _BatchState:
    """One batch mid-execution: context, accumulators, schedule, icache."""

    __slots__ = ("ctx", "cycles", "memory_stall", "icache", "groups",
                 "splits")

    def __init__(self, ctx: _BatchContext, cycles: np.ndarray,
                 memory_stall: np.ndarray, icache: InstructionCache,
                 groups: List,
                 splits: Optional[np.ndarray] = None) -> None:
        self.ctx = ctx
        self.cycles = cycles              # (n,) int64 per-warp ticks.
        self.memory_stall = memory_stall  # (n,) int64 memory-stall ticks.
        self.icache = icache              # Representative for all rows.
        #: [(epoch, db, (n, 32) mask, (n,) active lanes per row)].
        self.groups = groups
        #: Per-row count of batch splits survived (demotion hysteresis).
        self.splits = splits if splits is not None \
            else np.zeros(ctx.n, dtype=np.int64)


class _Results:
    """Where a launch's finished rows go: its total, and each original
    warp's return values."""

    __slots__ = ("total", "ret")

    def __init__(self, total: Counters, n: int) -> None:
        self.total = total
        self.ret: List[Optional[np.ndarray]] = [None] * n


def run_launch_batched(machine, func, frame, grid_dim: int, block_dim: int,
                       launch: List, total: Counters) -> List[np.ndarray]:
    """Run one launch on the lattice dispatcher (the ``jit`` engine).

    The function's :class:`RegionMap` rides along: blocks tier up into
    compiled regions as they get hot.  Fills ``total`` — fetch stalls
    included — as it goes.  ``launch`` holds the values every context of
    the launch shares (``_Frame.values``).  Returns the warps' return
    values in warp order, as the serial loop in ``launch()`` does.
    """
    regions = machine._regions.get(id(func))
    if regions is None:
        regions = machine._regions[id(func)] = RegionMap(func.name)
    warps = (block_dim + WARP_SIZE - 1) // WARP_SIZE
    n = grid_dim * warps
    warp_lanes = (np.arange(warps, dtype=np.int64)[:, None] * WARP_SIZE
                  + np.arange(WARP_SIZE, dtype=np.int64))
    lane_ids = np.tile(warp_lanes, (grid_dim, 1))
    block_ids = np.repeat(np.arange(grid_dim, dtype=np.int64), warps)
    ctx = _BatchContext(frame, lane_ids, block_ids, np.arange(n), launch)
    icache = InstructionCache()
    active = lane_ids < block_dim
    state = _BatchState(ctx, np.zeros(n, dtype=np.int64),
                        np.zeros(n, dtype=np.int64), icache,
                        [(0, frame.entry, active, active.sum(axis=1))])
    results = _Results(total, n)
    worklist = [state]
    while worklist:
        _run_state(machine, func, worklist.pop(), total, results, worklist,
                   regions)
    return [ret for ret in results.ret if ret is not None]


def _run_state(machine, func, state: _BatchState, total, results: _Results,
               worklist: List[_BatchState], regions: RegionMap) -> None:
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
        _demote_row(machine, func, state, total, results)
        return
    from .jit import enter_region  # Deferred: jit builds on this module.
    max_ticks = machine.max_cycles * TICKS_PER_CYCLE
    while state.groups:
        if state.cycles.max() > max_ticks:
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
                               state, total, actives, lanes)
        if pending is INTERPRET:
            pending = interpret_block(machine, func, db, epoch, mask, state,
                                      total, actives, lanes)
        if pending is not None:
            _split_state(machine, state, pending, total, worklist)
            return
    _finish_state(state, results)


def interpret_block(machine, func, db, epoch: int, mask: np.ndarray,
                    state: _BatchState, total: Counters,
                    actives: np.ndarray, lanes: int):
    """One interpreted dispatch — fetch, execute, profile — of a pop the
    trace tier declined.  Returns :func:`_exec_block`'s outcome.
    """
    state.cycles += state.icache.access(db.block_id, db.size) \
        * TICKS_PER_CYCLE
    profile = machine.profile
    if profile is None:
        return _exec_block(machine, func, db, epoch, mask, state, total,
                           actives, lanes)
    # One warp-block execution per row, as the per-warp engine counts.
    before = int(state.cycles.sum())
    pending = _exec_block(machine, func, db, epoch, mask, state, total,
                          actives, lanes)
    profile.note_block(db.name, mask.shape[0],
                       int(state.cycles.sum()) - before, lanes, mask.size)
    return pending


def _exec_block(machine, func, db, epoch: int, mask: np.ndarray,
                state: _BatchState, total: Counters,
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
    state.cycles += db.cost * (FIXED_T + ACT_T * actives)
    values = ctx.values
    for step in db.steps:
        _cat, _cost, kind, dst, srcs, kernel, _dtype, _aux = step
        if kind <= _K_TERNARY:
            write_masked(values, dst, evaluate(values, kind, srcs, kernel),
                         mask)
        elif kind != _K_VOID:
            ROW_RUNNERS[kind](machine.memory, ctx, step, mask, actives, state)

    term_kind = db.term_kind
    if term_kind >= _T_UNREACHABLE:
        raise _bad_terminator(func, db)
    if term_kind == _T_BR:
        total.branches += n
        _follow_batch(db.term, epoch, mask, actives, state, total)
        return None
    if term_kind == _T_CONDBR:
        total.branches += n
        cond, true_edge, false_edge = db.term
        return _resolve_condbr(values[cond], mask, actives, true_edge,
                               false_edge, epoch, state, total)
    _write_ret(ctx, db.term, mask)
    return None


def _write_ret(ctx, ret, mask: np.ndarray) -> None:
    """A ``ret`` terminator: the returned value under the group's mask."""
    slot, dtype = ret
    if slot is not None:
        if ctx.ret_values is None:
            ctx.ret_values = np.zeros(mask.shape, dtype=dtype)
        np.copyto(ctx.ret_values, ctx.values[slot], where=mask,
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
                    false_edge, epoch: int, state: _BatchState,
                    total: Counters):
    """Resolve a conditional branch for a group of the batch.

    Parks the sub-groups when all rows agree, or returns the pending
    split ``(true_edge, false_edge, epoch, t_mask, f_mask, t_actives,
    f_actives, cls)`` for ``_split_state``.
    """
    first, t_mask, t_actives, f_actives, cls = _classify(cond, mask, actives)
    if first == _CLS_TAKEN:
        _follow_batch(true_edge, epoch, t_mask, actives, state, total)
    elif first == _CLS_NOT_TAKEN:
        _follow_batch(false_edge, epoch, mask, actives, state, total)
    elif first == _CLS_DIVERGENT:
        total.divergent_branches += mask.shape[0]
        _follow_batch(true_edge, epoch, t_mask, t_actives, state, total)
        _follow_batch(false_edge, epoch, mask & ~t_mask, f_actives, state,
                      total)
    else:
        return (true_edge, false_edge, epoch, t_mask, mask & ~t_mask,
                t_actives, f_actives, cls)
    return None


def _follow_batch(edge, epoch: int, mask: np.ndarray, actives: np.ndarray,
                  state: _BatchState, total: Counters) -> None:
    """Batched ``_follow``: phi edge-moves over the lattice, then park."""
    moves = edge.moves
    if moves:
        values = state.ctx.values
        total.note_issue(edge.issues, int(actives.sum()),
                         mask.shape[0])  # One mov per phi.
        state.cycles += edge.cost * (FIXED_T + ACT_T * actives)
        # Parallel-copy semantics: read all incomings before writing.
        staged = [values[src].copy() if snapshot else values[src]
                  for _dst, src, snapshot in moves]
        for (dst, _src, _snapshot), value in zip(moves, staged):
            write_masked(values, dst, value, mask)
    state.groups.append((epoch + edge.bump_epoch, edge.target, mask, actives))


def _split_state(machine, state: _BatchState, pending, total: Counters,
                 worklist: List[_BatchState]) -> None:
    """Partition a diverged batch by branch class and keep going.

    Every class continues as a sliced sub-batch (fancy-indexed copies of
    every lattice, cloned icache) with the pending branch resolved on
    it; whether a singleton then demotes to the per-warp engine is
    decided when its turn comes (``_run_state``), not here.  The
    profile charges the edges' phi moves to the block that branched, as
    the per-warp engine's ``_follow`` does.
    """
    (true_edge, false_edge, epoch, t_mask, f_mask, t_actives, f_actives,
     cls) = pending
    moved = 0
    for value in (_CLS_DIVERGENT, _CLS_TAKEN, _CLS_NOT_TAKEN):
        idx = np.flatnonzero(cls == value)
        if idx.size == 0:
            continue
        sub = _slice_state(state, idx)
        before = int(sub.cycles.sum())
        if value == _CLS_DIVERGENT:
            total.divergent_branches += int(idx.size)
        if value != _CLS_NOT_TAKEN:
            _follow_batch(true_edge, epoch, t_mask[idx], t_actives[idx], sub,
                          total)
        if value != _CLS_TAKEN:
            _follow_batch(false_edge, epoch, f_mask[idx], f_actives[idx],
                          sub, total)
        moved += int(sub.cycles.sum()) - before
        worklist.append(sub)
    profile = machine.profile
    if profile is not None:
        profile.note_split(true_edge.source, len(set(cls.tolist())),
                           int(cls.size))
        profile.note_block(true_edge.source, 0, moved, 0, 0)


def _slice_state(state: _BatchState, idx: np.ndarray) -> _BatchState:
    """Sub-batch of ``state`` holding the rows in ``idx`` (copies of the
    context's own lattices; the prefix and launch values are shared)."""
    octx = state.ctx
    frame = octx.frame
    ctx = _BatchContext(frame, octx.values[frame.base][idx],
                        octx.block_ids[idx], octx.rows[idx], *octx.take(idx))
    ctx.allocas = {iid: bases[idx] for iid, bases in octx.allocas.items()}
    if octx.ret_values is not None:
        ctx.ret_values = octx.ret_values[idx]
    return _BatchState(ctx, state.cycles[idx], state.memory_stall[idx],
                       state.icache.clone(),
                       [(e, db, m[idx], a[idx])
                        for e, db, m, a in state.groups],
                       state.splits[idx] + 1)


def _demote_row(machine, func, state: _BatchState, total: Counters,
                results: _Results) -> None:
    """Hand a one-row batch to the per-warp engine, mid-flight.

    Rebuilds a ``_WarpContext`` over the row's lattices (the sliced
    state owns them), seeds a ``Counters`` with its ticks so far, and
    resumes the serial scheduler loop on the parked groups and the
    state's icache.
    """
    octx = state.ctx
    orig = int(octx.rows[0])
    if machine.profile is not None:
        machine.profile.note_demotion(state.groups[0][1].name, orig)
    frame = octx.frame
    wctx = _WarpContext(frame.values(
        octx.values[frame.base][0], _geometry_vec(int(octx.block_ids[0])),
        *octx.take(0)))
    wctx.allocas = {iid: int(bases[0])
                    for iid, bases in octx.allocas.items()}
    if octx.ret_values is not None:
        wctx.ret_values = octx.ret_values[0]
    counters = Counters(ticks=int(state.cycles[0]),
                        memory_stall_ticks=int(state.memory_stall[0]))
    groups = [(e, db, m[0], int(a[0])) for e, db, m, a in state.groups]
    machine._warp_loop(func, wctx, groups, counters, state.icache)
    counters.fetch_stall_cycles = state.icache.stall_cycles
    total.merge(counters)
    results.ret[orig] = wctx.ret_values


def _finish_state(state: _BatchState, results: _Results) -> None:
    """Add a drained batch's rows to the launch total; keep their return
    values."""
    octx = state.ctx
    total = results.total
    total.ticks += int(state.cycles.sum())
    total.memory_stall_ticks += int(state.memory_stall.sum())
    total.fetch_stall_cycles += state.icache.stall_cycles * octx.n
    ret = octx.ret_values
    if ret is not None:
        for pos, orig in enumerate(octx.rows.tolist()):
            results.ret[orig] = ret[pos].copy()
