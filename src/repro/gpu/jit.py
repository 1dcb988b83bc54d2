"""Trace-JIT execution engine: the lattice dispatcher's tier-2.

The ``jit`` engine is the lattice dispatcher
(:func:`repro.gpu.batched.run_launch_batched`) plus the fast path this
module adds, which a launch earns block by block.  Every block starts
interpreted; the dispatcher offers each pop to :func:`enter_region`,
which counts it, and on a block's ``TIER_UP_DISPATCHES``-th dispatch
selects the function's regions (once) and compiles the superblock
(:mod:`repro.gpu.regions`) starting there.  From then on, when a popped
group's mask covers *every* lane of every warp, the whole trace runs as
one fused sequence — no per-block scheduling, integer counters folded
per block, and no masked writes.  A function that never gets hot is
never selected or compiled, and a compiled region never changes shape.

One executor runs a region, :func:`_region_scalar`.  A compiled region
holds no load, store or alloca, so what it charges is one integer tick
delta for every row instead of an ``(n,)`` lattice — the arms of an
in-region diamond included, as long as every warp splits on the same
number of lanes: it charges them as the interpreter would and computes
them *predicated*, on every lane in one generated call that joins with
a select.  Warps that split unalike at a diamond leave the region
there, through the same exit as a failed guard.  EXPERIMENTS.md
"Trace-tier traffic" has the counts and timings behind one executor.

Guards and deoptimization: each conditional branch crossed by a trace
checks that every lane takes the compile-time expected side (one lattice
reduction).  On disagreement the op *deoptimizes*: the delta and the
counts are added to the rows and the total, every slot the
trace rebound is normalized to an owned ``(n, 32)`` array, and the
branch is resolved by the exact interpreter logic — parking sub-groups
for intra-warp divergence, or returning the pending cross-warp split
that ``_split_state`` partitions (singletons may then demote to the
per-warp engine).  Runaway loops are caught at every region back edge
against ``machine.max_cycles``, for the row that started furthest on.

Bit-identicality: see the :mod:`repro.gpu.regions` module docstring for
the argument; ``tests/test_engine_equivalence.py`` pins this engine
byte-identical (outputs, cycles, Counters, memory transactions) to the
warp engine across benchmarks, corpus, and fuzz kernels, and
``tests/test_tier_up.py`` pins it identical whenever it tiers up (at
the first dispatch, at the real threshold, never).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .batched import (INTERPRET, _BatchState, _follow_batch,
                      _resolve_condbr, _write_ret)
from ..obs import metrics as obs_metrics
from .counters import Counters
from .machine import WARP_SIZE, SimulationError, evaluate
from .timing import TICKS_PER_CYCLE
from .regions import (CompiledRegion, R_DIAMOND, R_EXIT_BR, R_EXIT_CONDBR,
                      R_GUARD, R_NEXT, R_RET, RegionMap, compile_region,
                      select_regions)

#: Tier-up threshold: a block compiles its region on its this-many-th
#: lattice dispatch, counted per (machine, function) so heat accumulates
#: over the launches of one ``Benchmark.run``.  Pure scheduling policy —
#: compiled and interpreted execution are bit-identical, so *when* a
#: region compiles can change no output, cycle or counter.  Chosen from
#: the sweep recorded in EXPERIMENTS.md ("Tier-up threshold").
TIER_UP_DISPATCHES = 16


def enter_region(machine, func, regions: RegionMap, db, epoch: int,
                 mask: np.ndarray, state: _BatchState, total,
                 actives: np.ndarray, lanes: int):
    """The dispatcher's tier-2 hook: run ``db``'s region if it has one.

    Returns ``INTERPRET`` when the block is the interpreter's — no
    region yet (its dispatch is counted; crossing
    ``TIER_UP_DISPATCHES`` compiles one on the spot), or no full mask —
    else the region run's outcome (None or a pending split).

    A region fires only for a group with a *full* mask (``lanes``, the
    group's active-lane count, covers the lattice): then every row's
    charge is the same, and — since live masks partition lanes — the
    group is provably the only one in the state, so running the whole
    trace without re-entering the scheduler replays the interpreter's
    pop order exactly.
    """
    region = regions.get(db.block_id)
    if region is None:
        heat = regions.heat
        count = heat[db.block_id] = heat.get(db.block_id, 0) + 1
        if count != TIER_UP_DISPATCHES:
            return INTERPRET
        if regions.plans is None:
            select_regions(regions, machine, func)
        region = compile_region(regions, db.block_id)
        if region is None:
            return INTERPRET
    if lanes != mask.size:
        return INTERPRET
    return _run_region(machine, func, region, epoch, mask, state, total,
                       actives)


def _run_region(machine, func, region: CompiledRegion, epoch: int,
                mask: np.ndarray, state: _BatchState, total,
                actives: np.ndarray):
    """Execute one compiled superblock; returns None or a pending split.

    ``mask`` is full, so ``actives`` — its per-row lane counts, which the
    exits hand on with it — reads ``WARP_SIZE`` in every row.  A live
    profile chooses nothing.
    """
    region.entries += 1
    return _region_scalar(machine, func, region, epoch, mask, state, total,
                          actives)


def _runaway(func, max_cycles) -> SimulationError:
    """The error a region back edge raises past ``machine.max_cycles``."""
    return SimulationError(
        f"@{func.name}: exceeded {max_cycles} cycles (runaway kernel?)")


def _fold_scalar(machine, total: Counters, ops, runs, crossed, arm_runs,
                 n: int) -> None:
    """Fold a scalar run's counts into ``total`` and a live profile.

    Op ``i`` ran ``runs[i]`` times and took its internal edge — one
    ``misc`` mov per phi move — ``crossed[i]`` times.  Integer counters
    commute, so they add up here once per exit — identical totals to
    the interpreter's ``note_issue`` per dispatched block.  An op counts
    per warp at a full mask; ``arm_runs`` — ``{(diamond op, arm block,
    lanes per row): runs}`` — adds each arm and its join edge's phi
    moves at the lanes it ran with, so its thread-level counts scale by
    ``lanes per row * n``.  Per op and arm run, the profile gets ``n``
    warp-block executions and their ticks.
    """
    profile = machine.profile
    lanes = n * WARP_SIZE
    issues = 0
    branches = 0
    cats: Dict[str, int] = {}
    for op, ran, took in zip(ops, runs, crossed):
        if not ran:
            continue
        moved = len(op.moves) * took
        issues += op.issues * ran + moved
        branches += op.branch_inc * ran
        for attr, count in op.cat_counts:
            cats[attr] = cats.get(attr, 0) + count * ran * lanes
        if moved:
            cats["inst_misc"] = cats.get("inst_misc", 0) + moved * lanes
        if profile is not None:
            ticks = op.ticks * ran + op.phi_ticks * took
            profile.note_block(op.name, ran * n, ticks * n, ran * lanes,
                               ran * lanes)
    thread = issues * lanes
    for (op, arm, active), ran in arm_runs.items():
        for count, cat_counts in (arm.issues, arm.term.issues):
            issues += count * ran
            thread += count * ran * active * n
            for attr, c in cat_counts:
                cats[attr] = cats.get(attr, 0) + c * ran * active * n
        branches += ran
        if profile is not None:
            profile.note_block(arm.name, ran * n,
                               op.arm_ticks(arm, active) * ran * n,
                               active * ran * n, ran * lanes)
    total.inst_executed += issues * n
    total.thread_inst_executed += thread
    total.active_lane_sum += thread
    for attr, count in cats.items():
        setattr(total, attr, getattr(total, attr) + count)
    total.branches += branches * n


def _bind_phis(values, moves, shape) -> None:
    """Compile-time-resolved phi parallel copy: stage all, then rebind.

    Moves proven alias-safe at compile time (``regions._safe_slots``:
    the source slot is only ever rebound, never mutated, while the alias
    can live — a predicated diamond's join phi included) bind the source
    array by reference.  The rest go through
    ``broadcast_to(...).astype`` — always a copy, so the staged arrays
    are owned buffers detached from the source slots.  Staging every
    read before any rebind preserves parallel-copy (phi-reads-phi)
    semantics either way.
    """
    staged = []
    for _dst, src, dt, nocopy in moves:
        arr = values[src]
        if not nocopy:
            arr = np.broadcast_to(arr, shape).astype(dt)
        elif arr.dtype != dt:
            arr = arr.astype(dt)
        staged.append(arr)
    for (dst, _src, _dt, _nc), arr in zip(moves, staged):
        values[dst] = arr


def _normalize_slots(values, norm, shape) -> None:
    """Materialize trace-rebound slots as owned writable (n, 32) arrays.

    Value steps and phi binds rebind raw results: possibly ``(32,)``
    broadcastable vectors (uniform computations), read-only shared
    constants, views of context geometry, or aliases of another region
    slot (no-copy phi binds).  The interpreter's masked writes mutate
    slots in place, so before control returns to it every rebound slot
    must be an owned full-shape array that shares no buffer with any
    other slot.  Anything already owned, writable, full-shape, and
    unaliased (the common case) is left untouched, and so is a slot not
    yet written (it still holds its dtype).
    """
    seen = set()
    for slot, dt in norm:
        arr = values[slot]
        if arr.__class__ is not np.ndarray:
            continue
        aid = id(arr)
        if (arr.shape != shape or not arr.flags.writeable
                or arr.base is not None or aid in seen):
            out = np.empty(shape, dtype=dt)
            out[...] = arr
            values[slot] = out
            seen.add(id(out))
        else:
            seen.add(aid)


def _region_scalar(machine, func, region: CompiledRegion, epoch: int,
                   mask: np.ndarray, state: _BatchState, total: Counters,
                   actives):
    """The region executor: one tick delta for every row, diamonds included.

    Every charge is row-uniform, so the run adds them up in one Python
    int (``d``) and adds it to every row at exit — what the interpreter
    adds row by row, whatever the rows held before.  Full-mask ops
    charge ``op.ticks``, and their internal edges ``op.phi_ticks``.  An
    in-region diamond whose rows all take their true side on the same
    number of lanes ``a`` runs its arm or arms here: each charges what
    the interpreter's dispatch of it would (``op.arm_ticks``), and one
    call of ``op.pred`` computes the arms on every lane, rebinds each
    join phi to a select of the two (or to the lone arm's value) and
    runs the join's leading chain — no masked write.  Rows that split
    unalike leave the region at the diamond's branch (:func:`_leave`).
    Counters — and a live profile's per-block sums — are counted per op
    and folded once at exit (:func:`_fold_scalar`).  The single-block
    self-loop — the hottest shape — spins with every per-iteration
    attribute load hoisted.
    """
    ctx = state.ctx
    values = ctx.values
    n = ctx.n
    shape = mask.shape
    icache = state.icache
    # A back edge past this delta takes the furthest row past max_cycles.
    limit = machine.max_cycles * TICKS_PER_CYCLE - int(state.cycles.max())
    ops = region.ops
    d = 0
    runs = [0] * len(ops)       # Times op i ran ...
    crossed = [0] * len(ops)    # ... and took its internal edge.
    arm_runs: Dict = {}         # (op, arm block, lanes per row) -> runs.
    op = region.self_loop
    if op is not None:
        ticks = op.ticks
        vsteps = op.vsteps
        cond_slot = op.cond
        expected = op.expected
        moves = op.moves
        phi_ticks = op.phi_ticks
        # The first fetch may miss; every later one re-touches the block
        # just accessed — a guaranteed hit with zero stall and a no-op
        # LRU reorder — so the loop skips the call and counts the hits.
        d += icache.access(op.block_id, op.size) * TICKS_PER_CYCLE
        iters = 0
        while True:
            d += ticks
            for kind, dst, srcs, kernel, dt in vsteps:
                if kind is None:  # Fused segment: one call for a chain.
                    kernel(values)
                    continue
                arr = evaluate(values, kind, srcs, kernel)
                if arr.dtype != dt:
                    arr = arr.astype(dt)
                values[dst] = arr
            cond = values[cond_slot]
            if expected:
                ok = bool(cond.all())
            else:
                ok = not bool(cond.any())
            if not ok:
                break
            if moves:
                _bind_phis(values, moves, shape)
                d += phi_ticks
            iters += 1
            if d > limit:
                raise _runaway(func, machine.max_cycles)
        icache.hits += iters
        runs[0] = iters + 1
        crossed[0] = iters
        epoch += op.bump * iters
    else:
        i = 0
        while True:
            op = ops[i]
            d += icache.access(op.block_id, op.size) * TICKS_PER_CYCLE
            d += op.ticks
            runs[i] += 1
            for kind, dst, srcs, kernel, dt in op.vsteps:
                if kind is None:
                    kernel(values)
                    continue
                arr = evaluate(values, kind, srcs, kernel)
                if arr.dtype != dt:
                    arr = arr.astype(dt)
                values[dst] = arr
            kind = op.kind
            if kind == R_GUARD:
                cond = values[op.cond]
                if op.expected:
                    ok = bool(cond.all())
                else:
                    ok = not bool(cond.any())
                if not ok:
                    break
            elif kind == R_DIAMOND:
                t_mask = mask & values[op.cond].astype(bool, copy=False)
                taken = t_mask.sum(axis=1).tolist()
                a = taken[0]
                if taken.count(a) != n:
                    break       # Rows split unalike: per-row accounting.
                if a == WARP_SIZE:
                    arms = ((op.arm_t, a),)
                    t_mask = True
                elif not a:
                    arms = ((op.arm_f, WARP_SIZE),)
                    t_mask = False
                else:
                    total.divergent_branches += n
                    arms = ((op.arm_t, a), (op.arm_f, WARP_SIZE - a))
                    if not op.arms_t_first:
                        arms = (arms[1], arms[0])
                join = epoch
                for arm, active in arms:
                    # The arm's charges as the interpreter dispatches it
                    # (fetch, steps, br, the join edge's phi moves).
                    d += icache.access(arm.block_id, arm.size) \
                        * TICKS_PER_CYCLE
                    d += op.arm_ticks(arm, active)
                    key = (op, arm, active)
                    arm_runs[key] = arm_runs.get(key, 0) + 1
                    # The join group merges at the max parked epoch.
                    join = max(join, epoch + arm.term.bump_epoch)
                # Its values: the arms on every lane, the join phis
                # selected, the join's leading chain — one call.
                op.pred(values, t_mask)
                epoch = join
                ni = op.next_i
                if ni <= i and d > limit:
                    raise _runaway(func, machine.max_cycles)
                i = ni
                continue
            elif kind != R_NEXT:
                break
            if op.moves:
                _bind_phis(values, op.moves, shape)
                crossed[i] += 1
                d += op.phi_ticks
            epoch += op.bump
            ni = op.next_i
            if ni <= i and d > limit:
                raise _runaway(func, machine.max_cycles)
            i = ni

    # A failed guard, an unalike diamond or an exit: add up, deoptimize.
    state.cycles += d
    _fold_scalar(machine, total, ops, runs, crossed, arm_runs, n)
    _normalize_slots(values, region.norm, shape)
    if op.kind == R_GUARD:
        obs_metrics.inc("repro_jit_guard_failures_total",
                        kind="loop" if region.self_loop is not None
                        else "lattice")
    if op.kind in (R_GUARD, R_DIAMOND):
        obs_metrics.inc("repro_jit_deopts_total")
    return _leave(machine, func, op, epoch, mask, actives, state, total)


def _leave(machine, func, op, epoch: int, mask: np.ndarray, actives,
           state: _BatchState, total: Counters):
    """Hand control back to the interpreter at the region's last op.

    A failed guard or a diamond whose rows split unalike resolves its
    branch as an exit condbr does: park the sub-groups, or return the
    pending cross-warp split.  The profile charges the exit edge's phi
    moves to the op's block, as the per-warp engine's ``_follow`` does.
    """
    kind = op.kind
    before = int(state.cycles.sum())
    pending = None
    if kind == R_EXIT_BR:
        _follow_batch(op.exit_edge, epoch, mask, actives, state, total)
    elif kind in (R_GUARD, R_EXIT_CONDBR, R_DIAMOND):
        pending = _resolve_condbr(state.ctx.values[op.cond], mask, actives,
                                  op.true_edge, op.false_edge, epoch, state,
                                  total)
    elif kind == R_RET:
        _write_ret(state.ctx, op.ret, mask)
    else:
        raise SimulationError(
            f"@{func.name}: executed unreachable in {op.name}")
    if machine.profile is not None:
        machine.profile.note_block(op.name, 0,
                                   int(state.cycles.sum()) - before, 0, 0)
    return pending
