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
per block, and no masked writes outside the arms the vector executor
hands to the interpreter.  A function that never gets hot is never
selected or compiled, and a compiled region never changes shape.

Two executors run a region (:func:`_run_region`; EXPERIMENTS.md
"Trace-tier traffic" has the counts behind the split):
:func:`_region_scalar` replays a memory-free region's float accounting
on Python scalars instead of ``(n,)``/``(n, 7)`` lattices — the arms of
an in-region diamond included, as long as every warp splits on the same
number of lanes: it charges them as the interpreter would and computes
them *predicated*, on every lane in one generated call that joins with
a select — and :func:`_region_vector` runs everything else, the arms of
its diamonds through the interpreter's own block executor.  A scalar
run whose warps split unalike at a diamond hands the rest of the run to
the vector executor there; that is not a deopt.

Guards and deoptimization: each conditional branch crossed by a trace
checks that every lane takes the compile-time expected side (one lattice
reduction).  On disagreement the op *deoptimizes*: scalar accumulators
are flushed back to the per-row vectors, every slot the trace rebound is
normalized to an owned ``(n, 32)`` array, and the branch is resolved by
the exact interpreter logic — parking sub-groups for intra-warp
divergence, or returning the pending cross-warp split that
``_split_state`` partitions (singletons may then demote to the
per-warp engine).  Memory faults raised inside a region propagate from the same
program point they would under the interpreter, and runaway loops are
caught at every region back edge against ``machine.max_cycles``.

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

from .batched import (INTERPRET, ROW_RUNNERS, _BatchState, _classify,
                      _follow_batch, _resolve_condbr, _write_ret,
                      interpret_block, _CLS_DIVERGENT, _CLS_TAKEN)
from ..obs import metrics as obs_metrics
from .counters import Counters
from .machine import WARP_SIZE, SimulationError, _PHI_CHARGES, evaluate
from .regions import (CompiledRegion, R_DIAMOND, R_EXIT_BR, R_EXIT_CONDBR,
                      R_GUARD, R_NEXT, R_RET, S_FUSED, S_MEM, S_VALUE,
                      RegionMap, compile_region, select_regions)

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
    group's active-lane count, covers the lattice): then the charge
    factor is uniform, and — since live masks partition lanes — the
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
    region.entries += 1
    return _run_region(machine, func, region, epoch, mask, state, total,
                       actives)


def _run_region(machine, func, region: CompiledRegion, epoch: int,
                mask: np.ndarray, state: _BatchState, total,
                actives: np.ndarray):
    """Execute one compiled superblock; returns None or a pending split.

    ``mask`` is full, so ``actives`` — its per-row lane counts, which the
    exits hand on with it — reads ``WARP_SIZE`` in every row.  The
    ``scalar_ok`` test matters: a load or store charges per-row
    latencies that the scalar replay does not carry.  A live profile
    chooses nothing: both executors record it.
    """
    if region.scalar_ok and _rows_uniform(state):
        return _region_scalar(machine, func, region, epoch, mask, state,
                              total, actives)
    return _region_vector(machine, func, region, epoch, mask, state, total,
                          actives)


def _rows_uniform(state: _BatchState) -> bool:
    """True when every row's cycles agree (scalar replay OK)."""
    cy = state.cycles
    return bool((cy == cy[0]).all())


def _runaway(func, max_cycles) -> SimulationError:
    """The error a region back edge raises past ``machine.max_cycles``."""
    return SimulationError(
        f"@{func.name}: exceeded {max_cycles} cycles (runaway kernel?)")


def _flush_ints(total: Counters, issues: int, branches: int,
                cat_acc: Dict[str, int], n: int, arm_runs=None) -> None:
    """Apply locally accumulated integer counters to ``total``.

    Integer counters are exact and commutative, so a region run folds
    them into plain locals per op and flushes once per exit — identical
    totals to the interpreter's ``note_issue`` per dispatched block.
    ``issues``, ``branches`` and ``cat_acc`` count per warp at a full
    mask.  ``arm_runs`` — ``{(arm block, lanes per row): runs}`` of the
    scalar executor's diamond arms — adds each arm and its join edge's
    phi moves at the lanes it ran with: its thread-level counts scale by
    ``lanes per row * n``, not by the full lane count.
    """
    lanes = n * WARP_SIZE
    thread = issues * lanes
    cats = {attr: count * lanes for attr, count in cat_acc.items()}
    if arm_runs:
        for (arm, active), ran in arm_runs.items():
            for count, cat_counts in (arm.issues, arm.term.issues):
                issues += count * ran
                thread += count * ran * active * n
                for attr, c in cat_counts:
                    cats[attr] = cats.get(attr, 0) + c * ran * active * n
            branches += ran
    total.inst_executed += issues * n
    total.thread_inst_executed += thread
    total.active_lane_sum += thread
    for attr, count in cats.items():
        setattr(total, attr, getattr(total, attr) + count)
    total.branches += branches * n


def _fold_scalar(machine, total: Counters, ops, runs, crossed, arm_runs,
                 n: int) -> None:
    """Fold a scalar run's counts into ``total`` and a live profile.

    Op ``i`` ran ``runs[i]`` times and took its internal edge — one
    ``misc`` mov per phi move — ``crossed[i]`` times; ``arm_runs`` counts
    the diamond arms (:func:`_flush_ints`).  Per op and arm run, the
    profile gets ``n`` warp-block executions and the charges replayed.
    """
    profile = machine.profile
    lanes = n * WARP_SIZE
    issues = 0
    branches = 0
    cat_acc: Dict[str, int] = {}
    for op, ran, took in zip(ops, runs, crossed):
        if not ran:
            continue
        moved = len(op.moves) * took
        issues += op.issues * ran + moved
        branches += op.branch_inc * ran
        for attr, count in op.cat_counts:
            cat_acc[attr] = cat_acc.get(attr, 0) + count * ran
        if moved:
            cat_acc["inst_misc"] = cat_acc.get("inst_misc", 0) + moved
        if profile is not None:
            cycles = sum(op.acct) * ran + op.phi_c * moved
            profile.note_block(op.name, ran * n, cycles * n, ran * lanes,
                               ran * lanes)
    if profile is not None:
        for (arm, active), ran in arm_runs.items():
            cycles = (sum(arm.charges(active))
                      + _PHI_CHARGES[active] * len(arm.term.moves))
            profile.note_block(arm.name, ran * n, cycles * ran * n,
                               active * ran * n, ran * lanes)
    _flush_ints(total, issues, branches, cat_acc, n, arm_runs)


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
    """Scalar executor for memory-free regions, diamonds included.

    Every row starts with equal cycles and every charge is row-uniform,
    so the accumulation runs on a Python scalar (``cy``) in the exact
    operation order the lattice would use, and broadcasting the final
    scalar back is bit-identical to the elementwise updates.  Full-mask
    ops charge ``cost * _FULL_FACTOR``.  An in-region diamond whose rows
    all take their true side on the same number of lanes ``a`` runs its
    arm or arms here: each charges, in rpo order, the per-warp engine's
    ``charge(cost, a)`` (``op.arm_acct``: ``arm.charges``,
    ``_PHI_CHARGES``), which every
    row's ``cost_column * _issue_factor(actives)`` equals, and one call
    of ``op.pred`` computes the arms on every lane, rebinds each join
    phi to a select of the two (or to the lone arm's value) and runs the
    join's leading chain — no masked write.  Rows that split unalike
    hand the rest of the run to :func:`_region_vector`, after breaking
    the aliases its arms' masked writes must not see.
    Integer counters — and a live profile's per-block sums — are counted
    per op and folded once at exit (:func:`_fold_scalar`).  The
    single-block self-loop — the hottest shape — spins with every
    per-iteration attribute load hoisted.
    """
    ctx = state.ctx
    values = ctx.values
    n = ctx.n
    shape = mask.shape
    icache = state.icache
    max_cycles = machine.max_cycles
    ops = region.ops
    cy = float(state.cycles[0])
    runs = [0] * len(ops)       # Times op i ran ...
    crossed = [0] * len(ops)    # ... and took its internal edge.
    arm_runs: Dict = {}         # (arm block, lanes per row) -> runs.
    op = region.self_loop
    if op is not None:
        acct = op.acct
        vsteps = op.vsteps
        cond_slot = op.cond
        expected = op.expected
        moves = op.moves
        phi_c = op.phi_c
        k = len(moves)
        # The first fetch may miss; every later one re-touches the block
        # just accessed — a guaranteed hit with zero stall and a no-op
        # LRU reorder — so the loop skips the call and counts the hits.
        cy += icache.access(op.block_id, op.size)
        iters = 0
        while True:
            for c in acct:
                cy += c
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
            if k:
                _bind_phis(values, moves, shape)
                for _ in range(k):
                    cy += phi_c
            iters += 1
            if cy > max_cycles:
                raise _runaway(func, max_cycles)
        icache.hits += iters
        runs[0] = iters + 1
        crossed[0] = iters
        epoch += op.bump * iters
    else:
        i = 0
        while True:
            op = ops[i]
            cy += icache.access(op.block_id, op.size)
            runs[i] += 1
            for c in op.acct:
                cy += c
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
                    # Rows split unalike: per-row accounting from here on,
                    # and the arms masked-write slots a phi may alias.
                    state.cycles[:] = cy
                    _fold_scalar(machine, total, ops, runs, crossed,
                                 arm_runs, n)
                    _normalize_slots(values, region.norm, shape)
                    epoch, pending = _diamond(machine, func, op, epoch,
                                              mask, state, total, actives)
                    if pending is not None:
                        return pending
                    if (op.next_i <= i
                            and float(state.cycles.max()) > max_cycles):
                        raise _runaway(func, max_cycles)
                    return _region_vector(machine, func, region, epoch,
                                          mask, state, total, actives,
                                          op.next_i)
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
                    cy += icache.access(arm.block_id, arm.size)
                    for c in op.arm_acct(arm, active):
                        cy += c
                    key = (arm, active)
                    arm_runs[key] = arm_runs.get(key, 0) + 1
                    # The join group merges at the max parked epoch.
                    join = max(join, epoch + arm.term.bump_epoch)
                # Its values: the arms on every lane, the join phis
                # selected, the join's leading chain — one call.
                op.pred(values, t_mask)
                epoch = join
                ni = op.next_i
                if ni <= i and cy > max_cycles:
                    raise _runaway(func, max_cycles)
                i = ni
                continue
            elif kind != R_NEXT:
                break
            if op.moves:
                _bind_phis(values, op.moves, shape)
                crossed[i] += 1
                pc = op.phi_c
                for _ in op.moves:
                    cy += pc
            epoch += op.bump
            ni = op.next_i
            if ni <= i and cy > max_cycles:
                raise _runaway(func, max_cycles)
            i = ni

    # A failed guard or an exit: flush floats and integers, deoptimize.
    state.cycles[:] = cy
    _fold_scalar(machine, total, ops, runs, crossed, arm_runs, n)
    _normalize_slots(values, region.norm, shape)
    if op.kind == R_GUARD:
        obs_metrics.inc("repro_jit_guard_failures_total",
                        kind="loop" if region.self_loop is not None
                        else "lattice")
        obs_metrics.inc("repro_jit_deopts_total")
    return _leave(machine, func, op, epoch, mask, actives, state, total)


def _exec_arm(machine, func, arm, mask_a: np.ndarray, actives: np.ndarray,
              epoch: int, state: _BatchState, total: Counters) -> int:
    """Execute one diamond arm: an interpreter pop, without the scheduler.

    The arm (a decoded block ending in a ``br`` to the join) runs under
    its partial mask, ``actives`` its per-row lane counts.  Returns the
    epoch the join group was parked at, popping the park since control
    merges in-region.
    """
    interpret_block(machine, func, arm, epoch, mask_a, state, total, actives,
                    int(actives.sum()))
    return state.groups.pop()[0]


def _diamond(machine, func, op, epoch: int, mask: np.ndarray,
             state: _BatchState, total: Counters, actives):
    """An in-region diamond the vector way: arms through the interpreter.

    Classifies rows exactly as the interpreter's condbr would, then runs
    the arm(s) in-region — both arms masked (in the scheduler's rpo pop
    order) for uniform intra-warp divergence, one arm at full mask for a
    uniformly decided direction.  Returns ``(join epoch, None)``, or
    ``(epoch, pending split)`` for a cross-warp disagreement, which the
    caller hands to the interpreter as a condbr exit would.
    """
    first, t_mask, t_actives, f_actives, cls = _classify(
        state.ctx.values[op.cond], mask, actives)
    if first is None:
        return epoch, (op.true_edge, op.false_edge, epoch, t_mask,
                       mask & ~t_mask, t_actives, f_actives, cls)
    if first == _CLS_DIVERGENT:
        total.divergent_branches += mask.shape[0]
        arms = ((op.arm_t, t_mask, t_actives),
                (op.arm_f, mask & ~t_mask, f_actives))
        if not op.arms_t_first:
            arms = (arms[1], arms[0])
        e1 = _exec_arm(machine, func, *arms[0], epoch, state, total)
        e2 = _exec_arm(machine, func, *arms[1], epoch, state, total)
        # The join group merges at the max parked epoch.
        return max(e1, e2), None
    arm = op.arm_t if first == _CLS_TAKEN else op.arm_f
    return _exec_arm(machine, func, arm, mask, actives, epoch, state,
                     total), None


def _region_vector(machine, func, region: CompiledRegion, epoch: int,
                   mask: np.ndarray, state: _BatchState, total: Counters,
                   actives, start: int = 0):
    """Vector-accounting region execution (general case).

    Keeps the per-row ``(n,)`` accumulators (memory latency
    differs per row) but still skips the scheduler, folds integer
    counters, and rebinds slots instead of masked-writing them.  Charges
    are the scalar ``cost * _FULL_FACTOR`` broadcast over rows — the
    same IEEE value the lattice's per-row factor yields at a full mask.
    ``start`` is the op a run the scalar executor handed over resumes at.
    """
    profile = machine.profile
    ctx = state.ctx
    values = ctx.values
    n = ctx.n
    lanes = n * WARP_SIZE
    shape = mask.shape
    iaccess = state.icache.access
    memory = machine.memory
    max_cycles = machine.max_cycles
    ops = region.ops
    cycles = state.cycles
    acc_issues = 0
    acc_branches = 0
    acc_cats: Dict[str, int] = {}
    i = start
    while True:
        op = ops[i]
        cycles += iaccess(op.block_id, op.size)
        if profile is not None:
            before = float(cycles.sum())
        acc_issues += op.issues
        acc_branches += op.branch_inc
        for attr, count in op.cat_counts:
            acc_cats[attr] = acc_cats.get(attr, 0) + count
        for entry in op.steps:
            tag = entry[0]
            if tag == S_VALUE:
                _t, c, kind, dst, srcs, kernel, dt = entry
                cycles += c
                arr = evaluate(values, kind, srcs, kernel)
                if arr.dtype != dt:
                    arr = arr.astype(dt)
                values[dst] = arr
            elif tag == S_FUSED:
                # Replay the folded per-step charges in original order
                # (float accumulation is order-sensitive), then compute
                # the whole chain in one generated call.
                _t, charges, fused = entry
                for c in charges:
                    cycles += c
                fused(values)
            elif tag == S_MEM:
                _t, c, step = entry
                cycles += c
                ROW_RUNNERS[step.kind](memory, ctx, step, mask, actives,
                                       state)
            else:
                _t, c = entry
                cycles += c
        tc = op.term_c
        if tc is not None:
            cycles += tc
        kind = op.kind
        if kind == R_GUARD:
            cond = values[op.cond]
            if op.expected:
                ok = bool(cond.all())
            else:
                ok = not bool(cond.any())
            if not ok:
                obs_metrics.inc("repro_jit_guard_failures_total",
                                kind="lattice")
                obs_metrics.inc("repro_jit_deopts_total")
                break
        elif kind == R_DIAMOND:
            if profile is not None:
                profile.note_block(op.name, n, float(cycles.sum()) - before,
                                   lanes, lanes)
            if op.pred is not None:
                # The arms masked-write join phis a back edge may alias.
                _normalize_slots(values, region.norm, shape)
            epoch, pending = _diamond(machine, func, op, epoch, mask, state,
                                      total, actives)
            if pending is not None:
                _flush_ints(total, acc_issues, acc_branches, acc_cats, n)
                _normalize_slots(values, region.norm, shape)
                return pending
            ni = op.next_i
            if ni <= i and float(cycles.max()) > max_cycles:
                raise _runaway(func, max_cycles)
            i = ni
            continue
        elif kind != R_NEXT:
            break
        moves = op.moves
        if moves:
            _bind_phis(values, moves, shape)
            k = len(moves)
            acc_issues += k
            acc_cats["inst_misc"] = acc_cats.get("inst_misc", 0) + k
            pc = op.phi_c
            for _ in range(k):
                cycles += pc
        if profile is not None:
            profile.note_block(op.name, n, float(cycles.sum()) - before,
                               lanes, lanes)
        epoch += op.bump
        ni = op.next_i
        if ni <= i and float(cycles.max()) > max_cycles:
            raise _runaway(func, max_cycles)
        i = ni

    # A failed guard or an exit.
    _flush_ints(total, acc_issues, acc_branches, acc_cats, n)
    _normalize_slots(values, region.norm, shape)
    if profile is not None:
        profile.note_block(op.name, n, float(cycles.sum()) - before, lanes,
                           lanes)
    return _leave(machine, func, op, epoch, mask, actives, state, total)


def _leave(machine, func, op, epoch: int, mask: np.ndarray, actives,
           state: _BatchState, total: Counters):
    """Hand control back to the interpreter at the region's last op.

    A failed guard resolves its branch as an exit condbr does: park the
    sub-groups, or return the pending cross-warp split.  The profile
    charges the exit edge's phi moves to the op's block, as the per-warp
    engine's ``_follow`` does.
    """
    kind = op.kind
    before = float(state.cycles.sum())
    pending = None
    if kind == R_EXIT_BR:
        _follow_batch(op.exit_edge, epoch, mask, actives, state, total)
    elif kind in (R_GUARD, R_EXIT_CONDBR):
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
                                   float(state.cycles.sum()) - before, 0, 0)
    return pending
