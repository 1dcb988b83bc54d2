"""Trace-JIT execution engine: the lattice dispatcher's tier-2.

The ``jit`` engine is the lattice dispatcher
(:func:`repro.gpu.batched.run_launch_batched`) plus the fast path this
module adds, which a launch earns block by block.  Every block starts
interpreted; the dispatcher offers each pop to :func:`enter_region`,
which counts it, and on a block's ``TIER_UP_DISPATCHES``-th dispatch
selects the function's regions (once) and compiles the superblock
(:mod:`repro.gpu.regions`) starting there.  From then on, when a popped
group's mask covers *every* lane of every warp, the whole trace runs as
one fused sequence — no per-block scheduling, no masked writes, integer
counters folded per block.  A function that never gets hot is never
selected or compiled, and a compiled region never changes shape.

Two executors run a region (:func:`_run_region`; EXPERIMENTS.md
"Trace-tier traffic" has the counts behind the split):
:func:`_region_self_scalar` replays a memory-free self-loop's float
accounting on Python scalars instead of ``(n,)``/``(n, 7)`` lattices,
:func:`_region_vector` runs everything else, and the arms of an
in-region diamond go through the interpreter's own block executor.

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

from .batched import (INTERPRET, _BatchState, _classify, _follow_batch,
                      _resolve_condbr, _write_ret, interpret_block,
                      _CLS_DIVERGENT, _CLS_TAKEN)
from ..obs import metrics as obs_metrics
from .counters import Counters
from .machine import WARP_SIZE, SimulationError, _CAT_CONTROL, _CAT_MISC
from .region_cache import note_compiled, session
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


def _raise_undef(exc: KeyError, names) -> None:
    """Map a fused closure's missing-slot KeyError to the interpreter's
    undefined-value diagnostic; anything else re-raises unchanged."""
    key = exc.args[0] if exc.args else None
    name = names.get(key) if isinstance(names, dict) else None
    if name is None:
        raise
    raise SimulationError(f"use of undefined value %{name}") from None


def enter_region(machine, func, regions: RegionMap, db, epoch: int,
                 mask: np.ndarray, state: _BatchState, arg_values, total,
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
            session().selections += 1
        region = compile_region(regions, db.block_id)
        if region is None:
            return INTERPRET
        note_compiled(region)
    if lanes != mask.size:
        return INTERPRET
    region.entries += 1
    return _run_region(machine, func, region, epoch, mask, state,
                       arg_values, total, machine.profile, actives)


def _run_region(machine, func, region: CompiledRegion, epoch: int,
                mask: np.ndarray, state: _BatchState, arg_values, total,
                profile, actives: np.ndarray):
    """Execute one compiled superblock; returns None or a pending split.

    ``mask`` is full, so ``actives`` — its per-row lane counts, which the
    exits hand on with it — reads ``WARP_SIZE`` in every row.  The
    ``scalar_ok`` test matters: a load or store charges per-row
    latencies that the scalar replay does not carry.
    """
    if (region.scalar_ok and region.self_loop is not None
            and profile is None and _rows_uniform(state)):
        return _region_self_scalar(machine, func, region, region.self_loop,
                                   epoch, mask, state, arg_values, total,
                                   actives)
    return _region_vector(machine, func, region, epoch, mask, state,
                          arg_values, total, profile, actives)


def _rows_uniform(state: _BatchState) -> bool:
    """True when every row's float accumulators agree (scalar replay OK)."""
    cy = state.cycles
    if not bool((cy == cy[0]).all()):
        return False
    cc = state.cat_cycles
    return bool((cc == cc[0]).all())


def _flush_ints(total: Counters, issues: int, branches: int,
                cat_acc: Dict[str, int], n: int, lanes: int) -> None:
    """Apply locally accumulated integer counters to ``total``.

    Integer counters are exact and commutative, so a region run folds
    them into plain locals per op and flushes once per exit — identical
    totals to the interpreter's ``note_issue`` per dispatched block.
    """
    total.note_issue((issues, cat_acc.items()), lanes, n)
    total.branches += branches * n


def _bind_phis(ctx, arg_values, moves, shape) -> None:
    """Compile-time-resolved phi parallel copy: stage all, then rebind.

    Moves proven alias-safe at compile time (``regions._finalize_moves``:
    the source slot is only ever rebound, never mutated, while the alias
    can live) bind the source array by reference.  The rest go through
    ``broadcast_to(...).astype`` — always a copy, so the staged arrays
    are owned buffers detached from the source slots.  Staging every
    read before any rebind preserves parallel-copy (phi-reads-phi)
    semantics either way.
    """
    staged = []
    for _pid, read, dt, nocopy in moves:
        arr = read(ctx, arg_values)
        if not nocopy:
            arr = np.broadcast_to(arr, shape).astype(dt)
        elif arr.dtype != dt:
            arr = arr.astype(dt)
        staged.append(arr)
    values = ctx.values
    for (pid, _read, _dt, _nc), arr in zip(moves, staged):
        values[pid] = arr


def _normalize_slots(ctx, norm, shape) -> None:
    """Materialize trace-rebound slots as owned writable (n, 32) arrays.

    Value steps and phi binds rebind raw results: possibly ``(32,)``
    broadcastable vectors (uniform computations), read-only shared
    constants, views of context geometry, or aliases of another region
    slot (no-copy phi binds).  The interpreter's masked writes mutate
    slots in place, so before control returns to it every rebound slot
    must be an owned full-shape array that shares no buffer with any
    other slot.  Anything already owned, writable, full-shape, and
    unaliased (the common case) is left untouched.
    """
    values = ctx.values
    seen = set()
    for iid, dt in norm:
        arr = values.get(iid)
        if arr is None:
            continue
        aid = id(arr)
        if (arr.shape != shape or not arr.flags.writeable
                or arr.base is not None or aid in seen):
            out = np.empty(shape, dtype=dt)
            out[...] = arr
            values[iid] = out
            seen.add(id(out))
        else:
            seen.add(aid)


def _region_self_scalar(machine, func, region: CompiledRegion, op,
                        epoch: int, mask: np.ndarray, state: _BatchState,
                        arg_values, total: Counters, actives):
    """Scalar executor for memory-free single-block self-loop regions.

    The hottest compiled shape — a loop body whose guard jumps straight
    back to itself — spins here with every per-iteration attribute load
    hoisted into locals and integer counters folded as one
    multiplication by the iteration count at exit (exact: they are
    Python ints).  Float accumulation runs on Python scalars
    (``cy``/``cats``) in the exact operation order the lattice would
    use; since every row starts equal and every charge is row-uniform,
    broadcasting the final scalars back is bit-identical to the
    elementwise updates.  Runs only with profiling off; the vector
    executor keeps the per-iteration ``note_block`` stream otherwise.
    """
    ctx = state.ctx
    values = ctx.values
    n = ctx.n
    lanes = n * WARP_SIZE
    shape = mask.shape
    max_cycles = machine.max_cycles
    cy = float(state.cycles[0])
    cats = [float(x) for x in state.cat_cycles[0]]
    acct = op.acct
    vsteps = op.vsteps
    read_cond = op.read_cond
    expected = op.expected
    moves = op.moves
    phi_c = op.phi_c
    k = len(moves)
    cmisc = _CAT_MISC
    # The first fetch may miss; every later one re-touches the block
    # just accessed — a guaranteed hit with zero stall and a no-op LRU
    # reorder — so the loop skips the call entirely.
    cy += state.icache.access(op.block_id, op.size)
    iters = 0
    while True:
        for c, ci in acct:
            cy += c
            cats[ci] += c
        for run, iid, dt in vsteps:
            if iid is None:  # Fused segment: one call for a whole chain.
                try:
                    run(ctx, arg_values, values)
                except KeyError as exc:
                    _raise_undef(exc, dt)
                continue
            arr = run(ctx, arg_values)
            if arr.dtype != dt:
                arr = arr.astype(dt)
            values[iid] = arr
        cond = read_cond(ctx, arg_values)
        if expected:
            ok = bool(cond.all())
        else:
            ok = not bool(cond.any())
        if not ok:
            break
        if k:
            staged = []
            for _pid, read, dt, nocopy in moves:
                arr = read(ctx, arg_values)
                if not nocopy:
                    arr = np.broadcast_to(arr, shape).astype(dt)
                elif arr.dtype != dt:
                    arr = arr.astype(dt)
                staged.append(arr)
            for (pid, _read, _dt, _nc), arr in zip(moves, staged):
                values[pid] = arr
            for _ in range(k):
                cy += phi_c
                cats[cmisc] += phi_c
        iters += 1
        if cy > max_cycles:
            raise SimulationError(
                f"@{func.name}: exceeded {max_cycles} cycles "
                "(runaway kernel?)")

    # Guard failed — the loop's only exit.  Fold the whole run's integer
    # counters, flush floats, and deoptimize to the interpreter.
    obs_metrics.inc("repro_jit_guard_failures_total", kind="loop")
    obs_metrics.inc("repro_jit_deopts_total")
    state.cycles[:] = cy
    state.cat_cycles[:] = cats
    issues = op.issues * (iters + 1) + k * iters
    cat_acc = {attr: count * (iters + 1) for attr, count in op.cat_counts}
    if k and iters:
        cat_acc["inst_misc"] = cat_acc.get("inst_misc", 0) + k * iters
    _flush_ints(total, issues, op.branch_inc * (iters + 1), cat_acc, n,
                lanes)
    _normalize_slots(ctx, region.norm, shape)
    return _resolve_condbr(cond, mask, actives, op.true_edge, op.false_edge,
                           epoch + op.bump * iters, state, arg_values,
                           total)


def _exec_arm(machine, func, arm, mask_a: np.ndarray, actives: np.ndarray,
              epoch: int, state: _BatchState, arg_values, total: Counters,
              profile) -> int:
    """Execute one diamond arm: an interpreter pop, without the scheduler.

    The arm (a decoded block ending in a ``br`` to the join) runs under
    its partial mask, ``actives`` its per-row lane counts.  Returns the
    epoch the join group was parked at, popping the park since control
    merges in-region.
    """
    interpret_block(machine, func, arm, epoch, mask_a, state, arg_values,
                    total, actives, int(actives.sum()), profile)
    return state.groups.pop()[0]


def _region_vector(machine, func, region: CompiledRegion, epoch: int,
                   mask: np.ndarray, state: _BatchState, arg_values,
                   total: Counters, profile, actives):
    """Vector-accounting region execution (general case).

    Keeps the per-row ``(n,)``/``(n, 7)`` accumulators (memory latency
    differs per row) but still skips the scheduler, folds integer
    counters, and rebinds slots instead of masked-writing them.  Charges
    are the scalar ``cost * _FULL_FACTOR`` broadcast over rows — the
    same IEEE value the lattice's per-row factor yields at a full mask.
    """
    ctx = state.ctx
    values = ctx.values
    n = ctx.n
    lanes = n * WARP_SIZE
    shape = mask.shape
    iaccess = state.icache.access
    max_cycles = machine.max_cycles
    ops = region.ops
    cycles = state.cycles
    cat = state.cat_cycles
    acc_issues = 0
    acc_branches = 0
    acc_cats: Dict[str, int] = {}
    i = 0
    while True:
        op = ops[i]
        cycles += iaccess(op.block_id, op.size)
        if profile is not None:
            start_ts = float(cycles[0])
            before = float(cycles.sum())
        acc_issues += op.issues
        acc_branches += op.branch_inc
        for attr, count in op.cat_counts:
            acc_cats[attr] = acc_cats.get(attr, 0) + count
        for entry in op.steps:
            tag = entry[0]
            if tag == S_VALUE:
                _t, c, ci, run, iid, dt = entry
                cycles += c
                cat[:, ci] += c
                arr = run(ctx, arg_values)
                if arr.dtype != dt:
                    arr = arr.astype(dt)
                values[iid] = arr
            elif tag == S_FUSED:
                # Replay the folded per-step charges in original order
                # (float accumulation is order-sensitive), then compute
                # the whole chain in one generated call.
                _t, charges, run, names = entry
                for c, ci in charges:
                    cycles += c
                    cat[:, ci] += c
                try:
                    run(ctx, arg_values, values)
                except KeyError as exc:
                    _raise_undef(exc, names)
            elif tag == S_MEM:
                _t, c, ci, brun = entry
                cycles += c
                cat[:, ci] += c
                brun(ctx, arg_values, mask, actives, state)
            else:
                _t, c, ci = entry
                cycles += c
                cat[:, ci] += c
        tc = op.term_c
        if tc is not None:
            cycles += tc
            cat[:, _CAT_CONTROL] += tc
        kind = op.kind
        if kind == R_GUARD:
            cond = op.read_cond(ctx, arg_values)
            if op.expected:
                ok = bool(cond.all())
            else:
                ok = not bool(cond.any())
            if not ok:
                obs_metrics.inc("repro_jit_guard_failures_total",
                                kind="lattice")
                obs_metrics.inc("repro_jit_deopts_total")
                _flush_ints(total, acc_issues, acc_branches, acc_cats, n,
                            lanes)
                _normalize_slots(ctx, region.norm, shape)
                if profile is not None:
                    profile.note_block(op.name, float(cycles.sum()) - before,
                                       lanes, lanes, start_ts)
                return _resolve_condbr(cond, mask, actives, op.true_edge,
                                       op.false_edge, epoch, state,
                                       arg_values, total)
        elif kind == R_DIAMOND:
            # Predicated if/else: classify rows exactly as the
            # interpreter's condbr would, then run the arm(s) in-region —
            # both arms masked (in the scheduler's rpo pop order) for
            # uniform intra-warp divergence, one arm at full mask for a
            # uniformly decided direction.
            first, t_mask, t_actives, f_actives, cls = _classify(
                op.read_cond(ctx, arg_values), mask, actives)
            if first is None:
                # Cross-warp disagreement: flush and hand the pending
                # split to the interpreter, as a condbr exit would.
                _flush_ints(total, acc_issues, acc_branches, acc_cats, n,
                            lanes)
                _normalize_slots(ctx, region.norm, shape)
                if profile is not None:
                    profile.note_block(op.name,
                                       float(cycles.sum()) - before,
                                       lanes, lanes, start_ts)
                return (op.true_edge, op.false_edge, epoch, t_mask,
                        mask & ~t_mask, t_actives, f_actives, cls)
            if profile is not None:
                profile.note_block(op.name, float(cycles.sum()) - before,
                                   lanes, lanes, start_ts)
            if first == _CLS_DIVERGENT:
                total.divergent_branches += n
                arms = ((op.arm_t, t_mask, t_actives),
                        (op.arm_f, mask & ~t_mask, f_actives))
                if not op.arms_t_first:
                    arms = (arms[1], arms[0])
                e1 = _exec_arm(machine, func, *arms[0], epoch, state,
                               arg_values, total, profile)
                e2 = _exec_arm(machine, func, *arms[1], epoch, state,
                               arg_values, total, profile)
                # The join group merges at the max parked epoch.
                epoch = max(e1, e2)
            elif first == _CLS_TAKEN:
                epoch = _exec_arm(machine, func, op.arm_t, mask, actives,
                                  epoch, state, arg_values, total, profile)
            else:
                epoch = _exec_arm(machine, func, op.arm_f, mask, actives,
                                  epoch, state, arg_values, total, profile)
            ni = op.next_i
            if ni <= i and float(cycles.max()) > max_cycles:
                raise SimulationError(
                    f"@{func.name}: exceeded {max_cycles} cycles "
                    "(runaway kernel?)")
            i = ni
            continue
        elif kind != R_NEXT:
            break
        moves = op.moves
        if moves:
            _bind_phis(ctx, arg_values, moves, shape)
            k = len(moves)
            acc_issues += k
            acc_cats["inst_misc"] = acc_cats.get("inst_misc", 0) + k
            pc = op.phi_c
            for _ in range(k):
                cycles += pc
                cat[:, _CAT_MISC] += pc
        if profile is not None:
            profile.note_block(op.name, float(cycles.sum()) - before,
                               lanes, lanes, start_ts)
        epoch += op.bump
        ni = op.next_i
        if ni <= i and float(cycles.max()) > max_cycles:
            raise SimulationError(
                f"@{func.name}: exceeded {max_cycles} cycles "
                "(runaway kernel?)")
        i = ni

    _flush_ints(total, acc_issues, acc_branches, acc_cats, n, lanes)
    _normalize_slots(ctx, region.norm, shape)
    if profile is not None:
        profile.note_block(op.name, float(cycles.sum()) - before, lanes,
                           lanes, start_ts)
    kind = op.kind
    if kind == R_EXIT_BR:
        _follow_batch(op.exit_edge, epoch, mask, actives, state, arg_values,
                      total)
        return None
    if kind == R_EXIT_CONDBR:
        cond = op.read_cond(ctx, arg_values)
        return _resolve_condbr(cond, mask, actives, op.true_edge,
                               op.false_edge, epoch, state, arg_values, total)
    if kind == R_RET:
        _write_ret(ctx, op.ret, mask, arg_values)
        return None
    raise SimulationError(
        f"@{func.name}: executed unreachable in {op.name}")
