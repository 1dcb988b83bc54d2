"""Superblock selection and compilation for the trace-JIT engine.

A *superblock* here is a trace: a maximal straight-line sequence of
decoded basic blocks entered only at its head, extended across branches
whose direction is decided at compile time — unconditional branches
always, conditional branches along one *expected* side chosen from
static CFG shape alone (never from an execution profile: observing a
launch must not change what it compiles, and a compiled region never
changes shape: a wrong guess costs a deopt per traversal, and
EXPERIMENTS.md "Trace-tier traffic" records why nothing corrects it).
The shapes the paper's transforms produce — unrolled loop bodies,
unmerged per-path clones — are exactly long chains of such decided
branches, so one trace frequently covers a whole unrolled iteration.

Selection and compilation are separate steps, because the jit pays
only for what runs hot.  :func:`select_regions` walks the decoded CFG
once per function — when its first block gets hot — and leaves every
head an uncompiled *decision list*; :func:`compile_region` then flattens
one head's trace, when that head gets hot, into a
list of :class:`RegionOp` records the jit engine executes without the
per-block scheduler: value steps become direct rebinds of their value
table slots (a full-mask masked write is a rebind), phi parallel-copies
on internal edges become
staged copy-and-rebind sequences resolved at compile time, and an op's
counters fold into a handful of precomputed increments, its cycles into
one integer tick sum.  Every conditional branch crossed becomes a
*guard*: at run time the expected side must be taken by every lane of
every warp (one lattice reduction); otherwise the op deoptimizes — the
run's tick delta and counts are added to the rows and the total, rebound
slots are normalized to owned ``(n, 32)`` arrays, and the branch is
resolved by the exact lattice-interpreter logic (park sub-groups, or
report a pending cross-warp split).

Only memory-free traces compile: a load, a store or an alloca in any
block or diamond arm rejects the trace (reason ``memory step``), and
its blocks stay with the interpreter — a load or store charges per-row
transaction latencies that one scalar delta cannot carry.

Why a region equals the interpreter (the contract of the engine
family): a region executes only for a group whose mask is *full* —
every lane of every warp active.  Then every row's tick charge
``cost * (FIXED_T + ACT_T * 32)`` is the same integer, so one scalar
delta, added to every row at exit, is what the interpreter adds row by
row, whatever the rows held before.  A full mask also implies the group
is the *only* live group of its batch (masks partition lanes), so
running the whole trace without re-entering the scheduler reproduces
the interpreter's merge/sort/pop order exactly.

An in-region diamond's arms run under partial masks, where the charge
follows the arm's lane count: when every row takes the true side on the
same number of lanes, each arm's charge is again one integer for every
row, so the delta carries on through the arms; rows that split unalike
leave the region at the diamond's branch, which the interpreter
resolves as it resolves a failed guard's.  The arms' *values* are predicated
(:func:`_predicate`): one generated call computes the arm or arms on
every lane and rebinds each join phi to ``np.where(t_mask, from_t,
from_f)``, instead of masked-writing every step and phi.  That is exact
because an arm dominates no block but itself — its only successor is
the join, which the other arm also reaches — so its values leave it
only through the join phis, and the lanes of an arm-local slot outside
its mask are never read.

Aliases: a phi bind may share its source's array only while nothing
masked-writes either slot in place.  Inside a region nothing does —
value steps and join phis are rebound — so a back edge may alias either
(``acc <- acc.next``), and every region exit normalizes the slots the
trace rebinds (``jit._normalize_slots``) before the interpreter's
masked writes can see them.  A lone arm's value is bound by reference
only when it is an array the call made or a slot the trace only
rebinds; anything the interpreter owns is copied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs import session as obs_session
from .fuser import FuseContext, chain_length
from .machine import (_K_TERNARY, _K_VOID, _T_BR, _T_MISSING, _T_RET,
                      _T_UNREACHABLE, WARP_SIZE, _DecodedBlock)
from .timing import ticks

#: Trace growth limits: blocks per region and guards (crossed conditional
#: branches) per region.
MAX_REGION_BLOCKS = 64
MAX_REGION_GUARDS = 16

# RegionOp terminator kinds.
R_NEXT = 0          # Unconditional internal edge to ops[next_i].
R_GUARD = 1         # Conditional: expected side internal, other side exits.
R_EXIT_BR = 2       # Unconditional edge leaving the region.
R_EXIT_CONDBR = 3   # Conditional branch resolved by the interpreter.
R_RET = 4
R_UNREACHABLE = 5
R_DIAMOND = 6       # If/else diamond: its arms execute in-region.


class RegionOp:
    """One trace block, compiled: fused steps + folded accounting."""

    __slots__ = ("block_id", "name", "size", "vsteps", "ticks", "issues",
                 "cat_counts", "branch_inc", "kind", "next_i", "bump",
                 "moves", "phi_ticks", "cond", "expected", "true_edge",
                 "false_edge", "exit_edge", "ret", "arm_t", "arm_f",
                 "arms_t_first", "stored", "fuse_plan", "pred")

    def __init__(self, db: _DecodedBlock) -> None:
        self.block_id = db.block_id
        self.name = db.name
        self.size = db.size
        self.vsteps: Tuple = ()      # ((kind, dst, srcs, kernel, dtype), ...)
        #: Its steps' and terminator's charge at a full mask.
        self.ticks = ticks(db.cost, WARP_SIZE)
        self.issues = 0              # note_issue count (steps + terminator)
        self.cat_counts: Tuple = ()  # ((Counters attr, count), ...)
        self.branch_inc = 0
        self.kind = R_UNREACHABLE
        self.next_i = 0              # Internal successor op index.
        self.bump = 0                # Epoch bump of the internal edge.
        self.moves: Tuple = ()       # ((dst, src, dtype, nocopy), ...)
        self.phi_ticks = 0           # Those moves' charge at a full mask.
        self.cond: Optional[int] = None   # The branch condition's slot.
        self.expected = True
        self.true_edge = None
        self.false_edge = None
        self.exit_edge = None
        self.ret = None
        self.arm_t = None            # R_DIAMOND arms: their decoded blocks.
        self.arm_f = None
        self.arms_t_first = True     # True arm has the lower rpo.
        self.stored = ()             # (slot, dtype) pairs this op rebinds.
        self.fuse_plan = ()          # ((lo, hi, liveouts), ...) fused spans.
        #: A diamond's generated ``fn(values, t)``
        #: (``fuser.compile_diamond``).
        self.pred = None

    def arm_ticks(self, arm: _DecodedBlock, active: int) -> int:
        """The charge of one of this diamond's arms run on ``active`` lanes
        per row: its steps, its ``br`` and its join edge's phi moves."""
        return ticks(arm.cost + arm.term.cost, active)


class CompiledRegion:
    """A compiled superblock: ops, entry id, and exit bookkeeping."""

    __slots__ = ("head_id", "head_name", "ops", "norm",
                 "n_guards", "loopback", "self_loop", "entries",
                 "fused_segments", "fused_steps", "max_chain")

    def __init__(self, head_id: int, head_name: str, ops: List[RegionOp],
                 norm: Tuple, n_guards: int, loopback: bool) -> None:
        self.head_id = head_id
        self.head_name = head_name
        self.ops = tuple(ops)
        #: Slots rebound by value steps or phi binds; normalized to owned
        #: (n, 32) arrays at every region exit (``jit._normalize_slots``).
        self.norm = norm
        self.n_guards = n_guards
        self.loopback = loopback
        #: A single-block region whose guard loops straight back to
        #: itself — the hot-loop shape the jit's region executor spins
        #: with all per-iteration bookkeeping hoisted.
        op0 = self.ops[0] if len(self.ops) == 1 else None
        self.self_loop = op0 if (op0 is not None and op0.kind == R_GUARD
                                 and op0.next_i == 0 and loopback) else None
        #: Runs of the region (telemetry; nothing reads it to decide).
        self.entries = 0
        #: Fusion telemetry (see gpu/fuser.py), counted in remarks and
        #: the ``repro_jit_fused_*`` / ``repro_jit_max_chain`` metrics.
        self.fused_segments = sum(len(op.fuse_plan) for op in self.ops)
        self.fused_steps = sum(hi - lo for op in self.ops
                               for lo, hi, _live in op.fuse_plan)
        self.max_chain = max((hi - lo for op in self.ops
                              for lo, hi, _live in op.fuse_plan), default=0)


class RegionMap(dict):
    """One function's tier-up state: ``{head block id -> CompiledRegion}``.

    The map starts empty and cold.  ``heat`` counts lattice dispatches
    per decoded block (``jit.enter_region``); ``plans`` is None until
    the first block gets hot, then holds every selected head's
    uncompiled decision list ``(decisions, n_guards, loopback)`` —
    what :func:`compile_region` compiles, one hot head at a time.  The
    map only grows, and a compiled region is immutable.
    """

    __slots__ = ("func_name", "heat", "plans", "fuse_ctx")

    def __init__(self, func_name: str = "") -> None:
        super().__init__()
        self.func_name = func_name
        self.heat: Dict[int, int] = {}
        self.plans: Optional[Dict[int, Tuple]] = None
        self.fuse_ctx: Optional[FuseContext] = None


def select_regions(regions: RegionMap, machine, func) -> None:
    """Select every superblock of one decoded function; compile none.

    Heads are seeded from the function entry and, transitively, from
    every branch target observed while tracing — i.e. every block the
    dispatcher could ever park a group at.  Counts one selection, and
    emits one ``analysis`` remark per rejected head through the obs
    layer; selected heads get theirs when (if) they compile.
    """
    plans: Dict[int, Tuple] = {}
    done = set()
    work = [machine._decode(func)]
    while work:
        head = work.pop()
        if head.block_id in done:
            continue
        done.add(head.block_id)
        plan, succs, reason = _select_region(head)
        for tgt in succs:
            if tgt.block_id not in done:
                work.append(tgt)
        if plan is None:
            obs_metrics.inc("repro_jit_regions_total", result="rejected")
            obs_session.remark(
                "analysis", "jit", func.name,
                f"region at {head.name} rejected: {reason}",
                head=head.name, reason=reason)
            continue
        plans[head.block_id] = plan
    regions.plans = plans
    obs_metrics.inc("repro_jit_selections_total")
    # The frame and function let the expression fuser hoist constant
    # operands and compute function-wide use counts.
    regions.fuse_ctx = FuseContext(machine._decoded[id(func)], func)


def compile_region(regions: RegionMap,
                   head_id: int) -> Optional[CompiledRegion]:
    """Compile the selected trace headed at ``head_id`` and install it.

    Returns None for a head selection rejected.
    Region telemetry — the ``repro_jit_*`` metrics and the ``compiled
    superblock`` remark — is counted here, when a region is compiled.
    """
    plan = regions.plans.get(head_id)
    if plan is None:
        return None
    decisions, n_guards, loopback = plan
    fuse_ctx = regions.fuse_ctx
    ops = [_compile_op(db, decision, fuse_ctx) for db, decision in decisions]
    safe = _safe_slots(ops)
    _predicate(ops, safe, fuse_ctx)
    _finalize_moves(ops, safe)
    head = decisions[0][0]
    region = CompiledRegion(head_id, head.name, ops, _norm_of(ops),
                            n_guards, loopback)
    regions[head_id] = region
    obs_metrics.inc("repro_jit_regions_total", result="compiled")
    if region.fused_segments:
        obs_metrics.inc("repro_jit_fused_segments_total",
                        region.fused_segments)
        obs_metrics.inc("repro_jit_fused_steps_total", region.fused_steps)
        obs_metrics.raise_gauge("repro_jit_max_chain", region.max_chain)
    obs_session.remark(
        "analysis", "jit", regions.func_name,
        f"compiled superblock at {head.name}: "
        f"{len(region.ops)} blocks, {region.n_guards} guards",
        head=head.name, blocks=len(region.ops),
        guards=region.n_guards,
        steps=sum(len(db.steps) for db, _decision in decisions),
        diamonds=sum(1 for op in region.ops if op.kind == R_DIAMOND),
        loopback=region.loopback,
        fused=region.fused_steps,
        fused_segments=region.fused_segments)
    return region


def _pick_side(db: _DecodedBlock, true_edge, false_edge,
               head_id: int) -> bool:
    """Expected direction of a conditional branch inside a trace.

    Priority: a side closing the loop back to the trace head (the hot
    back edge), then the static forward (non-back) edge, then the true
    side.
    """
    if true_edge.target.block_id == head_id:
        return True
    if false_edge.target.block_id == head_id:
        return False
    t_back = true_edge.target.rpo <= db.rpo
    f_back = false_edge.target.rpo <= db.rpo
    if t_back != f_back:
        return f_back  # Prefer the forward edge.
    return True


def _select_region(head: _DecodedBlock):
    """Grow one trace from ``head``; returns (plan|None, succs, reason).

    The plan is ``(decisions, n_guards, loopback)``, one ``(block,
    decision)`` pair per trace block; ``succs`` collects every
    branch-target block encountered — the seed set for further heads —
    whether or not this trace is worth compiling.
    """
    if head.term_kind == _T_MISSING:
        return None, [], "no terminator"
    decisions: List[Tuple[_DecodedBlock, Tuple]] = []
    seen = {head.block_id}
    succs: List[_DecodedBlock] = []
    guards = 0
    loopback = False
    cur = head
    while True:
        tk = cur.term_kind
        if tk == _T_RET:
            decisions.append((cur, (R_RET, None)))
            break
        if tk == _T_UNREACHABLE:
            decisions.append((cur, (R_UNREACHABLE, None)))
            break
        if tk == _T_BR:
            edge = cur.term
            tgt = edge.target
            succs.append(tgt)
            if tgt.block_id == head.block_id:
                decisions.append((cur, (R_NEXT, edge, 0)))
                loopback = True
                break
            if (tgt.block_id in seen
                    or len(decisions) + 1 >= MAX_REGION_BLOCKS
                    or tgt.term_kind == _T_MISSING):
                decisions.append((cur, (R_EXIT_BR, edge)))
                break
            decisions.append((cur, (R_NEXT, edge, len(decisions) + 1)))
            seen.add(tgt.block_id)
            cur = tgt
            continue
        # Conditional branch.
        cond, t_edge, f_edge = cur.term
        succs.append(t_edge.target)
        succs.append(f_edge.target)
        if guards >= MAX_REGION_GUARDS:
            decisions.append((cur, (R_EXIT_CONDBR, cond, t_edge, f_edge)))
            break
        # An if/else diamond is folded into the trace whole: both arms
        # execute masked in-region (paper-style predication), so an
        # intra-warp-divergent branch needs no deopt at all.  Loopback
        # guards keep priority — a back edge to the head beats a diamond.
        if (t_edge.target.block_id != head.block_id
                and f_edge.target.block_id != head.block_id):
            dia = _try_diamond(t_edge, f_edge, seen)
            if dia is not None:
                ta, fa, join = dia
                if join.block_id == head.block_id:
                    decisions.append((cur, (R_DIAMOND, cond, t_edge, f_edge,
                                            ta, fa, 0)))
                    guards += 1
                    seen.update((ta.block_id, fa.block_id))
                    loopback = True
                    break
                if (join.block_id not in seen
                        and len(decisions) + 3 < MAX_REGION_BLOCKS
                        and join.term_kind != _T_MISSING):
                    decisions.append((cur, (R_DIAMOND, cond, t_edge, f_edge,
                                            ta, fa, len(decisions) + 1)))
                    guards += 1
                    seen.update((ta.block_id, fa.block_id, join.block_id))
                    succs.append(join)
                    cur = join
                    continue
        expected = _pick_side(cur, t_edge, f_edge, head.block_id)
        chosen = t_edge if expected else f_edge
        tgt = chosen.target
        if tgt.block_id == head.block_id:
            decisions.append((cur, (R_GUARD, cond, expected, t_edge,
                                    f_edge, chosen, 0)))
            guards += 1
            loopback = True
            break
        if (tgt.block_id in seen
                or len(decisions) + 1 >= MAX_REGION_BLOCKS
                or tgt.term_kind == _T_MISSING):
            decisions.append((cur, (R_EXIT_CONDBR, cond, t_edge, f_edge)))
            break
        decisions.append((cur, (R_GUARD, cond, expected, t_edge,
                                f_edge, chosen, len(decisions) + 1)))
        guards += 1
        seen.add(tgt.block_id)
        cur = tgt

    n_steps = sum(len(db.steps) for db, _ in decisions)
    if len(decisions) == 1 and not loopback and n_steps == 0:
        # A bare jump/return stub: the interpreter's single dispatch is
        # already minimal, and compiling it would only add indirection.
        return None, succs, "trivial: single empty block, no loop"
    if any(_has_mem(db) or (decision[0] == R_DIAMOND
                            and (_has_mem(decision[4])
                                 or _has_mem(decision[5])))
           for db, decision in decisions):
        return None, succs, "memory step"
    return (decisions, guards, loopback), succs, ""


def _try_diamond(t_edge, f_edge, seen):
    """Detect an if/else diamond rooted at a conditional branch.

    Shape: two distinct arm blocks, each straight-line with an
    unconditional branch to the same join block, entered with no phi
    moves and no epoch bump (forward edges).  Under those conditions
    executing both arms masked inside the region, true-path lanes then
    false-path lanes, replays the interpreter's park/pop order exactly.
    Returns ``(true_arm, false_arm, join)`` or ``None``.
    """
    ta, fa = t_edge.target, f_edge.target
    if (ta.block_id == fa.block_id
            or ta.block_id in seen or fa.block_id in seen
            or t_edge.bump_epoch or f_edge.bump_epoch
            or t_edge.moves or f_edge.moves
            or ta.term_kind != _T_BR or fa.term_kind != _T_BR):
        return None
    t_join = ta.term
    f_join = fa.term
    if t_join.target is not f_join.target:
        return None
    join = t_join.target
    if join.block_id in (ta.block_id, fa.block_id):
        return None
    return ta, fa, join


def _has_mem(db: _DecodedBlock) -> bool:
    """True when a decoded block holds a load, a store or an alloca."""
    return any(_K_TERNARY < step.kind < _K_VOID for step in db.steps)


def _join_phis(op: RegionOp) -> List[int]:
    """The slots of a diamond's join phis."""
    return [dst for dst, _src, _snapshot in op.arm_t.term.moves]


def _safe_slots(ops: List[RegionOp]) -> set:
    """Slots a phi may alias: *rebound, never mutated* while it can live.

    That is a value-step result of this region, a phi bound by this
    region, or a diamond's join phi (:func:`_predicate` rebinds it).
    """
    safe = {slot for op in ops for slot, _dt in op.stored}
    safe |= {dst for op in ops for dst, _src, _dt in op.moves}
    safe |= {dst for op in ops if op.kind == R_DIAMOND
             for dst in _join_phis(op)}
    return safe


def _predicate(ops: List[RegionOp], safe: set,
               fuse_ctx: FuseContext) -> None:
    """Compile every diamond of a trace into one call.

    The diamond's ``pred`` computes its arms on every lane and rebinds
    the join phis (``fuser.compile_diamond``), which it therefore counts
    among the slots it stores; when the join is the next
    op (not the loop head), its leading fusible chain rides in the same
    call and leaves that op's steps (``vsteps``), but not its charges.
    """
    for i, op in enumerate(ops):
        if op.kind != R_DIAMOND:
            continue
        op.stored += tuple((dst, fuse_ctx.frame.dtype(dst))
                           for dst in _join_phis(op))
        join = op.arm_t.term.target
        chain = chain_length(join) if op.next_i > i else 0
        op.pred = fuse_ctx.compile_diamond(op, op.arm_t, op.arm_f, safe,
                                           join, chain)
        if chain:
            jop = ops[op.next_i]
            fused = jop.fuse_plan and jop.fuse_plan[0][0] == 0
            jop.vsteps = jop.vsteps[1 if fused else chain:]


def _finalize_moves(ops: List[RegionOp], safe: set) -> None:
    """Resolve each phi move's copy-vs-alias decision.

    A phi bind may alias its source array (skip ``broadcast_to/astype``)
    only when the source slot is in ``safe`` (:func:`_safe_slots`).
    Everything else (constants, arguments, geometry, slots owned by the
    interpreter, load results) is copied at bind time, exactly as the
    interpreter's masked phi write would.
    Exit-time normalization breaks any surviving alias between two
    region slots before the interpreter regains masked-write access.
    """
    for op in ops:
        if op.moves:
            op.moves = tuple((dst, src, dt, src in safe)
                             for dst, src, dt in op.moves)


def _norm_of(ops) -> Tuple:
    """Slots a region can rebind: value steps plus phi destinations."""
    return tuple(dict.fromkeys(  # Preserve order, drop duplicates.
        [(slot, dt) for op in ops for slot, dt in op.stored]
        + [(dst, dt) for op in ops for dst, _src, dt, _nc in op.moves]))


def _compile_op(db: _DecodedBlock, decision: Tuple,
                fuse_ctx: FuseContext) -> RegionOp:
    """Flatten one decoded block (plus its trace decision) into a RegionOp.

    Maximal chains of fusible value steps (found by the
    :class:`FuseContext`) collapse into single entries of kind None: one
    generated function computes the whole chain.  What the op charges is
    the block's sealed cost whether or not it fuses.  The trace is
    memory-free, so a step is a value step or a void one, which only
    charges.
    """
    op = RegionOp(db)
    vsteps: List[Tuple] = []
    stored: List[Tuple[int, object]] = []
    fuse_plan: List[Tuple[int, int, Tuple[int, ...]]] = []
    dtype_of = fuse_ctx.frame.dtype
    seg_iter = iter(fuse_ctx.segments_for(db))
    seg = next(seg_iter, None)
    db_steps = db.steps
    i = 0
    while i < len(db_steps):
        if seg is not None and i == seg[0]:
            lo, hi, live = seg
            fn, seg_stored = fuse_ctx.compile_segment(db, lo, hi, live)
            vsteps.append((None, None, None, fn, None))
            stored.extend(seg_stored)
            fuse_plan.append((lo, hi, tuple(live)))
            seg = next(seg_iter, None)
            i = hi
            continue
        step = db_steps[i]
        i += 1
        _cat, _cost, kind, dst, srcs, kernel, dt, _aux = step
        if kind <= _K_TERNARY:
            vsteps.append((kind, dst, srcs, kernel, dt))
            stored.append((dst, dt))

    kind0 = decision[0]
    op.kind = kind0
    op.branch_inc = int(kind0 not in (R_RET, R_UNREACHABLE))
    edge = None
    if kind0 == R_RET:
        op.ret = db.term
    elif kind0 == R_NEXT:
        edge = decision[1]
        op.next_i = decision[2]
    elif kind0 == R_EXIT_BR:
        op.exit_edge = decision[1]
    elif kind0 == R_GUARD:
        _k, cond, expected, t_edge, f_edge, chosen, next_i = decision
        op.cond = cond
        op.expected = expected
        op.true_edge = t_edge
        op.false_edge = f_edge
        op.next_i = next_i
        edge = chosen
    elif kind0 == R_EXIT_CONDBR:
        _k, cond, t_edge, f_edge = decision
        op.cond = cond
        op.true_edge = t_edge
        op.false_edge = f_edge
    elif kind0 == R_DIAMOND:
        _k, cond, t_edge, f_edge, ta, fa, next_i = decision
        op.cond = cond
        op.true_edge = t_edge
        op.false_edge = f_edge
        op.next_i = next_i
        op.arm_t = ta
        op.arm_f = fa
        op.arms_t_first = ta.rpo <= fa.rpo
    if edge is not None:        # The internal edge of R_NEXT or R_GUARD.
        op.bump = edge.bump_epoch
        op.moves = tuple((dst, src, dtype_of(dst))
                         for dst, src, _snapshot in edge.moves)
        op.phi_ticks = ticks(edge.cost, WARP_SIZE)

    op.vsteps = tuple(vsteps)
    op.stored = tuple(stored)
    op.fuse_plan = tuple(fuse_plan)
    # The integer counts decode sealed: fusion and the trace decision
    # change how a block runs, not what it issues.
    op.issues, op.cat_counts = db.issues
    return op
