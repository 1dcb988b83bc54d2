"""Region-level numpy expression fuser for the trace-JIT tier.

The jit engine's compiled regions (``regions.py``) removed the per-block
scheduler but still issue **one numpy dispatch per instruction**: each
value step reads its source slots, applies its kernel, checks the dtype
and rebinds its slot.  This module collapses maximal *memory-free SSA
chains* of fusible value steps inside one decoded block into a single
generated Python function ``_fused(values)`` compiled with
:func:`compile`, so N dispatches become one call:

* constant / undef / global-address operands are hoisted once into the
  generated code's namespace as shared read-only arrays (the very
  arrays of the frame's prefix the interpreter reads);
* every other operand is a literal read of its value-table slot
  (``values[7]``); intermediate results live in Python locals, and only
  *liveout* values — those with IR uses outside the fused segment — are
  stored back into their slots, dead temporaries vanish entirely;
* what a step *computes* is not written here: the generated source
  inlines the expression of the step's :class:`repro.semantics.Op` — the
  very text the interpreter's kernel was compiled from — or calls that
  kernel, so fused and unfused execution are bit-identical by
  construction;
* on top of that, codegen only: an op that is a single ufunc call reuses
  a dead, fresh, same-dtype operand temporary via ``out=`` instead of
  allocating, the shift clamp of a constant amount is precomputed once,
  and the per-step dtype normalisation is dropped wherever the table's
  storage-dtype contract makes it a no-op.

Fusion legality is deliberately narrow: only ``_K_VALUE`` steps of
binop / icmp / fcmp / select / cast / gep and intrinsic-call
instructions, never loads/stores (per-warp transaction accounting),
never allocas (context-dependent addresses), never across block
boundaries (deopt must see every liveout slot populated).  Accounting
does not move: a region op charges its block's sealed tick cost whether
or not its steps fuse, so ``Counters`` stay bit-identical.

The one generator that spans blocks is :func:`compile_diamond`: a
memory-free if/else diamond inside a region, predicated — both arms'
values, the join phis as selects, the join block's leading chain — in
one call.  No guard or exit sits inside it, and an arm's values are
never liveouts, so the rule's reason does not apply.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.function import Function
from ..ir.instructions import (BinaryInst, CallInst, CastInst, FCmpInst,
                               GEPInst, ICmpInst, SelectInst)
from ..semantics import NAMESPACE, op_for
from .machine import GEOMETRY, _K_MOVE, _K_TERNARY

#: A fused segment must replace at least this many value steps.  Short
#: chains are a wash: the generated call + liveout slot stores cost about
#: what the unfused steps cost, and measured crossover on
#: the ``benchmarks/perf/kernels/`` microkernels sits between 2 and 4 —
#: below this the fused path can *lose* (the ``divergent`` kernel's
#: 2-step latch), at or above it fusion wins on every shape.
MIN_CHAIN = 4

#: Compiled code objects keyed by ``(filename, source)``.  The generated
#: source names value-table slots, which decode numbers from the
#: function's text alone, so re-launching the same kernel — bench
#: repeats, sweep cells, serve requests, a re-parse — reuses the
#: ``compile()`` result and pays only an ``exec`` per segment.
_CODE_CACHE: Dict[Tuple[str, str], object] = {}

_CODE_CACHE_LIMIT = 1024


# -- chain analysis ----------------------------------------------------------

def fusible(inst) -> bool:
    """Can this instruction's value step join a fused segment?"""
    if isinstance(inst, CallInst):
        return inst.intrinsic.name in GEOMETRY or op_for(inst) is not None
    return isinstance(inst, (BinaryInst, ICmpInst, FCmpInst, SelectInst,
                             CastInst, GEPInst))


def use_counts(func: Function) -> Dict[int, int]:
    """Function-wide operand use counts, keyed by ``id(value)``.

    Terminator conditions, return values, and phi incomings are all
    ``operands``, so a value with zero counted uses outside a segment
    is truly dead to the rest of the program.
    """
    counts: Dict[int, int] = {}
    for inst in func.instructions():
        for op in inst.operands:
            oid = id(op)
            counts[oid] = counts.get(oid, 0) + 1
    return counts


def _liveouts(insts, lo: int, hi: int,
              counts: Dict[int, int]) -> Tuple[int, ...]:
    """1 per step whose value has any IR use outside ``insts[lo:hi]``."""
    inner: Dict[int, int] = {}
    for inst in insts[lo:hi]:
        for op in inst.operands:
            oid = id(op)
            inner[oid] = inner.get(oid, 0) + 1
    return tuple(1 if counts.get(id(inst), 0) > inner.get(id(inst), 0)
                 else 0 for inst in insts[lo:hi])


def find_segments(db, counts: Dict[int, int]
                  ) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
    """Maximal runs of >= MIN_CHAIN consecutive fusible value steps.

    Returns ``(lo, hi, liveouts)`` triples over ``db.steps`` indices; any
    memory / void / non-fusible step breaks the run.
    """
    segments: List[Tuple[int, int, Tuple[int, ...]]] = []
    start: Optional[int] = None
    end = len(db.steps)
    for i, (step, inst) in enumerate(zip(db.steps, db.insts)):
        if step.kind <= _K_TERNARY and fusible(inst):
            if start is None:
                start = i
            continue
        if start is not None and i - start >= MIN_CHAIN:
            segments.append((start, i, _liveouts(db.insts, start, i, counts)))
        start = None
    if start is not None and end - start >= MIN_CHAIN:
        segments.append((start, end, _liveouts(db.insts, start, end, counts)))
    return tuple(segments)


class FuseContext:
    """Per-function fusion state threaded through region compilation.

    Each block is analysed once, the first time a trace through it
    compiles.
    """

    def __init__(self, frame, func: Function) -> None:
        self.frame = frame
        self.func = func
        self._counts: Optional[Dict[int, int]] = None
        self._segments: Dict[int, Tuple] = {}

    def counts(self) -> Dict[int, int]:
        if self._counts is None:
            self._counts = use_counts(self.func)
        return self._counts

    def segments_for(self, db) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        segments = self._segments.get(db.block_id)
        if segments is None:
            segments = self._segments[db.block_id] = find_segments(
                db, self.counts())
        return segments

    def compile_segment(self, db, lo: int, hi: int, live):
        return compile_segment(self.frame, self.func.name, db, lo, hi, live)

    def compile_diamond(self, head, arm_t, arm_f, safe, join=None,
                        chain: int = 0):
        return compile_diamond(self.frame, self.func.name, head, arm_t,
                               arm_f, safe, join, chain, self.counts())


# -- code generation ---------------------------------------------------------

class _Codegen:
    """Source text over value-table slots, shared by both generators.

    Holds the namespace the generated code runs in (hoisted constants
    and kernels) and what each emitted step left in a Python local: its
    name, whether it holds a freshly-owned array, whether it was stored
    back to ``values[]``, and its dtype.
    """

    def __init__(self, frame) -> None:
        self.frame = frame
        self.ns: Dict[str, object] = dict(NAMESPACE)
        self._hoisted: Dict[int, str] = {}
        self.local: Dict[int, str] = {}      # slot -> local var
        self.fresh: Dict[int, bool] = {}     # local holds an owned array
        self.liveflag: Dict[int, bool] = {}  # local was stored to values[]
        self.dtypes: Dict[int, object] = {}

    def hoist(self, obj, tag: str) -> str:
        key = id(obj)
        name = self._hoisted.get(key)
        if name is None:
            name = f"{tag}{len(self._hoisted)}"
            self._hoisted[key] = name
            self.ns[name] = obj
        return name

    def operand(self, src: int) -> str:
        name = self.local.get(src)
        if name is not None:
            return name
        if src < self.frame.base:
            # The very array the interpreter reads from the prefix.
            return self.hoist(self.frame.prefix[src], "K")
        return f"values[{src}]"

    def dtype(self, src: int):
        """Storage dtype of whatever ``operand(src)`` reads."""
        frame = self.frame
        if src in self.dtypes:
            return self.dtypes[src]
        if src < frame.base:
            return frame.prefix[src].dtype
        if src >= frame.inst:
            return frame.dtype(src)
        arg = src - frame.base - len(GEOMETRY)
        return frame.arg_dtypes[arg] if arg >= 0 else np.int64

    def _const_clamp(self, clamp: str, src: int) -> Optional[str]:
        """Precompute an op's shift-amount clamp of a constant amount.

        Shift amounts are almost always literals; clamping the same
        constant array on every iteration is pure loop-invariant work.
        The hoisted array is exactly what evaluating ``clamp`` in place
        would produce, so values are untouched.
        """
        if src >= self.frame.base:
            return None
        arr = eval(clamp.format(b="b"), NAMESPACE,
                   {"b": self.frame.prefix[src]})
        arr.setflags(write=False)
        return self.hoist(arr, "P")

    def _reuse_target(self, srcs, j: int, exprs, dt,
                      last_read) -> Optional[str]:
        # A dead (non-liveout), fresh, same-dtype operand temporary whose
        # last read is this very step can absorb the result in place.
        for src, expr in zip(srcs, exprs):
            if (self.local.get(src) == expr and self.fresh.get(src)
                    and not self.liveflag.get(src)
                    and last_read.get(src) == j
                    and self.dtypes.get(src) == dt):
                return expr
        return None

    def _inline(self, op, step, j: int, exprs: List[str], last_read) -> str:
        subst = dict(zip("abc", exprs))
        if op.clamp:
            subst["s"] = (self._const_clamp(op.clamp, step.srcs[1])
                          or op.clamp.format(b=exprs[1]))
        expr = op.expr.format(**subst)
        tgt = self._reuse_target(step.srcs, j, exprs, step.dtype,
                                 last_read) if op.ufunc else None
        if tgt is None:
            return f"({expr})"
        a, b = exprs
        other = b if tgt == a else a
        # Guard on shape: ufunc out= cannot broadcast the output.
        return (f"({op.ufunc}({a}, {b}, out={tgt}) "
                f"if {tgt}.shape == {other}.shape else {expr})")

    def steps(self, steps, insts, live, prefix: str,
              read_later=()) -> Tuple[List[str], List[Tuple[int, object]]]:
        """Lines computing ``steps`` into locals ``<prefix><j>``.

        ``live[j]`` stores step ``j``'s value back to its slot;
        ``read_later`` names slots code after these lines still reads,
        so no later step may reuse their arrays.  Returns the lines and
        the ``(slot, dtype)`` pairs stored.
        """
        last_read: Dict[int, int] = {}  # slot -> last step index reading it
        for j, step in enumerate(steps):
            for src in step.srcs:
                last_read[src] = j
        for src in read_later:
            last_read[src] = len(steps)
        lines: List[str] = []
        stored: List[Tuple[int, object]] = []
        for j, (step, inst) in enumerate(zip(steps, insts)):
            dst, dt = step.dst, step.dtype
            if step.kind == _K_MOVE:    # A launch-geometry read.
                expr = f"values[{step.srcs[0]}]"
            else:
                op = op_for(inst)
                exprs = [self.operand(src) for src in step.srcs]
                if op.expr:
                    expr = self._inline(op, step, j, exprs, last_read)
                else:
                    expr = f"{self.hoist(op.kernel, 'F')}({', '.join(exprs)})"

            var = f"{prefix}{j}"
            lines.append(f"{var} = {expr}")
            # The table's kernels return the result's storage dtype; only
            # an intrinsic call (free declared type) may need normalising,
            # as the unfused executor does after every step.
            is_call = isinstance(inst, CallInst)
            if is_call:
                dn = self.hoist(dt, "D")
                lines.append(f"if {var}.dtype != {dn}:")
                lines.append(f"    {var} = {var}.astype({dn})")
            if live[j]:
                lines.append(f"values[{dst}] = {var}")
                stored.append((dst, dt))
            self.local[dst] = var
            # Casts may return views, geometry is a shared read-only
            # array, an intrinsic may pass an input through: never out=
            # targets, and never aliased by a phi.
            self.fresh[dst] = not isinstance(inst, CastInst) and not is_call
            self.liveflag[dst] = bool(live[j])
            self.dtypes[dst] = dt
        return lines, stored

    def compile(self, body: List[str], signature: str, filename: str):
        """Compile ``def _fused(<signature>):`` over ``body``."""
        src = "\n".join([f"def _fused({signature}):"]
                        + [f"    {line}" for line in body]) + "\n"
        code = _CODE_CACHE.get((filename, src))
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()
            code = compile(src, filename, "exec")
            _CODE_CACHE[(filename, src)] = code
        exec(code, self.ns)
        return self.ns["_fused"]


def compile_segment(frame, func_name: str, db, lo: int, hi: int, live):
    """Generate + compile one fused segment over ``db.steps[lo:hi]``.

    Returns ``(fn, stored)``: the generated ``fn(values)`` callable and
    the ``(slot, dtype)`` pairs it stores into the value table (the
    liveouts).
    """
    gen = _Codegen(frame)
    lines, stored = gen.steps(db.steps[lo:hi], db.insts[lo:hi], live, "v")
    fn = gen.compile(lines, "values", f"<fused:{func_name}:{db.name}:{lo}>")
    return fn, tuple(stored)


def chain_length(db) -> int:
    """How many of ``db``'s steps, from the first, are fusible values."""
    for i, (step, inst) in enumerate(zip(db.steps, db.insts)):
        if not (step.kind <= _K_TERNARY and fusible(inst)):
            return i
    return len(db.steps)


def compile_diamond(frame, func_name: str, head, arm_t, arm_f, safe,
                    join=None, chain: int = 0, counts=None):
    """Generate + compile one predicated if/else diamond.

    The generated ``fn(values, t)`` computes the arm or arms on every
    lane — ``t`` is the branch's ``(n, 32)`` true-side mask, or ``True``
    / ``False`` when every lane went one way — and rebinds each join phi
    to ``np.where(t, from_t, from_f)``, or to the lone arm's value: by
    reference when that is an array this call made or a slot in
    ``safe`` (rebound, never mutated, while the alias can live), else a
    copy.  An arm's values leave the arm only through the join phis (it
    dominates no other block), so they stay locals.  Then, with
    ``join``, the first ``chain`` steps of the join block, liveouts by
    the function-wide ``counts``.  Every slot ``fn`` stores is a join
    phi or one the join block's own steps store.
    """
    gen = _Codegen(frame)
    phis = [(dst, src_t, src_f, frame.dtype(dst))
            for (dst, src_t, _s), (_d, src_f, _f)
            in zip(arm_t.term.moves, arm_f.term.moves)]

    def arm_lines(arm, srcs, prefix):
        kept = [(step, inst) for step, inst in zip(arm.steps, arm.insts)
                if step.kind <= _K_TERNARY]     # Void steps only charge.
        return gen.steps([s for s, _i in kept], [i for _s, i in kept],
                         [0] * len(kept), prefix, read_later=srcs)[0]

    t_lines = arm_lines(arm_t, [src for _d, src, _f, _dt in phis], "t")
    f_lines = arm_lines(arm_f, [src for _d, _t, src, _dt in phis], "f")

    def cast(src, dt):
        expr = gen.operand(src)
        if np.dtype(gen.dtype(src)) != np.dtype(dt):
            expr = f"{expr}.astype({gen.hoist(dt, 'D')})"
        return expr

    def lone(src, dt):
        expr = gen.operand(src)
        own = gen.fresh[src] if src in gen.local else src in safe
        if own and np.dtype(gen.dtype(src)) == np.dtype(dt):
            return expr
        return f"{expr}.astype({gen.hoist(dt, 'D')})"     # Always a copy.

    body = []
    if phis:    # Without join phis no arm value is ever read.
        body.append("if t is True:")
        body += [f"    {line}" for line in t_lines]
        body += [f"    p{k} = {lone(src, dt)}"
                 for k, (_d, src, _f, dt) in enumerate(phis)]
        body.append("elif t is False:")
        body += [f"    {line}" for line in f_lines]
        body += [f"    p{k} = {lone(src, dt)}"
                 for k, (_d, _t, src, dt) in enumerate(phis)]
        body.append("else:")
        body += [f"    {line}" for line in t_lines + f_lines]
        body += [f"    p{k} = np.where(t, {cast(src_t, dt)}, "
                 f"{cast(src_f, dt)})"
                 for k, (_d, src_t, src_f, dt) in enumerate(phis)]
    for k, (dst, _t, _f, dt) in enumerate(phis):
        body.append(f"values[{dst}] = p{k}")
        gen.local[dst] = f"p{k}"
        gen.fresh[dst] = False
        gen.liveflag[dst] = True
        gen.dtypes[dst] = dt
    if chain:
        body += gen.steps(join.steps[:chain], join.insts[:chain],
                          _liveouts(join.insts, 0, chain, counts), "v")[0]
    return gen.compile(body or ["pass"], "values, t",
                       f"<pred:{func_name}:{head.name}>")
