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
is *folded, not changed*: the region compiler charges the same per-step
cycle sequence in the same order, so ``Counters`` stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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

    def segments_for(self, db) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        segments = self._segments.get(db.block_id)
        if segments is None:
            if self._counts is None:
                self._counts = use_counts(self.func)
            segments = self._segments[db.block_id] = find_segments(
                db, self._counts)
        return segments

    def compile_segment(self, db, lo: int, hi: int, live):
        return compile_segment(self.frame, self.func.name, db, lo, hi, live)


# -- code generation ---------------------------------------------------------

def compile_segment(frame, func_name: str, db, lo: int, hi: int, live):
    """Generate + compile one fused segment over ``db.steps[lo:hi]``.

    Returns ``(fn, stored)``: the generated ``fn(values)`` callable and
    the ``(slot, dtype)`` pairs it stores into the value table (the
    liveouts).
    """
    steps = db.steps[lo:hi]
    insts = db.insts[lo:hi]

    ns: Dict[str, object] = dict(NAMESPACE)
    hoisted: Dict[int, str] = {}

    def hoist(obj, tag: str) -> str:
        key = id(obj)
        name = hoisted.get(key)
        if name is None:
            name = f"{tag}{len(hoisted)}"
            hoisted[key] = name
            ns[name] = obj
        return name

    local: Dict[int, str] = {}      # slot -> segment-local var
    fresh: Dict[int, bool] = {}     # local holds a freshly-owned array
    liveflag: Dict[int, bool] = {}  # local was stored to values[]
    dtypes: Dict[int, object] = {}
    last_read: Dict[int, int] = {}  # slot -> last step index reading it
    for j, step in enumerate(steps):
        for src in step.srcs:
            last_read[src] = j

    def operand(src: int) -> str:
        name = local.get(src)
        if name is not None:
            return name
        if src < frame.base:
            # The very array the interpreter reads from the prefix.
            return hoist(frame.prefix[src], "K")
        return f"values[{src}]"

    def const_clamp(clamp: str, src: int) -> Optional[str]:
        """Precompute an op's shift-amount clamp of a constant amount.

        Shift amounts are almost always literals; clamping the same
        constant array on every iteration is pure loop-invariant work.
        The hoisted array is exactly what evaluating ``clamp`` in place
        would produce, so values are untouched.
        """
        if src >= frame.base:
            return None
        arr = eval(clamp.format(b="b"), NAMESPACE, {"b": frame.prefix[src]})
        arr.setflags(write=False)
        return hoist(arr, "P")

    def reuse_target(srcs, j: int, exprs, dt) -> Optional[str]:
        # A dead (non-liveout), fresh, same-dtype operand temporary whose
        # last read is this very step can absorb the result in place.
        for src, expr in zip(srcs, exprs):
            if (local.get(src) == expr and fresh.get(src)
                    and not liveflag.get(src) and last_read.get(src) == j
                    and dtypes.get(src) == dt):
                return expr
        return None

    def inline(op, step, j: int, exprs: List[str]) -> str:
        subst = dict(zip("abc", exprs))
        if op.clamp:
            subst["s"] = (const_clamp(op.clamp, step.srcs[1])
                          or op.clamp.format(b=exprs[1]))
        expr = op.expr.format(**subst)
        tgt = reuse_target(step.srcs, j, exprs, step.dtype) \
            if op.ufunc else None
        if tgt is None:
            return f"({expr})"
        a, b = exprs
        other = b if tgt == a else a
        # Guard on shape: ufunc out= cannot broadcast the output.
        return (f"({op.ufunc}({a}, {b}, out={tgt}) "
                f"if {tgt}.shape == {other}.shape else {expr})")

    lines: List[str] = ["def _fused(values):"]
    stored: List[Tuple[int, object]] = []
    for j, (step, inst) in enumerate(zip(steps, insts)):
        dst, dt = step.dst, step.dtype
        if step.kind == _K_MOVE:    # A launch-geometry read.
            expr = f"values[{step.srcs[0]}]"
        else:
            op = op_for(inst)
            exprs = [operand(src) for src in step.srcs]
            if op.expr:
                expr = inline(op, step, j, exprs)
            else:
                expr = f"{hoist(op.kernel, 'F')}({', '.join(exprs)})"

        var = f"v{j}"
        lines.append(f"    {var} = {expr}")
        # The table's kernels return the result's storage dtype; only an
        # intrinsic call (free declared type) may need normalising, as
        # the unfused executor does after every step.
        is_call = isinstance(inst, CallInst)
        if is_call:
            dn = hoist(dt, "D")
            lines.append(f"    if {var}.dtype != {dn}:")
            lines.append(f"        {var} = {var}.astype({dn})")
        if live[j]:
            lines.append(f"    values[{dst}] = {var}")
            stored.append((dst, dt))
        local[dst] = var
        # Casts may return views, geometry is a shared read-only array,
        # an intrinsic may pass an input through: never out= targets.
        fresh[dst] = not isinstance(inst, CastInst) and not is_call
        liveflag[dst] = bool(live[j])
        dtypes[dst] = dt

    src = "\n".join(lines) + "\n"
    filename = f"<fused:{func_name}:{db.name}:{lo}>"
    code = _CODE_CACHE.get((filename, src))
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(src, filename, "exec")
        _CODE_CACHE[(filename, src)] = code
    exec(code, ns)
    return ns["_fused"], tuple(stored)
