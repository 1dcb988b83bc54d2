"""Region-level numpy expression fuser for the trace-JIT tier.

The jit engine's compiled regions (``regions.py``) removed the per-block
scheduler but still issue **one numpy dispatch per instruction**: each
value step is a decode-time closure chain (reader -> op -> dtype check ->
slot store).  This module collapses maximal *memory-free SSA chains* of
fusible value steps inside one decoded block into a single generated
Python function compiled with :func:`compile`, so N dispatches become
one call:

* constant / undef / global-address operands are hoisted once into the
  generated code's namespace as shared read-only arrays (the very
  arrays ``SimtMachine._operand_vec`` hands the interpreter's readers);
* intermediate results live in Python locals; only *liveout* values —
  those with IR uses outside the fused segment — are stored back into
  the context's SSA slot dict, dead temporaries vanish entirely;
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

from ..ir.constants import ConstantFloat, ConstantInt, Undef
from ..ir.function import Function
from ..ir.instructions import (BinaryInst, CallInst, CastInst, FCmpInst,
                               GEPInst, ICmpInst, SelectInst)
from ..ir.values import Argument, GlobalVariable
from ..semantics import NAMESPACE, op_for
from .machine import GEOMETRY, _K_VALUE

#: A fused segment must replace at least this many value steps.  Short
#: chains are a wash: the generated call + liveout slot stores cost about
#: what the specialized per-step closures cost, and measured crossover on
#: the ``benchmarks/perf/kernels/`` microkernels sits between 2 and 4 —
#: below this the fused path can *lose* (the ``divergent`` kernel's
#: 2-step latch), at or above it fusion wins on every shape.
MIN_CHAIN = 4

#: Compiled code objects keyed by ``(filename, source)``.  The generated
#: source is id-free (SSA slot ids are bound through the exec namespace,
#: not embedded as literals), so re-launching the same kernel — bench
#: repeats, sweep cells, serve requests — reuses the ``compile()``
#: result and pays only an ``exec`` per segment.
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


def _step_fusible(step) -> bool:
    meta = step[7]
    return (step[3] == _K_VALUE and meta is not None and len(meta) == 3
            and fusible(meta[2]))


def _liveouts(steps, lo: int, hi: int,
              counts: Dict[int, int]) -> Tuple[int, ...]:
    """1 per step whose value has any IR use outside ``steps[lo:hi]``."""
    inner: Dict[int, int] = {}
    for k in range(lo, hi):
        for op in steps[k][7][2].operands:
            oid = id(op)
            inner[oid] = inner.get(oid, 0) + 1
    return tuple(
        1 if counts.get(steps[k][7][0], 0) > inner.get(steps[k][7][0], 0)
        else 0
        for k in range(lo, hi))


def find_segments(steps, counts: Dict[int, int]
                  ) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
    """Maximal runs of >= MIN_CHAIN consecutive fusible value steps.

    Returns ``(lo, hi, liveouts)`` triples over ``steps`` indices; any
    memory / void / non-fusible step breaks the run.
    """
    segments: List[Tuple[int, int, Tuple[int, ...]]] = []
    start: Optional[int] = None
    for i, step in enumerate(steps):
        if _step_fusible(step):
            if start is None:
                start = i
            continue
        if start is not None and i - start >= MIN_CHAIN:
            segments.append((start, i, _liveouts(steps, start, i, counts)))
        start = None
    if start is not None and len(steps) - start >= MIN_CHAIN:
        segments.append((start, len(steps),
                         _liveouts(steps, start, len(steps), counts)))
    return tuple(segments)


class FuseContext:
    """Per-function fusion state threaded through region compilation.

    Each block is analysed once, the first time a trace through it
    compiles.
    """

    def __init__(self, machine, func: Function) -> None:
        self.machine = machine
        self.func = func
        self._counts: Optional[Dict[int, int]] = None
        self._segments: Dict[int, Tuple] = {}

    def segments_for(self, db) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
        segments = self._segments.get(db.block_id)
        if segments is None:
            if self._counts is None:
                self._counts = use_counts(self.func)
            segments = self._segments[db.block_id] = find_segments(
                db.steps, self._counts)
        return segments

    def compile_segment(self, db, lo: int, hi: int, live):
        return compile_segment(self.machine, self.func.name, db, lo, hi,
                               live)


# -- code generation ---------------------------------------------------------

def compile_segment(machine, func_name: str, db, lo: int, hi: int, live):
    """Generate + compile one fused segment over ``db.steps[lo:hi]``.

    Returns ``(fn, names, stored)``: the generated
    ``fn(ctx, args, values)`` callable, an ``id -> %name`` map for
    undefined-value diagnostics, and the ``(iid, dtype)`` pairs the
    function stores into the SSA slot dict (the liveouts).
    """
    steps = db.steps
    insts = [steps[k][7][2] for k in range(lo, hi)]

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

    # SSA slot ids are bound through the namespace (``values[s0]``), not
    # embedded as int literals, so the generated source is identical
    # across re-parses of the same kernel and _CODE_CACHE can reuse the
    # compiled code object.
    slots: Dict[int, str] = {}

    def slot(vid: int) -> str:
        name = slots.get(vid)
        if name is None:
            name = f"s{len(slots)}"
            slots[vid] = name
            ns[name] = vid
        return name

    local: Dict[int, str] = {}      # id(inst) -> segment-local var
    fresh: Dict[int, bool] = {}     # local holds a freshly-owned array
    liveflag: Dict[int, bool] = {}  # local was stored to values[]
    dtypes: Dict[int, object] = {}
    last_read: Dict[int, int] = {}  # id(value) -> last step index reading it
    names: Dict[int, str] = {}      # values[]-read ids -> %name (diagnostics)
    for j, inst in enumerate(insts):
        for value in inst.operands:
            last_read[id(value)] = j

    def operand(value) -> str:
        vid = id(value)
        name = local.get(vid)
        if name is not None:
            return name
        if isinstance(value, (ConstantInt, ConstantFloat, Undef,
                              GlobalVariable)):
            key = hoisted.get(vid)
            if key is None:
                key = f"K{len(hoisted)}"
                hoisted[vid] = key
                # The very array the interpreter's readers hold.
                ns[key] = machine._operand_vec(value)
            return key
        if isinstance(value, Argument):
            return f"args[{slot(vid)}]"
        names[vid] = value.name
        return f"values[{slot(vid)}]"

    def const_clamp(clamp: str, value) -> Optional[str]:
        """Precompute an op's shift-amount clamp of a constant amount.

        Shift amounts are almost always literals; clamping the same
        constant array on every iteration is pure loop-invariant work.
        The hoisted array is exactly what evaluating ``clamp`` in place
        would produce, so values are untouched.
        """
        if not isinstance(value, (ConstantInt, Undef)):
            return None
        arr = eval(clamp.format(b="b"), NAMESPACE,
                   {"b": machine._operand_vec(value)})
        arr.setflags(write=False)
        return hoist(arr, "P")

    def reuse_target(inst, j: int, a: str, b: str, dt) -> Optional[str]:
        # A dead (non-liveout), fresh, same-dtype operand temporary whose
        # last read is this very step can absorb the result in place.
        for val, expr in zip(inst.operands, (a, b)):
            vid = id(val)
            if (local.get(vid) == expr and fresh.get(vid)
                    and not liveflag.get(vid) and last_read.get(vid) == j
                    and dtypes.get(vid) == dt):
                return expr
        return None

    def inline(op, inst, j: int, srcs: List[str], dt) -> str:
        subst = dict(zip("abc", srcs))
        if op.clamp:
            subst["s"] = (const_clamp(op.clamp, inst.operands[1])
                          or op.clamp.format(b=srcs[1]))
        expr = op.expr.format(**subst)
        tgt = reuse_target(inst, j, *srcs, dt) if op.ufunc else None
        if tgt is None:
            return f"({expr})"
        a, b = srcs
        other = b if tgt == a else a
        # Guard on shape: ufunc out= cannot broadcast the output.
        return (f"({op.ufunc}({a}, {b}, out={tgt}) "
                f"if {tgt}.shape == {other}.shape else {expr})")

    lines: List[str] = ["def _fused(ctx, args, values):"]
    stored: List[Tuple[int, object]] = []
    for j, inst in enumerate(insts):
        meta = steps[lo + j][7]
        iid, dt = meta[0], meta[1]
        is_call = isinstance(inst, CallInst)
        if is_call and inst.intrinsic.name in GEOMETRY:
            expr = f"ctx.{GEOMETRY[inst.intrinsic.name]}"
        else:
            op = op_for(inst)
            srcs = [operand(v) for v in inst.operands]
            if op.expr:
                expr = inline(op, inst, j, srcs, dt)
            else:
                expr = f"{hoist(op.kernel, 'F')}({', '.join(srcs)})"

        var = f"v{j}"
        lines.append(f"    {var} = {expr}")
        # The table's kernels return the result's storage dtype; only an
        # intrinsic call (free declared type) may need normalising, as
        # the unfused executor does after every step.
        if is_call:
            dn = hoist(dt, "D")
            lines.append(f"    if {var}.dtype != {dn}:")
            lines.append(f"        {var} = {var}.astype({dn})")
        if live[j]:
            lines.append(f"    values[{slot(iid)}] = {var}")
            stored.append((iid, dt))
        local[iid] = var
        # Casts may return views, geometry is a shared read-only array,
        # an intrinsic may pass an input through: never out= targets.
        fresh[iid] = not isinstance(inst, (CastInst, CallInst))
        liveflag[iid] = bool(live[j])
        dtypes[iid] = dt

    src = "\n".join(lines) + "\n"
    filename = f"<fused:{func_name}:{db.name}:{lo}>"
    code = _CODE_CACHE.get((filename, src))
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(src, filename, "exec")
        _CODE_CACHE[(filename, src)] = code
    exec(code, ns)
    return ns["_fused"], names, tuple(stored)
