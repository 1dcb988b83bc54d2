"""Tests for constant folding, the op-semantics table, pass manager, and
pipelines."""

import itertools
import math
import time

import numpy as np
import pytest

from repro.gpu import Memory, SimtMachine
from repro.obs import metrics
from repro.ir import (Argument, BinaryInst, CallInst, CastInst,
                      ConstantFloat, ConstantInt, FCmpInst, GEPInst, ICmpInst,
                      SelectInst, Undef, format_instruction, parse_function,
                      parse_module, verify_module)
from repro.ir import types as T
from repro.ir.instructions import CAST_OPS
from repro.ir.instructions import FLOAT_BINOPS as T_FLOAT_BINOPS
from repro.ir.instructions import INT_BINOPS as T_INT_BINOPS
from repro.obs import session as obs
from repro.semantics import TABLE, op_for, storage_dtype
from repro.transforms import (CONFIGS, CompileTimeout, DeadCodeElimination,
                              FixpointPassManager, PassManager, SimplifyCFG,
                              build_pipeline, compile_module)
from repro.transforms.fold import fold_instruction
from repro.transforms.instcombine import InstCombine
from repro.transforms.sccp import SparseConditionalConstantPropagation
from tests.conftest import engine_named

TYPES = {"i1": T.I1, "i8": T.I8, "i32": T.I32, "i64": T.I64,
         "f32": T.F32, "f64": T.F64}


def _const(ty, value):
    type_ = TYPES[ty]
    return (ConstantFloat if type_.is_float else ConstantInt)(type_, value)


def _instruction(key, operands, to=None):
    """The instruction a TABLE key names, over ``operands``."""
    kind, _, sub = key.partition(" ")
    if kind == "icmp":
        return ICmpInst(sub, *operands)
    if kind == "fcmp":
        return FCmpInst(sub, *operands)
    if kind == "call":
        return CallInst(sub, operands, operands[0].type)
    if kind == "select":
        return SelectInst(*operands)
    if kind in CAST_OPS:
        return CastInst(kind, operands[0], TYPES[to])
    if kind == "gep":
        return GEPInst(*operands)
    return BinaryInst(kind, *operands)


def fold(key, *operands, to=None):
    """``fold_instruction`` on ``key`` over constant operands."""
    inst = _instruction(key, list(operands), to)
    try:
        return fold_instruction(inst)
    finally:
        inst.drop_all_operands()  # Constants are interned: leave no uses.


class TestIntFold:
    def test_wrapping_add(self):
        assert fold("add", _const("i8", 120), _const("i8", 10)).value == -126

    def test_sdiv_truncates(self):
        assert fold("sdiv", _const("i64", -7), _const("i64", 2)).value == -3

    def test_srem_sign(self):
        assert fold("srem", _const("i64", -7), _const("i64", 3)).value == -1

    def test_division_by_zero_not_folded(self):
        a, z = _const("i64", 1), _const("i64", 0)
        assert fold("sdiv", a, z) is None
        assert fold("urem", a, z) is None

    def test_unsigned_ops(self):
        a = _const("i8", -1)     # 255 unsigned.
        assert fold("udiv", a, _const("i8", 2)).value == 127
        assert fold("lshr", a, _const("i8", 4)).value == 15

    def test_oversized_shift_not_folded(self):
        assert fold("shl", _const("i8", 1), _const("i8", 9)) is None

    @pytest.mark.parametrize("pred,expected", [
        ("slt", True), ("sgt", False), ("eq", False), ("ne", True),
        ("ult", False), ("ugt", True),  # -1 is huge unsigned.
    ])
    def test_icmp(self, pred, expected):
        folded = fold(f"icmp {pred}", _const("i64", -1), _const("i64", 1))
        assert folded.value == (1 if expected else 0)


class TestFloatFold:
    def test_arith(self):
        assert fold("fmul", _const("f64", 1.5), _const("f64", 2.0)).value == 3.0

    def test_nan_unordered_compare(self):
        nan, one = _const("f64", float("nan")), _const("f64", 1.0)
        assert fold("fcmp olt", nan, one).value == 0
        assert fold("fcmp ult", nan, one).value == 1
        assert fold("fcmp une", nan, nan).value == 1


SIMPLE = """
define i64 @f(i64 %x) {
entry:
  %dead = add i64 %x, 0
  ret i64 %x
}
"""


BRANCHY = """
define i64 @f(i64 %x) {
entry:
  %zero = sub i64 %x, %x
  %c = icmp eq i64 %zero, 0
  br i1 %c, label %a, label %b
a:
  %p = add i64 %x, 0
  br label %join
b:
  %q = mul i64 %x, 2
  br label %join
join:
  %m = phi i64 [ %p, %a ], [ %q, %b ]
  %dead = add i64 %m, 1
  ret i64 %m
}
"""


class Vandal:
    name = "vandal"

    def run(self, func):
        func.entry.instructions[-1].erase_from_parent()
        return True


class TestPassManager:
    def test_stats_recorded(self):
        f = parse_function(SIMPLE)
        pm = PassManager([DeadCodeElimination(), SimplifyCFG()])
        pm.run_function(f)
        assert pm.stats.runs["dce"] == 1
        assert pm.stats.times["dce"] >= 0
        assert pm.stats.changes.get("dce") == 1
        assert pm.stats.dominant_pass() in ("dce", "simplifycfg")

    @pytest.mark.parametrize("manager, text, runs, changes", [
        (PassManager, SIMPLE, {"dce": 1, "simplifycfg": 1}, {"dce": 1}),
        # Second round: dce confirms no change, simplifycfg — clean since
        # the last mutation — is skipped and not recorded.
        (FixpointPassManager, SIMPLE, {"dce": 2, "simplifycfg": 1},
         {"dce": 1}),
        (PassManager, BRANCHY,
         {"instcombine": 1, "sccp": 1, "simplifycfg": 1, "dce": 1},
         {"instcombine": 1, "simplifycfg": 1, "dce": 1}),
        (FixpointPassManager, BRANCHY,
         {"instcombine": 2, "sccp": 2, "simplifycfg": 2, "dce": 2},
         {"instcombine": 1, "simplifycfg": 1, "dce": 1}),
    ])
    def test_both_loops_record_every_application(self, manager, text, runs,
                                                 changes):
        """The straight-line and the fixpoint loop apply a pass in one
        place; the names, runs and changes are PR 17's, as literals."""
        passes = ([DeadCodeElimination(), SimplifyCFG()] if text is SIMPLE
                  else [InstCombine(), SparseConditionalConstantPropagation(),
                        SimplifyCFG(), DeadCodeElimination()])
        pm = manager(passes)
        with obs.capture() as session:
            pm.run_function(parse_function(text))
        assert pm.stats.runs == runs
        assert pm.stats.changes == changes
        assert set(pm.stats.times) == set(runs)
        # One span per recorded application, with the IR delta; only the
        # fixpoint's say which iteration.
        spans = [e for e in session.tracer.events if e.get("cat") == "pass"]
        assert [e["name"] for e in spans].count("dce") == runs["dce"]
        assert len(spans) == sum(runs.values())
        keys = {"function", "changed", "insts_before", "insts_after",
                "blocks_before", "blocks_after"}
        if manager is FixpointPassManager:
            keys.add("iteration")
            assert [e["args"]["iteration"] for e in spans
                    if e["name"] == "dce"] == [0, 1]
        assert all(set(e["args"]) == keys for e in spans)

    def test_fixpoint_checks_budget_and_verify_each_too(self):
        pm = FixpointPassManager([DeadCodeElimination()])
        pm.deadline = time.perf_counter() - 1.0
        with pytest.raises(CompileTimeout):
            pm.run_function(parse_function(SIMPLE))
        assert not pm.stats.runs
        pm = FixpointPassManager([Vandal()], verify_each=True)
        with pytest.raises(AssertionError, match="pass vandal broke @f"):
            pm.run_function(parse_function(SIMPLE))

    def test_fixpoint_stops(self):
        f = parse_function(SIMPLE)
        pm = FixpointPassManager([DeadCodeElimination()], max_iterations=8)
        pm.run_function(f)
        # First round removes the dead add, second confirms no change.
        assert pm.stats.runs["dce"] == 2

    def test_deadline_raises(self):
        f = parse_function(SIMPLE)
        pm = PassManager([DeadCodeElimination()])
        pm.deadline = time.perf_counter() - 1.0
        with pytest.raises(CompileTimeout):
            pm.run_function(f)

    def test_verify_each_catches_breakage(self):
        f = parse_function(SIMPLE)
        pm = PassManager([Vandal()], verify_each=True)
        with pytest.raises(AssertionError, match="vandal"):
            pm.run_function(f)


class TestPipelines:
    def test_all_configs_buildable(self):
        for config in CONFIGS:
            pipeline = build_pipeline(config, loop_id="f:0", factor=2)
            assert pipeline.passes

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            build_pipeline("o9000")

    def test_per_loop_configs_require_loop_id(self):
        for config in ("uu", "unroll", "unmerge"):
            with pytest.raises(ValueError):
                build_pipeline(config)

    def test_compile_module_reports(self):
        module = parse_module(SIMPLE, "m")
        result = compile_module(module, "baseline")
        assert result.config == "baseline"
        assert result.code_size > 0
        assert result.compile_seconds > 0
        assert not result.timed_out

    def test_compile_timeout_flag(self):
        module = parse_module(SIMPLE, "m")
        result = compile_module(module, "baseline", timeout_seconds=-1.0)
        assert result.timed_out
        verify_module(module)  # Timed-out modules stay structurally valid.


# -- the op-semantics table: one oracle over every evaluator ------------------
#
# ``repro.semantics.TABLE`` is the single home of value semantics; the
# constant folder, the per-warp interpreter, the batched lattice and the
# jit's fused segments all evaluate its kernels.  ``assert_agreement``
# runs one table entry over a set of operand rows through all four and
# demands the same bits everywhere (and ``None`` from the folder exactly
# where its refusal rules say so).

INT = ("i1", "i8", "i32", "i64")
FLT = ("f32", "f64")
TYPES.update({f"{ty}*": T.pointer(TYPES[ty])
              for ty in ("i8", "i32", "i64", "f32", "f64")})

_WIDENINGS = [("i1", "i8"), ("i1", "i64"), ("i8", "i32"), ("i8", "i64"),
              ("i32", "i64")]
#: Cast entry -> the (from, to) pairs it is defined on.
CASTS = {
    "trunc": [("i64", "i32"), ("i64", "i8"), ("i64", "i1"), ("i32", "i8"),
              ("i8", "i1")],
    "zext": _WIDENINGS,
    "sext": _WIDENINGS,
    "sitofp": [(i, f) for i in INT for f in FLT],
    "uitofp": [(i, f) for i in INT for f in FLT],
    "fptosi": [(f, i) for f in FLT for i in INT],
    "fpext": [("f32", "f64")],
    "fptrunc": [("f64", "f32")],
    "bitcast": [(i, i) for i in INT],
    "ptrtoint": [("i64*", "i64")],
    "inttoptr": [("i64", "i64*")],
}
#: Intrinsic entry -> (arity, operand types).
INTRINSICS = {
    **{name: (1, FLT) for name in ("sqrt", "fabs", "exp", "log", "sin",
                                   "cos", "atan", "floor")},
    "pow": (2, FLT), "fma": (3, FLT), "fmin": (2, FLT), "fmax": (2, FLT),
    "min": (2, INT[1:]), "max": (2, INT[1:]),
}


def signatures(key):
    """``[(operand types, cast target), ...]`` a TABLE entry is run at."""
    kind, _, sub = key.partition(" ")
    if kind in CASTS:
        return [((src,), dst) for src, dst in CASTS[kind]]
    if kind == "call" and sub in INTRINSICS:
        arity, tys = INTRINSICS[sub]
        return [((ty,) * arity, None) for ty in tys]
    if kind == "select":
        return [(("i1", ty, ty), None) for ty in INT + FLT]
    if kind == "gep":
        return [((ty, "i64"), None) for ty in TYPES if ty.endswith("*")]
    if kind in ("icmp",) + T_INT_BINOPS:
        return [((ty, ty), None) for ty in INT]
    if kind in ("fcmp",) + T_FLOAT_BINOPS:
        return [((ty, ty), None) for ty in FLT]
    return []


def edge_values(ty):
    """Edge operands of one type (ISSUE 13's list)."""
    type_ = TYPES[ty]
    if ty == "i1":
        return [0, 1]
    if type_.is_float:
        return [0.0, -0.0, 1.0, -1.0, 1.5, -123.9, 3.0e12, 1e300,
                float(2**53 + 1), float(2**63 - 1),
                float("inf"), float("-inf"), float("nan")]
    bits = 64 if type_.is_pointer else type_.bits
    values = [0, 1, -1, -(1 << (bits - 1)), (1 << (bits - 1)) - 1, 5, -7,
              bits - 1, bits]       # In- and over-range shift amounts.
    return values + [2**53 + 1] if bits == 64 else values


def edge_rows(tys):
    columns = [edge_values(ty) for ty in tys]
    if len(columns) == 3:           # Keep ternary products launchable.
        columns = [c[:7] for c in columns]
    return [list(row) for row in itertools.product(*columns)]


def _memory_type(ty):
    """What a value of ``ty`` travels through simulated memory as."""
    return "i8" if ty == "i1" else "i64" if ty.endswith("*") else ty


def _kernel(key, tys, to):
    """IR text running ``key`` once per lane, plus its result type name.

    Operands are loaded per lane (so nothing is constant), the entry
    under test heads a chain of four memory-free steps (so the jit fuses
    it), and the result is stored per lane.
    """
    params, prologue, loads, operands = [], [], [], []
    for n, ty in enumerate(tys):
        mem = _memory_type(ty)
        params.append(f"{mem}* %p{n}")
        prologue.append(f"  %a{n} = gep {mem}* %p{n}, i64 %tid")
        loads.append(f"  %m{n} = load {mem}, {mem}* %a{n}")
        if ty == "i1":
            loads.append(f"  %x{n} = icmp ne i8 %m{n}, 0")
        elif ty.endswith("*"):
            loads.append(f"  %x{n} = inttoptr i64 %m{n} to {ty}")
        operands.append(Argument(TYPES[ty], f"x{n}" if mem != ty else f"m{n}",
                                 n))
    inst = _instruction(key, operands, to)
    inst.name = "r"
    result = repr(inst.type)
    body = [f"  {format_instruction(inst)}"]
    inst.drop_all_operands()
    out = _memory_type(result)
    if result == "i1":
        body.append("  %z = zext i1 %r to i8")
    elif result.endswith("*"):
        body.append(f"  %z = ptrtoint {result} %r to i64")
    stored = "%r" if out == result else "%z"
    text = "\n".join(
        [f"define void @k({', '.join(params)}, {out}* %out) {{", "entry:",
         "  %tid = call i64 @tid.x()"] + prologue + loads + body +
        ["  %t1 = add i64 %tid, 0", "  %t2 = add i64 %t1, 0",
         f"  %po = gep {out}* %out, i64 %t2",
         f"  store {out} {stored}, {out}* %po", "  ret void", "}"])
    return text, result


def _lanes(text, tys, result, rows, engine):
    """Run the kernel over ``rows`` (one per lane); the result column."""
    lanes = max(64, -(-len(rows) // 32) * 32)   # >= 2 warps: really batched.
    rows = rows + [rows[0]] * (lanes - len(rows))
    memory = Memory()
    args = []
    for n, ty in enumerate(tys):
        mem = _memory_type(ty)
        with np.errstate(over="ignore"):    # 1e300 as an f32 row is inf.
            column = np.array([row[n] for row in rows],
                              dtype=storage_dtype(TYPES[mem]))
        args.append(memory.alloc(f"p{n}", mem, lanes, init=column))
    args.append(memory.alloc("out", _memory_type(result), lanes))
    with engine_named(engine) as name:
        machine = SimtMachine(parse_module(text, "k"), memory, engine=name)
        machine.launch("k", 1, lanes, args)
    return memory.read_back("out")


def _refused(key, tys, row):
    """The folder's documented refusals (everything else must fold)."""
    kind = key.partition(" ")[0]
    if kind in ("gep", "ptrtoint", "inttoptr"):
        return True
    if kind in ("sdiv", "udiv", "srem", "urem"):
        return row[1] == 0
    if kind in ("shl", "lshr", "ashr"):
        return not 0 <= TYPES[tys[0]].to_unsigned(row[1]) < TYPES[tys[0]].bits
    return False


def _bits_of(value, dtype):
    return np.array([value], dtype=dtype).tobytes()


def assert_agreement(key, tys, rows, to=None):
    """Folder == warp lane == batched lane == fused-segment lane."""
    text, result = _kernel(key, tys, to)
    registry = metrics.install()
    try:
        columns = {engine: _lanes(text, tys, result, rows, engine)
                   for engine in ("warp", "batched", "jit")}
    finally:
        metrics.uninstall()
    assert metrics.jit_counts(registry)["fused_steps"] >= 4, \
        f"{key} {tys}: the jit did not fuse the entry under test"
    reference = columns["warp"]
    for engine in ("batched", "jit"):
        assert columns[engine].tobytes() == reference.tobytes(), \
            f"{key} {tys}: {engine} lanes differ from warp lanes"
    for lane, row in enumerate(rows):
        operands = [Undef(TYPES[ty]) if ty.endswith("*") else _const(ty, v)
                    for ty, v in zip(tys, row)]
        folded = fold(key, *operands, to=to)
        label = f"{key} {tys}->{result} {row}"
        if _refused(key, tys, row):
            assert folded is None, f"{label}: folder no longer refuses"
            continue
        assert folded is not None, f"{label}: folder refused"
        assert _bits_of(folded.value, reference.dtype) == \
            reference[lane].tobytes(), \
            f"{label}: folder {folded.value!r} != lane {reference[lane]!r}"


# fptrunc of 1e300 overflows to inf, as it always has at runtime.
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("key", sorted(TABLE))
def test_every_table_entry_agrees_across_evaluators(key, tier_up_at_once):
    sigs = signatures(key)
    assert sigs, f"TABLE entry {key!r} has no operand rows in this test"
    for tys, to in sigs:
        assert_agreement(key, tys, edge_rows(tys), to)


def test_kernels_return_the_result_storage_dtype():
    """The table's dtype contract (what lets the fuser skip the per-step
    normalisation): storage-dtype operands in, storage-dtype result out."""
    for key in sorted(TABLE):
        if key.startswith("call "):
            continue
        for tys, to in signatures(key):
            operands = [Argument(TYPES[ty], f"x{n}", n)
                        for n, ty in enumerate(tys)]
            inst = _instruction(key, operands, to)
            with np.errstate(all="ignore"):     # As every evaluator holds.
                out = op_for(inst).kernel(*[
                    np.zeros(4, dtype=storage_dtype(v.type))
                    for v in operands])
            assert out.dtype == storage_dtype(inst.type), (key, tys, to)


# -- literal-value rows: pinned results, checked through the same oracle -----

def _fdiv(a, b):
    return fold("fdiv", _const("f64", a), _const("f64", b)).value


class TestIEEEDivisionFold:
    """fdiv/frem folds follow IEEE 754, zero divisors included — the
    interpreter's numpy semantics, not Python's ZeroDivisionError."""

    def test_sign_of_zero_divisor_selects_infinity(self):
        assert _fdiv(1.5, -0.0) == float("-inf")
        assert _fdiv(1.5, 0.0) == float("inf")
        assert _fdiv(-2.0, 0.0) == float("-inf")

    def test_negative_zero_result_keeps_its_sign(self):
        r = _fdiv(-0.0, 5.0)
        assert r == 0.0
        assert math.copysign(1.0, r) == -1.0

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(_fdiv(0.0, -0.0))
        assert math.isnan(_fdiv(-0.0, 0.0))
        assert math.isnan(_fdiv(float("nan"), 2.0))

    def test_frem_is_total_on_infinite_numerator(self):
        r = fold("frem", _const("f64", float("inf")), _const("f64", 2.0)).value
        assert math.isnan(r)


class TestFptosiSaturation:
    """fptosi folds saturate exactly like the interpreter."""

    def _cast(self, value, to):
        return fold("fptosi", _const("f64", value), to=to).value

    def test_nan_is_zero(self):
        assert self._cast(float("nan"), "i32") == 0

    def test_infinities_clamp(self):
        assert self._cast(float("inf"), "i32") == 2**31 - 1
        assert self._cast(float("-inf"), "i32") == -(2**31)

    def test_out_of_range_clamps(self):
        assert self._cast(3.0e12, "i32") == 2**31 - 1
        assert self._cast(-3.0e12, "i32") == -(2**31)
        assert self._cast(9.3e18, "i64") == 2**63 - 1
        assert self._cast(-9.3e18, "i64") == -(2**63)

    def test_int64_max_rounding_edge(self):
        # float(2**63 - 1) rounds *up* to 2**63; the clamp must still
        # produce INT64_MAX, not wrap.
        assert self._cast(float(2**63 - 1), "i64") == 2**63 - 1

    def test_in_range_truncates_toward_zero(self):
        assert self._cast(-123.9, "i32") == -123
        assert self._cast(123.9, "i32") == 123


class TestShiftAgreement:
    """Folder and every engine agree on in-range shifts at every width
    (the rows this class enumerated before the table oracle existed)."""

    @pytest.mark.parametrize("op", ["shl", "lshr", "ashr"])
    @pytest.mark.parametrize("ty", INT)
    def test_machine_matches_folder(self, op, ty, tier_up_at_once):
        bits = TYPES[ty].bits
        values = sorted({TYPES[ty].wrap(v) for v in
                         (0, 1, -1, 5, -7, (1 << (bits - 1)) - 1,
                          -(1 << (bits - 1)))})
        amounts = sorted({a for a in (0, 1, bits // 2, bits - 1)
                          if a < bits})
        assert_agreement(op, (ty, ty),
                         [[x, s] for x in values for s in amounts])
