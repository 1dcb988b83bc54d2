"""Unit tests for values, def-use chains and constants."""

import gc
import sys
import threading

import pytest

from repro.bench import benchmark_by_name
from repro.frontend.lower import lower_kernels
from repro.fuzz.generator import generate_kernel
from repro.fuzz.oracle import BARE_MAX_INSTRUCTIONS
from repro.ir import (FALSE, TRUE, ConstantFloat, ConstantInt, IRBuilder,
                      Module, Undef, bool_const, const)
from repro.ir import types as T
from repro.ir.instructions import Instruction
from repro.ir.printer import print_module
from repro.ir.values import Use, User, Value
from repro.ir.verifier import verify_module
from repro.transforms.pipeline import compile_module


def make_func():
    m = Module("t")
    f = m.add_function("f", T.FunctionType(T.I64, (T.I64, T.I64)), ["a", "b"])
    block = f.add_block("entry")
    return m, f, block


class TestDefUse:
    def test_operands_register_uses(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], f.args[1], "x")
        assert f.args[0].num_uses == 1
        assert f.args[1].num_uses == 1
        assert x.operands[0] is f.args[0]

    def test_replace_all_uses_with(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], 1, "x")
        y = b.mul(x, x, "y")
        x.replace_all_uses_with(f.args[1])
        assert y.operands[0] is f.args[1]
        assert y.operands[1] is f.args[1]
        assert x.num_uses == 0
        assert f.args[1].num_uses == 2

    def test_same_value_in_multiple_slots(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        y = b.mul(f.args[0], f.args[0], "y")
        assert f.args[0].num_uses == 2
        assert len(list(f.args[0].users())) == 1

    def test_set_operand_updates_uses(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], f.args[1], "x")
        x.set_operand(0, f.args[1])
        assert f.args[0].num_uses == 0
        assert f.args[1].num_uses == 2

    def test_erase_drops_operand_uses(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], f.args[1], "x")
        x.erase_from_parent()
        assert f.args[0].num_uses == 0
        assert x.parent is None
        assert len(block.instructions) == 0


class TestConstants:
    def test_int_interning(self):
        assert ConstantInt(T.I64, 5) is ConstantInt(T.I64, 5)
        assert ConstantInt(T.I64, 5) is not ConstantInt(T.I32, 5)

    def test_int_wrapping_at_construction(self):
        c = ConstantInt(T.I8, 255)
        assert c.value == -1
        assert c.unsigned() == 255

    def test_bool_constants(self):
        assert bool_const(True) is TRUE
        assert bool_const(False) is FALSE
        assert TRUE.is_true and FALSE.is_false

    def test_float_interning(self):
        assert ConstantFloat(T.F64, 1.5) is ConstantFloat(T.F64, 1.5)

    def test_f32_rounding(self):
        c = ConstantFloat(T.F32, 0.1)
        import struct

        assert c.value == struct.unpack("f", struct.pack("f", 0.1))[0]

    def test_negative_zero_distinct(self):
        pos = ConstantFloat(T.F64, 0.0)
        neg = ConstantFloat(T.F64, -0.0)
        assert pos is not neg

    def test_undef_interned(self):
        assert Undef(T.I64) is Undef(T.I64)
        assert Undef(T.I64) is not Undef(T.F64)

    def test_const_dispatch(self):
        assert isinstance(const(T.I32, 3), ConstantInt)
        assert isinstance(const(T.F64, 3.0), ConstantFloat)
        with pytest.raises(TypeError):
            const(T.PointerType(T.I8), 0)


class TestGlobals:
    def test_global_type_is_pointer(self):
        m = Module("g")
        gv = m.add_global("table", T.F64, 128)
        assert gv.type is T.PointerType(T.F64)
        assert gv.count == 128
        assert m.get_global("table") is gv

    def test_duplicate_global_rejected(self):
        m = Module("g")
        m.add_global("x", T.I64, 1)
        with pytest.raises(ValueError):
            m.add_global("x", T.I64, 1)


class TestConstantsKeepNoUseList:
    """Interned constants live as long as the process and are shared by
    every module and thread: a use-list on them would pin every instruction
    that ever held ``i32 0`` and be mutated by concurrent compiles."""

    @staticmethod
    def _interned():
        return [c for cls in (ConstantInt, ConstantFloat, Undef)
                for c in cls._cache.values()]

    @staticmethod
    def _alive(*classes):
        gc.collect()
        return sum(isinstance(o, classes) for o in gc.get_objects())

    def test_uses_stay_empty(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], 1, "x")
        one = x.operands[1]
        assert one is ConstantInt(T.I64, 1)
        assert one.uses == [] and not one.is_used
        x.set_operand(1, ConstantInt(T.I64, 2))     # remove_use is a no-op too
        x.erase_from_parent()
        for bench in ("XSBench", "complex"):
            compile_module(benchmark_by_name(bench).build_module(),
                           "uu_heuristic", verify_each=True)
        used = [c for c in self._interned() if c.uses]
        assert not used, used[:5]

    def test_dropped_module_is_collected(self):
        before = self._alive(Instruction, Use)
        module = benchmark_by_name("XSBench").build_module()
        compile_module(module, "uu_heuristic")
        assert self._alive(Instruction) > before
        del module
        assert self._alive(Instruction, Use) == before

    def test_concurrent_compiles_share_no_state(self):
        """More threads than cores, each compiling the fuzz kernels the
        perf benchmark's ``serve_mix`` draws from, at a 10 us switch
        interval: every compile finishes and yields the serial IR."""
        kernels = [generate_kernel(seed) for seed in range(24)]

        def compiled(kernel):
            module = lower_kernels([kernel], kernel.name)
            compile_module(module, "uu_heuristic",
                           max_instructions=BARE_MAX_INSTRUCTIONS)
            verify_module(module)
            return print_module(module)

        serial = [compiled(k) for k in kernels]
        results = {}

        def work(tid):
            try:
                order = kernels[8 * tid:] + kernels[:8 * tid]
                results[tid] = sorted(compiled(k) for k in order)
            except Exception as exc:  # noqa: BLE001 — reported below
                results[tid] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(tid,))
                       for tid in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for tid in range(3):
            assert results[tid] == sorted(serial), results[tid]
