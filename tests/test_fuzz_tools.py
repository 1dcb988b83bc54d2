"""Fuzz tooling tests: oracle, bisector, and reducer on a known miscompile.

The miscompile is *injected* at a folder-only seam: the folder and the
interpreter evaluate the same kernels of ``repro.semantics``, so the
folder's own binding of the table lookup (``repro.transforms.fold.op_for``)
is monkeypatched to hand out the pre-fix truncating ``fptosi`` (C-cast
wrapping instead of the saturating contract) while the interpreter keeps
the real one.  Constant folding then disagrees with runtime execution on
out-of-range ``fptosi`` — exactly the class of bug the fuzzing subsystem
exists to catch — and the tools must (a) flag it, (b) name the folding
pass, and (c) shrink the repro.
"""

import numpy as np

import pytest

from repro import semantics
from repro.frontend.ast import (Assign, BinOp, Call, Cast, Cmp, For, If,
                                KernelDef, Lit, Param, Return, V)
from repro.fuzz.bisect import bisect_divergence
from repro.fuzz.oracle import (BARE_MAX_INSTRUCTIONS, ConfigSpec,
                               run_differential, subject_from_kernel)
from repro.fuzz.reduce import (block_count, first_failure, reduce_failure,
                               statement_count)
from repro.ir import ConstantInt
from repro.obs import session as obs
from repro.transforms import pipeline
from repro.transforms.pass_manager import PassStatistics
from repro.transforms.pipeline import compile_module

#: The poisoned constant: far outside i32 range, so the saturating
#: interpreter clamps to INT32_MAX while the buggy folder wraps.
BIG = 3.0e12


def _broken_op_for(inst):
    """The table lookup, except ``fptosi`` truncates and wraps."""
    op = semantics.op_for(inst)
    if inst.opcode != "fptosi":
        return op

    def truncating(value):
        finite = np.where(np.isfinite(value), value, 0.0)
        # Exact for |value| < 2^63; ConstantInt wraps it to the width.
        return finite.astype(np.int64)
    return op._replace(kernel=truncating)


def _poison_kernel() -> KernelDef:
    """Small structured kernel whose only bug is the poisoned constant."""
    body = [
        Assign("a", Cast("i32", BinOp("&", V("seed"), Lit(255)))),
        For("i", Lit(0), Lit(4),
            [Assign("a", BinOp("+", V("a"), Cast("i32", V("i"))))]),
        If(Cmp("<", Cast("i32", Call("tid.x")), Lit(7)),
           [Assign("a", BinOp("*", V("a"), Lit(3)))],
           [Assign("a", BinOp("-", V("a"), Lit(1)))]),
        Assign("x", Cast("i32", Lit(BIG, "f64"))),
        Return(BinOp("^", Cast("i64", V("a")), Cast("i64", V("x")))),
    ]
    return KernelDef("poison", [Param("seed", "i64"), Param("noise", "f64")],
                     body, "i64")


@pytest.fixture
def broken_fold(monkeypatch):
    monkeypatch.setattr("repro.transforms.fold.op_for", _broken_op_for)


class TestOracleCatchesInjectedBug:
    def test_clean_without_injection(self):
        report = run_differential(subject_from_kernel(_poison_kernel()))
        assert report.ok, "\n".join(o.describe() for o in report.failures)

    def test_all_configs_mismatch_with_injection(self, broken_fold):
        report = run_differential(subject_from_kernel(_poison_kernel()))
        assert not report.ok
        # The cleanup battery folds the constant in every configuration,
        # including baseline: the unoptimized reference is the anchor.
        baseline = next(o for o in report.outcomes
                        if o.spec.config == "baseline")
        assert not baseline.ok
        assert baseline.kind == "mismatch"
        assert "lane" in baseline.detail


class TestBisector:
    def test_names_the_folding_pass(self, broken_fold):
        subject = subject_from_kernel(_poison_kernel())
        result = bisect_divergence(subject, ConfigSpec("baseline"))
        assert result is not None
        assert result.kind == "mismatch"
        # Both instcombine and SCCP fold casts; whichever runs first on
        # the poisoned constant is the honest culprit.
        assert result.culprit in ("instcombine", "sccp")
        assert result.step >= 1
        assert result.trail[result.step - 1] == result.culprit

    def test_returns_none_when_clean(self):
        subject = subject_from_kernel(_poison_kernel())
        assert bisect_divergence(subject, ConfigSpec("baseline")) is None


class TestReducer:
    def test_shrinks_to_minimal_repro(self, broken_fold):
        kernel = _poison_kernel()
        report = run_differential(subject_from_kernel(kernel))
        spec = first_failure(report)
        assert spec is not None

        reduced = reduce_failure(kernel, spec)
        # The loop and the divergent branch are noise; only the poisoned
        # cast and the return can remain interesting.
        assert statement_count(reduced.body) < statement_count(kernel.body)
        assert statement_count(reduced.body) <= 3
        assert block_count(reduced) <= 15

        # The reduced kernel still reproduces the failure...
        failing = run_differential(subject_from_kernel(reduced))
        assert not failing.ok
        # ...and the bisector still names the same culprit on it.
        found = bisect_divergence(subject_from_kernel(reduced), spec)
        assert found is not None
        assert found.culprit in ("instcombine", "sccp")

    def test_reduction_is_deterministic(self, broken_fold):
        kernel_a = _poison_kernel()
        spec = first_failure(run_differential(subject_from_kernel(kernel_a)))
        reduced_a = reduce_failure(kernel_a, spec)
        reduced_b = reduce_failure(_poison_kernel(), spec)
        assert statement_count(reduced_a.body) == \
            statement_count(reduced_b.body)


class TestBisectorRunsTheRealPipeline:
    """The bisector is ``build_pipeline`` plus checks, so what it replays
    is what a plain compile executes — by construction, pinned here."""

    @pytest.mark.parametrize("spec", [
        ConfigSpec("baseline"), ConfigSpec("uu", "poison:0", 2),
        ConfigSpec("uu_heuristic")], ids=lambda spec: spec.label)
    def test_trail_is_a_prefix_of_the_compile(self, broken_fold, monkeypatch,
                                              spec):
        subject = subject_from_kernel(_poison_kernel())
        found = bisect_divergence(subject, spec)
        assert found is not None and found.step == len(found.trail)

        applied = []
        real = PassStatistics.record

        def spy(stats, name, seconds, changed):
            if name != "cleanup":       # Leaf applications only.
                applied.append(name)
            real(stats, name, seconds, changed)
        monkeypatch.setattr(PassStatistics, "record", spy)
        compile_module(subject.build(), spec.config, loop_id=spec.loop_id,
                       factor=spec.factor,
                       max_instructions=BARE_MAX_INSTRUCTIONS)
        assert len(applied) > len(found.trail)
        assert found.trail == applied[:len(found.trail)]

    def test_follows_a_changed_pipeline(self, monkeypatch):
        class Corrupt:
            name = "corrupt"

            def run(self, func):
                ret = func.blocks[-1].instructions[-1]
                ret.set_operand(0, ConstantInt(ret.operands[0].type, 41))
                return True

        real = pipeline.late_passes
        monkeypatch.setattr(pipeline, "late_passes",
                            lambda: real() + [Corrupt()])
        found = bisect_divergence(subject_from_kernel(_poison_kernel()),
                                  ConfigSpec("baseline"))
        assert found is not None
        assert (found.culprit, found.kind) == ("corrupt", "mismatch")
        assert found.trail[-1] == "corrupt"
        assert found.trail[-2] == "dce"     # The stock late stage's last.

    def test_crash_inside_the_fixpoint(self, monkeypatch):
        class Bomb:
            name = "bomb"

            def run(self, func):
                obs.remark("analysis", "bomb", func.name, "lighting the fuse")
                raise RuntimeError("boom")

        real = pipeline.cleanup_passes
        monkeypatch.setattr(
            pipeline, "cleanup_passes",
            lambda branch_facts=True: real(branch_facts)[:2] + [Bomb()])
        found = bisect_divergence(subject_from_kernel(_poison_kernel()),
                                  ConfigSpec("baseline"))
        assert found is not None
        assert (found.culprit, found.kind) == ("bomb", "crash")
        assert found.detail == "RuntimeError: boom"
        assert found.trail == ["simplifycfg", "instcombine", "gvn", "bomb"]
        assert found.step == 4
        assert [r["message"] for r in found.remarks] == ["lighting the fuse"]
