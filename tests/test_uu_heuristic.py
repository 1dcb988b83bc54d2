"""Tests for the combined u&u pass and the selection heuristic."""

import pytest

from repro.analysis import LoopInfo
from repro.ir import Module, parse_function, verify_function
from repro.transforms import (ApplyPlan, HeuristicParams, apply_uu,
                              choose_factor, select_loops, uu_applicable)
from repro.transforms.heuristic import LoopDecision

BRANCHY_LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %merge ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %merge ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  %v = phi i64 [ 3, %a ], [ 5, %b ]
  %nacc = add i64 %acc, %v
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""

TWO_BRANCHY_LOOPS = """
define i64 @f(i64 %n) {
entry:
  br label %h1
h1:
  %i = phi i64 [ 0, %entry ], [ %inext, %m1 ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %m1 ]
  %c1 = icmp slt i64 %i, %n
  br i1 %c1, label %b1, label %mid
b1:
  %ibit = and i64 %i, 1
  %iodd = icmp eq i64 %ibit, 1
  br i1 %iodd, label %a1, label %m1
a1:
  br label %m1
m1:
  %v = phi i64 [ 3, %a1 ], [ 5, %b1 ]
  %nacc = add i64 %acc, %v
  %inext = add i64 %i, 1
  br label %h1
mid:
  br label %h2
h2:
  %j = phi i64 [ 0, %mid ], [ %jnext, %m2 ]
  %sum = phi i64 [ %acc, %mid ], [ %nsum, %m2 ]
  %c2 = icmp slt i64 %j, %n
  br i1 %c2, label %b2, label %exit
b2:
  %jbit = and i64 %j, 1
  %jodd = icmp eq i64 %jbit, 1
  br i1 %jodd, label %a2, label %m2
a2:
  br label %m2
m2:
  %w = phi i64 [ 7, %a2 ], [ 11, %b2 ]
  %nsum = add i64 %sum, %w
  %jnext = add i64 %j, 1
  br label %h2
exit:
  ret i64 %sum
}
"""

CONVERGENT_LOOP = """
define void @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %header ]
  call void @syncthreads()
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  br i1 %c, label %header, label %exit
exit:
  ret void
}
"""


class TestChooseFactor:
    def test_largest_factor_within_budget(self):
        params = HeuristicParams(c=1024, u_max=8)
        # p=2, s=10: f(2,10,u) = 10*(2^u - 1); u=6 -> 630 < 1024 < u=7.
        assert choose_factor(2, 10, params) == 6

    def test_none_when_even_factor_two_too_big(self):
        params = HeuristicParams(c=100, u_max=8)
        # p=4, s=30: f(4,30,2) = 150 >= 100.
        assert choose_factor(4, 30, params) is None

    def test_u_max_respected(self):
        params = HeuristicParams(c=10**9, u_max=4)
        assert choose_factor(1, 10, params) == 4

    def test_single_path_loops_grow_linearly(self):
        params = HeuristicParams(c=100, u_max=8)
        # p=1: f(1,s,u) = u*s; s=20 -> u=4 (80 < 100 <= 100 at u=5).
        assert choose_factor(1, 20, params) == 4


class TestApplicability:
    def test_convergent_loop_rejected(self):
        f = parse_function(CONVERGENT_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert not uu_applicable(f, loop)

    def test_pragma_loop_rejected(self):
        f = parse_function(BRANCHY_LOOP)
        f.attributes["loop_pragmas"] = {"f:0": "unroll"}
        loop = LoopInfo.compute(f).loops[0]
        assert not uu_applicable(f, loop)

    def test_normal_loop_accepted(self):
        f = parse_function(BRANCHY_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert uu_applicable(f, loop)


class TestSelectLoops:
    def test_selects_and_reports(self):
        f = parse_function(BRANCHY_LOOP)
        info = LoopInfo.compute(f)
        decisions = select_loops(f, info, HeuristicParams())
        assert len(decisions) == 1
        d = decisions[0]
        assert d.loop_id == "f:0"
        assert d.factor is not None and d.factor >= 2
        assert d.paths == 2

    def test_inner_selected_blocks_outer(self):
        text = """
define i64 @f(i64 %n, i64 %m) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %inext, %olatch ]
  %ci = icmp slt i64 %i, %n
  br i1 %ci, label %inner, label %exit
inner:
  %j = phi i64 [ 0, %outer ], [ %jnext, %inner ]
  %jnext = add i64 %j, 1
  %cj = icmp slt i64 %jnext, %m
  br i1 %cj, label %inner, label %olatch
olatch:
  %inext = add i64 %i, 1
  br label %outer
exit:
  ret i64 %i
}
"""
        f = parse_function(text)
        info = LoopInfo.compute(f)
        decisions = {d.loop_id: d for d in
                     select_loops(f, info, HeuristicParams())}
        assert decisions["f:1"].factor is not None      # Inner selected.
        assert decisions["f:0"].factor is None          # Outer blocked.
        assert "inner" in decisions["f:0"].reason

    def test_oversized_loop_rejected_with_reason(self):
        f = parse_function(BRANCHY_LOOP)
        info = LoopInfo.compute(f)
        decisions = select_loops(f, info, HeuristicParams(c=5))
        assert decisions[0].factor is None
        assert "c=5" in decisions[0].reason

    def test_convergent_reported(self):
        f = parse_function(CONVERGENT_LOOP)
        info = LoopInfo.compute(f)
        decisions = select_loops(f, info, HeuristicParams())
        assert decisions[0].factor is None
        assert "convergent" in decisions[0].reason


class TestApplyUU:
    def test_claims_loop(self):
        f = parse_function(BRANCHY_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert apply_uu(f, loop, 2)
        assert "f:0" in f.attributes["uu_claimed_loops"]
        verify_function(f)

    def test_convergent_loop_untouched(self):
        f = parse_function(CONVERGENT_LOOP)
        before = len(f.blocks)
        loop = LoopInfo.compute(f).loops[0]
        assert not apply_uu(f, loop, 4)
        assert len(f.blocks) == before

    def test_factor_one_unmerges_only(self):
        f = parse_function(BRANCHY_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert apply_uu(f, loop, 1)
        verify_function(f)
        fresh = LoopInfo.compute(f).loops[0]
        # Unmerged but not unrolled: 2 latch paths, one body copy.
        assert len(fresh.latches()) == 2


class TestHeuristicPass:
    def test_runs_and_records_decisions(self):
        f = parse_function(BRANCHY_LOOP)
        pass_ = ApplyPlan(heuristic=HeuristicParams())
        assert pass_.run(f)
        verify_function(f)
        assert any(d.factor for d in pass_.decisions)

    def test_divergence_filter(self):
        # With the (extension) taint filter on, a tid-dependent branch
        # disqualifies the loop — the paper's `complex` avoidance.
        text = """
define i64 @f(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %merge ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %tid, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  %v = phi i64 [ 3, %a ], [ 5, %b ]
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
"""
        f = parse_function(text)
        info = LoopInfo.compute(f)
        on = select_loops(f, info, HeuristicParams(avoid_divergent=True))
        off = select_loops(f, info, HeuristicParams(avoid_divergent=False))
        assert on[0].factor is None and "divergent" in on[0].reason
        assert off[0].factor is not None


class TestAppliedFlag:
    """LoopDecision.applied distinguishes planned from executed u&u."""

    def test_selected_loops_report_applied(self):
        f = parse_function(BRANCHY_LOOP)
        pass_ = ApplyPlan(heuristic=HeuristicParams())
        assert pass_.run(f)
        selected = [d for d in pass_.decisions if d.factor is not None]
        assert selected
        assert all(d.applied is True for d in selected)

    def test_unselected_loops_stay_unmarked(self):
        f = parse_function(CONVERGENT_LOOP)
        pass_ = ApplyPlan(heuristic=HeuristicParams())
        pass_.run(f)
        assert pass_.decisions
        assert all(d.factor is None and d.applied is None
                   for d in pass_.decisions)

    def test_header_not_refound_marks_skip(self, monkeypatch):
        """If relayout loses a selected header, the decision says so.

        The first selected loop is applied straight from the analysis the
        selection ran on; every later one is re-found by header.
        """
        from types import SimpleNamespace

        f = parse_function(TWO_BRANCHY_LOOPS)
        real_compute = LoopInfo.compute
        calls = {"n": 0}

        def fake_compute(func):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_compute(func)   # selection sees the real loops
            return SimpleNamespace(loops=[])  # re-find comes up empty

        monkeypatch.setattr("repro.transforms.plan.LoopInfo",
                            SimpleNamespace(compute=fake_compute))
        pass_ = ApplyPlan(heuristic=HeuristicParams())
        assert pass_.run(f) is True         # the first loop was transformed
        selected = [d for d in pass_.decisions if d.factor is not None]
        assert [d.applied for d in selected] == [True, False]
        assert calls["n"] == 2              # one re-find, for the second
        verify_function(f)


class TestApplyPlan:
    """One pass applies every configuration's plan."""

    @staticmethod
    def _spy(monkeypatch):
        from types import SimpleNamespace
        calls = []

        def compute(func):
            calls.append(func.name)
            return LoopInfo.compute(func)

        monkeypatch.setattr("repro.transforms.plan.LoopInfo",
                            SimpleNamespace(compute=compute))
        return calls

    def test_reports_under_the_name_of_what_it_applies(self):
        from repro.directive import LoopDirective as D
        from repro.transforms.pipeline import transform_passes

        def names(config, **kwargs):
            return [p.name for p in transform_passes(config, **kwargs)]

        assert names("baseline") == []
        assert names("unroll", loop_id="f:0", factor=2) == ["unroll"]
        assert names("unmerge", loop_id="f:0") == ["unmerge"]
        assert names("uu", loop_id="f:0", factor=2) == ["uu"]
        assert names("uu_heuristic") == ["uu-heuristic"]
        assert names("tuned") == ["uu-heuristic"]           # the fallback
        assert names("tuned", plan=[D("f:0", 2, True)]) == ["uu"]
        assert names("tuned", plan=[D("f:0", 2, True),
                                    D("f:1", 1, True)]) == ["tuned-uu"]
        assert names("tuned", plan=[]) == []                # baseline won

    def test_one_directive_costs_one_loop_analysis(self, monkeypatch):
        """As the per-loop passes it replaces did; each further directive
        costs one re-find, and other functions' directives cost none."""
        from repro.directive import LoopDirective as D
        calls = self._spy(monkeypatch)
        for directive in (D("f:0", 2, False), D("f:0", 1, True),
                          D("f:0", 2, True)):
            del calls[:]
            assert ApplyPlan([directive]).run(parse_function(BRANCHY_LOOP))
            assert len(calls) == 1, directive
        del calls[:]
        assert ApplyPlan([D("f:0", 1, True), D("f:1", 1, True)]).run(
            parse_function(TWO_BRANCHY_LOOPS))
        assert len(calls) == 2
        del calls[:]
        assert not ApplyPlan([D("g:0", 2, True)]).run(
            parse_function(BRANCHY_LOOP))
        assert calls == []

    def test_every_directive_is_logged_and_rendered_once(self):
        from repro import obs
        from repro.directive import LoopDirective as D
        plan = [D("f:1", 2, False), D("f:0", 1, True), D("f:7", 4, True)]
        pass_ = ApplyPlan(plan)
        with obs.capture() as session:
            assert pass_.run(parse_function(TWO_BRANCHY_LOOPS))
        assert [(d.loop_id, d.factor, d.reason, d.applied)
                for d in pass_.decisions] == [
            ("f:1", 2, "unroll", True), ("f:0", 1, "unmerge", True),
            ("f:7", 4, "uu", False)]
        assert [(r.kind, r.pass_name, r.loop_id, r.args["u_prime"])
                for r in session.remarks if r.pass_name == "tuned-uu"] == [
            ("applied", "tuned-uu", "f:1", 2),
            ("applied", "tuned-uu", "f:0", 1),
            ("missed", "tuned-uu", "f:7", 4)]
        assert all({"p", "s"} <= set(r.args) for r in session.remarks
                   if r.pass_name == "tuned-uu")

    @pytest.mark.parametrize("guard", ["convergent", "pragma"])
    def test_unmerging_directives_keep_the_legality_filter(self, guard):
        """No plan — replayed, predicted or served — unmerges a loop the
        paper's filter excludes: a barrier duplicated across paths is a
        miscompile the unverified producers would never notice."""
        from repro.directive import LoopDirective as D
        from repro.ir import print_function

        def subject():
            if guard == "convergent":
                return parse_function(BRANCHY_LOOP.replace(
                    "  %nacc =", "  call void @syncthreads()\n  %nacc ="))
            f = parse_function(BRANCHY_LOOP)
            f.attributes["loop_pragmas"] = {"f:0": "unroll"}
            return f

        for directive in (D("f:0", 1, True), D("f:0", 2, True)):
            f = subject()
            verify_function(f)
            assert not uu_applicable(f, LoopInfo.compute(f).loops[0])
            before = print_function(f)
            pass_ = ApplyPlan([directive])
            assert pass_.run(f) is False, directive
            assert print_function(f) == before
            assert "uu_claimed_loops" not in f.attributes
            assert [d.applied for d in pass_.decisions] == [False]
        # Plain unrolling duplicates no path: it stays legal, as it was.
        assert ApplyPlan([D("f:0", 2, False)]).run(subject())
