"""Round-trip and error tests for the textual IR parser/printer."""

import pytest

from repro.ir import (ParseError, parse_function, parse_module,
                      print_function, print_module, verify_module)
from repro.ir.printer import print_canonical

LOOP_FUNC = """
define i64 @binsearch(f64* %A, i64 %n, f64 %q) {
entry:
  br label %header
header:
  %length = phi i64 [ %n, %entry ], [ %nlen, %merge ]
  %lower = phi i64 [ 0, %entry ], [ %nl, %merge ]
  %c = icmp sgt i64 %length, 1
  br i1 %c, label %body, label %exit
body:
  %half = sdiv i64 %length, 2
  %mid = add i64 %lower, %half
  %p = gep f64* %A, i64 %mid
  %v = load f64, f64* %p
  %gt = fcmp ogt f64 %v, %q
  br i1 %gt, label %then, label %els
then:
  br label %merge
els:
  br label %merge
merge:
  %nl = phi i64 [ %lower, %then ], [ %mid, %els ]
  %nlen = sub i64 %half, %nl
  br label %header
exit:
  ret i64 %lower
}
"""

ALL_OPS = """
define f64 @ops(f64* %p, i64 %i, f64 %x, i32 %w) {
entry:
  %a = add i64 %i, 3
  %s = sub i64 %a, %i
  %m = mul i64 %s, 2
  %d = sdiv i64 %m, 2
  %r = srem i64 %d, 7
  %sh = shl i64 %r, 1
  %lr = lshr i64 %sh, 1
  %ar = ashr i64 %lr, 1
  %an = and i64 %ar, 255
  %o = or i64 %an, 1
  %x1 = xor i64 %o, 5
  %c = icmp slt i64 %x1, 100
  %w64 = sext i32 %w to i64
  %wt = trunc i64 %w64 to i32
  %wf = sitofp i64 %x1 to f64
  %fa = fadd f64 %wf, %x
  %fs = fsub f64 %fa, 1.0
  %fm = fmul f64 %fs, 2.0
  %fd = fdiv f64 %fm, 2.0
  %fc = fcmp olt f64 %fd, 100.0
  %both = and i1 %c, %fc
  %sel = select i1 %both, f64 %fd, f64 %x
  %g = gep f64* %p, i64 %i
  store f64 %sel, f64* %g
  %l = load f64, f64* %g
  %sq = call f64 @sqrt(f64 %l)
  ret f64 %sq
}
"""


class TestRoundTrip:
    @pytest.mark.parametrize("text", [LOOP_FUNC, ALL_OPS],
                             ids=["loop", "all-ops"])
    def test_print_parse_print_fixpoint(self, text):
        m1 = parse_module(text, "m")
        verify_module(m1)
        t1 = print_module(m1)
        m2 = parse_module(t1, "m")
        verify_module(m2)
        assert print_module(m2) == t1

    def test_globals_roundtrip(self):
        text = """
@table = global f64 x 64

define void @k() {
entry:
  %p = gep f64* @table, i64 3
  store f64 1.0, f64* %p
  ret void
}
"""
        m = parse_module(text, "m")
        assert m.get_global("table").count == 64
        t = print_module(m)
        m2 = parse_module(t, "m")
        assert print_module(m2) == t


#: ``LOOP_FUNC`` renamed throughout, its blocks laid out in another order
#: and the phi entries of ``%header`` swapped: the same code.
LOOP_FUNC_RELAID = """
define i64 @binsearch(f64* %A, i64 %n, f64 %q) {
entry:
  br label %h
exit:
  ret i64 %lo
join:
  %nlo = phi i64 [ %lo, %t ], [ %md, %e ]
  %nln = sub i64 %hf, %nlo
  br label %h
e:
  br label %join
h:
  %ln = phi i64 [ %nln, %join ], [ %n, %entry ]
  %lo = phi i64 [ %nlo, %join ], [ 0, %entry ]
  %c = icmp sgt i64 %ln, 1
  br i1 %c, label %b, label %exit
t:
  br label %join
b:
  %hf = sdiv i64 %ln, 2
  %md = add i64 %lo, %hf
  %p = gep f64* %A, i64 %md
  %v = load f64, f64* %p
  %gt = fcmp ogt f64 %v, %q
  br i1 %gt, label %t, label %e
}
"""


class TestCanonicalPrint:
    def test_names_layout_and_phi_order_do_not_show(self):
        ours = parse_module(LOOP_FUNC, "m")
        theirs = parse_module(LOOP_FUNC_RELAID, "m")
        assert print_module(ours) != print_module(theirs)
        assert print_canonical(ours) == print_canonical(theirs)

    def test_a_changed_instruction_shows(self):
        changed = LOOP_FUNC.replace("icmp sgt i64 %length, 1",
                                    "icmp sge i64 %length, 1")
        assert (print_canonical(parse_module(LOOP_FUNC, "m"))
                != print_canonical(parse_module(changed, "m")))


class TestParseErrors:
    def test_unresolved_value(self):
        with pytest.raises(ParseError):
            parse_function("""
define void @f() {
entry:
  %x = add i64 %missing, 1
  ret void
}
""")

    def test_unknown_instruction(self):
        with pytest.raises(ParseError):
            parse_function("""
define void @f() {
entry:
  %x = frobnicate i64 1, 2
  ret void
}
""")

    def test_missing_close_brace(self):
        with pytest.raises(ParseError):
            parse_function("""
define void @f() {
entry:
  ret void
""")

    def test_comments_stripped(self):
        f = parse_function("""
; leading comment
define i64 @f(i64 %x) {
entry:                 ; preds: none
  %y = add i64 %x, 1  ; increment
  ret i64 %y
}
""")
        assert f.name == "f"
        assert len(f.entry.instructions) == 2

    def test_phi_back_reference(self):
        # Phi referencing a value defined later in the function (back edge).
        f = parse_function(LOOP_FUNC)
        phi = f.blocks[1].phis()[0]
        assert phi.name == "length"
        names = {v.name for v in phi.operands if hasattr(v, "name")}
        assert "nlen" in names
