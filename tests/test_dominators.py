"""Dominator / post-dominator tests, including a networkx cross-check."""

import networkx as nx
import pytest

from repro.analysis import (DominatorTree, PostDominatorTree,
                            predecessor_map, reverse_postorder)
from repro.ir import parse_function

DIAMOND = """
define i64 @f(i64 %n, i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret i64 %n
}
"""

LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %even = icmp eq i64 %i, 0
  br i1 %even, label %then, label %latch
then:
  br label %latch
latch:
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
"""


def blocks_by_name(func):
    return {b.name: b for b in func.blocks}


class TestDominators:
    def test_diamond(self):
        f = parse_function(DIAMOND)
        bb = blocks_by_name(f)
        dt = DominatorTree.compute(f)
        assert dt.idom(bb["a"]) is bb["entry"]
        assert dt.idom(bb["b"]) is bb["entry"]
        assert dt.idom(bb["join"]) is bb["entry"]
        assert dt.dominates_block(bb["entry"], bb["join"])
        assert not dt.dominates_block(bb["a"], bb["join"])

    def test_loop(self):
        f = parse_function(LOOP)
        bb = blocks_by_name(f)
        dt = DominatorTree.compute(f)
        assert dt.idom(bb["header"]) is bb["entry"]
        assert dt.idom(bb["latch"]) is bb["body"]
        assert dt.dominates_block(bb["header"], bb["exit"])
        assert dt.strictly_dominates(bb["header"], bb["body"])
        assert not dt.strictly_dominates(bb["header"], bb["header"])

    @pytest.mark.parametrize("text", [DIAMOND, LOOP], ids=["diamond", "loop"])
    def test_against_networkx(self, text):
        f = parse_function(text)
        g = nx.DiGraph()
        for block in f.blocks:
            g.add_node(block.name)
            for succ in block.successors():
                g.add_edge(block.name, succ.name)
        reference = nx.immediate_dominators(g, f.entry.name)
        dt = DominatorTree.compute(f)
        for block in f.blocks:
            idom = dt.idom(block)
            if block is f.entry:
                # Depending on the networkx version the start maps to
                # itself or is omitted.
                assert reference.get(block.name, block.name) == block.name
                assert idom is None
            else:
                assert reference[block.name] == idom.name

    def test_dominance_frontier(self):
        f = parse_function(DIAMOND)
        bb = blocks_by_name(f)
        dt = DominatorTree.compute(f)
        frontier = dt.dominance_frontier()
        assert bb["join"] in frontier[id(bb["a"])]
        assert bb["join"] in frontier[id(bb["b"])]
        assert not frontier[id(bb["entry"])]

    def test_preorder_parents_first(self):
        f = parse_function(LOOP)
        dt = DominatorTree.compute(f)
        order = dt.preorder()
        position = {id(b): i for i, b in enumerate(order)}
        for block in order:
            parent = dt.idom(block)
            if parent is not None:
                assert position[id(parent)] < position[id(block)]


class TestPostDominators:
    def test_diamond(self):
        f = parse_function(DIAMOND)
        bb = blocks_by_name(f)
        pdt = PostDominatorTree.compute(f)
        assert pdt.ipdom(bb["entry"]) is bb["join"]
        assert pdt.ipdom(bb["a"]) is bb["join"]
        assert pdt.ipdom(bb["join"]) is None
        assert pdt.post_dominates(bb["join"], bb["entry"])
        assert not pdt.post_dominates(bb["a"], bb["entry"])

    def test_loop_reconvergence_points(self):
        f = parse_function(LOOP)
        bb = blocks_by_name(f)
        pdt = PostDominatorTree.compute(f)
        # The in-body branch reconverges at the latch.
        assert pdt.ipdom(bb["body"]) is bb["latch"]
        # The header's paths reconverge at the exit.
        assert pdt.ipdom(bb["header"]) is bb["exit"]


class TestTraversals:
    def test_rpo_starts_at_entry(self):
        f = parse_function(LOOP)
        rpo = reverse_postorder(f)
        assert rpo[0] is f.entry
        assert len(rpo) == len(f.blocks)

    def test_rpo_excludes_unreachable(self):
        f = parse_function("""
define void @f() {
entry:
  ret void
dead:
  br label %dead
}
""")
        rpo = reverse_postorder(f)
        assert len(rpo) == 1

    def test_predecessor_map_dedupes_double_edges(self):
        f = parse_function("""
define void @f(i1 %c) {
entry:
  br i1 %c, label %next, label %next
next:
  ret void
}
""")
        preds = predecessor_map(f)
        bb = blocks_by_name(f)
        assert preds[bb["next"]] == [bb["entry"]]


# -- interval queries against the idom-chain walk they replaced ---------------

def walks_up_to(tree, a, b):
    """``a`` dominates ``b`` the slow way: climb ``b``'s idom chain."""
    if not (tree.is_reachable(a) and tree.is_reachable(b)):
        return False
    node = b
    while node is not None:
        if node is a:
            return True
        node = tree.idom(node)
    return False


def reference_ipdoms(func):
    """Immediate post-dominators from networkx on the reversed CFG."""
    g = nx.DiGraph()
    for block in func.blocks:
        for succ in block.successors():
            g.add_edge(succ.name, block.name)
        if block.terminator is not None and not block.successors():
            g.add_edge("__exit__", block.name)
    if "__exit__" not in g:
        return {}
    reference = nx.immediate_dominators(g, "__exit__")
    return {name: None if parent == "__exit__" else parent
            for name, parent in reference.items() if name != "__exit__"}


def check_tree(func):
    tree = DominatorTree.compute(func)
    g = nx.DiGraph([(block.name, succ.name) for block in func.blocks
                    for succ in block.successors()])
    g.add_node(func.entry.name)
    reference = nx.immediate_dominators(g, func.entry.name)
    for block in func.blocks:
        idom = tree.idom(block)
        if block is func.entry or block.name not in reference:
            assert idom is None
        else:
            assert idom.name == reference[block.name]
    for a in func.blocks:
        for b in func.blocks:
            assert tree.dominates_block(a, b) == walks_up_to(tree, a, b)
            assert tree.strictly_dominates(a, b) == (
                a is not b and walks_up_to(tree, a, b))
    late = func.add_block("late")
    for block in func.blocks:
        assert not tree.dominates_block(late, block)
        assert not tree.dominates_block(block, late)
    func.remove_block(late)
    pdt = PostDominatorTree.compute(func)
    expected = reference_ipdoms(func)
    for block in func.blocks:
        ipdom = pdt.ipdom(block)
        assert (ipdom.name if ipdom is not None else None) == \
            expected.get(block.name)


@pytest.mark.parametrize("first", range(0, 120, 20))
def test_interval_dominance_equals_the_chain_walk_on_fuzz_kernels(first):
    from repro.directive import LoopDirective
    from repro.frontend.lower import lower_kernels
    from repro.fuzz.generator import generate_kernel
    from repro.transforms.plan import ApplyPlan
    from repro.transforms.simplifycfg import run_simplifycfg

    transformed = 0
    for seed in range(first, first + 20):
        module = lower_kernels([generate_kernel(seed)], f"fuzz{seed}")
        for func in module.functions.values():
            run_simplifycfg(func)
            check_tree(func)
            transformed += ApplyPlan(
                [LoopDirective.of("uu", f"{func.name}:0", 2)],
                max_instructions=8000).run(func)
            check_tree(func)
    assert transformed >= 10


def test_unreachable_blocks_dominate_nothing_and_are_dominated_by_nothing():
    f = parse_function("""
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  ret void
b:
  ret void
dead:
  br label %a
}
""")
    bb = blocks_by_name(f)
    dt = DominatorTree.compute(f)
    assert dt.idom(bb["a"]) is bb["entry"]  # Not through the dead edge.
    for block in f.blocks:
        assert not dt.dominates_block(bb["dead"], block)
        assert not dt.dominates_block(block, bb["dead"])
    assert not dt.strictly_dominates(bb["entry"], bb["dead"])
