"""Dominator and post-dominator trees.

Implements the Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast
Dominance Algorithm").  The post-dominator tree treats every exit block
(``ret``/``unreachable``) as a predecessor of a virtual exit, which is what
the SIMT simulator uses to pick warp reconvergence points (immediate
post-dominator reconvergence, the hardware model the paper assumes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from .cfg_utils import predecessor_map, reverse_postorder


class DominatorTree:
    """Immediate-dominator tree over the reachable CFG."""

    def __init__(self, idom: Dict[int, Optional[BasicBlock]],
                 order_index: Dict[int, int],
                 blocks: List[BasicBlock]) -> None:
        self._idom = idom
        self._order_index = order_index
        self._blocks = blocks
        self._children: Dict[int, List[BasicBlock]] = {}
        for block in blocks:
            parent = idom.get(id(block))
            if parent is not None and parent is not block:
                self._children.setdefault(id(parent), []).append(block)
        #: id(block) -> (preorder number, last number in its subtree);
        #: numbered on the first dominance query.
        self._interval: Optional[Dict[int, Tuple[int, int]]] = None

    # -- construction -----------------------------------------------------
    @classmethod
    def compute(cls, func: Function) -> "DominatorTree":
        rpo = reverse_postorder(func)
        preds = predecessor_map(func)
        return cls._run(rpo, lambda b: preds[b], rpo[0])

    @classmethod
    def _run(cls, rpo: List[BasicBlock], preds_fn, root: BasicBlock
             ) -> "DominatorTree":
        # Cooper-Harvey-Kennedy over reverse-postorder numbers: ``doms[i]``
        # is the number of block i's immediate dominator, -1 while unknown.
        order_index = {id(b): i for i, b in enumerate(rpo)}
        assert rpo[0] is root
        pred_numbers = [[order_index[id(p)] for p in preds_fn(block)
                         if id(p) in order_index]  # Skips unreachable preds.
                        for block in rpo]
        doms = [-1] * len(rpo)
        doms[0] = 0
        changed = True
        while changed:
            changed = False
            for number in range(1, len(rpo)):
                new_idom = -1
                for pred in pred_numbers[number]:
                    if doms[pred] < 0:
                        continue
                    if new_idom < 0:
                        new_idom = pred
                        continue
                    while pred != new_idom:  # Intersect the two chains.
                        while pred > new_idom:
                            pred = doms[pred]
                        while new_idom > pred:
                            new_idom = doms[new_idom]
                if new_idom >= 0 and doms[number] != new_idom:
                    doms[number] = new_idom
                    changed = True
        idom: Dict[int, Optional[BasicBlock]] = {
            id(block): rpo[dom] for block, dom in zip(rpo, doms) if dom >= 0}
        tree = cls(idom, order_index, rpo)
        tree._root = root
        return tree

    _root: BasicBlock

    # -- queries -----------------------------------------------------------
    @property
    def root(self) -> BasicBlock:
        return self._root

    def reachable_ids(self) -> Iterable[int]:
        return self._order_index.keys()

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._order_index

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator (None for the root or unreachable blocks)."""
        parent = self._idom.get(id(block))
        if parent is block:
            return None
        return parent

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return self._children.get(id(block), [])

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive).  False when either is
        unreachable or was added after the tree was built."""
        interval = self._interval
        if interval is None:
            interval = self._number()
        span, inner = interval.get(id(a)), interval.get(id(b))
        if span is None or inner is None:
            return False
        return span[0] <= inner[0] <= span[1]

    def _number(self) -> Dict[int, Tuple[int, int]]:
        """Preorder intervals: ``a`` dominates ``b`` iff ``b``'s number lies
        in ``a``'s subtree, which preorder makes one contiguous range."""
        order = self.preorder()
        size = {id(block): 1 for block in order}
        for block in reversed(order):
            parent = self.idom(block)
            if parent is not None:
                size[id(parent)] += size[id(block)]
        self._interval = {id(block): (i, i + size[id(block)] - 1)
                          for i, block in enumerate(order)}
        return self._interval

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominance_frontier(self) -> Dict[int, Set[BasicBlock]]:
        """Dominance frontiers (Cooper et al. §4), keyed by block id."""
        frontier: Dict[int, Set[BasicBlock]] = {id(b): set() for b in self._blocks}
        func = self._blocks[0].parent
        assert func is not None
        preds = predecessor_map(func)
        for block in self._blocks:
            block_preds = [p for p in preds[block] if self.is_reachable(p)]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom(block):
                    frontier[id(runner)].add(block)
                    runner = self.idom(runner)
        return frontier

    def preorder(self) -> List[BasicBlock]:
        """Dominator-tree preorder (parents before children)."""
        order: List[BasicBlock] = []
        stack = [self._root]
        while stack:
            block = stack.pop()
            order.append(block)
            children = self.children(block)
            stack.extend(reversed(children))
        return order


class PostDominatorTree:
    """Post-dominator tree over a CFG with a virtual unified exit."""

    def __init__(self, ipdom: Dict[int, Optional[BasicBlock]],
                 blocks: List[BasicBlock]) -> None:
        self._ipdom = ipdom
        self._blocks = blocks

    @classmethod
    def compute(cls, func: Function) -> "PostDominatorTree":
        # Build the reverse CFG restricted to blocks that reach an exit;
        # infinite loops post-dominate nothing and get no ipdom entry.
        exits = [b for b in func.blocks
                 if b.terminator is not None and not b.successors()]
        if not exits:
            return cls({}, list(func.blocks))

        succs: Dict[int, List[BasicBlock]] = {
            id(b): b.successors() for b in func.blocks}

        # Reverse postorder of the reverse CFG, starting from a virtual exit.
        # In the reverse graph an edge runs succ -> pred, so the "preds" of a
        # node are its forward successors and vice versa.
        virtual = BasicBlock("__virtual_exit__")

        forward_preds: Dict[int, List[BasicBlock]] = {}
        for block in func.blocks:
            for succ in succs[id(block)]:
                forward_preds.setdefault(id(succ), []).append(block)
        exit_ids = {id(b) for b in exits}

        def r_successors(block: BasicBlock) -> List[BasicBlock]:
            # Edges out of a node in the reverse graph.
            if block is virtual:
                return exits
            return forward_preds.get(id(block), [])

        def r_predecessors(block: BasicBlock) -> List[BasicBlock]:
            # Edges into a node in the reverse graph.
            if block is virtual:
                return []
            result = list(succs[id(block)])
            if id(block) in exit_ids:
                result.append(virtual)
            return result

        # Postorder DFS over the reverse CFG from the virtual exit.
        order: List[BasicBlock] = []
        visited = {id(virtual)}
        stack = [(virtual, iter(r_successors(virtual)))]
        while stack:
            block, it = stack[-1]
            advanced = False
            for nxt in it:
                if id(nxt) not in visited:
                    visited.add(id(nxt))
                    stack.append((nxt, iter(r_successors(nxt))))
                    advanced = True
                    break
            if not advanced:
                order.append(block)
                stack.pop()
        order.reverse()  # Reverse postorder of reverse CFG.

        tree = DominatorTree._run(order, r_predecessors, virtual)
        ipdom: Dict[int, Optional[BasicBlock]] = {}
        for block in func.blocks:
            if not tree.is_reachable(block):
                continue
            parent = tree.idom(block)
            ipdom[id(block)] = None if parent is virtual else parent
        return cls(ipdom, list(func.blocks))

    def ipdom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate post-dominator (None if the virtual exit)."""
        return self._ipdom.get(id(block))

    def post_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` post-dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        seen: Set[int] = set()
        while node is not None and id(node) not in seen:
            if node is a:
                return True
            seen.add(id(node))
            node = self._ipdom.get(id(node))
        return False
