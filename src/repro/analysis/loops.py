"""Natural loop detection and loop-nest construction.

Loops are discovered from back edges of the dominator tree (edge ``latch ->
header`` where the header dominates the latch), exactly as LLVM's LoopInfo
does.  Each loop gets a deterministic id ``<function>:<index>`` (index in
header reverse-postorder), mirroring the paper's "consistent, deterministic
unique ids to loops" that users pass on the command line (Section III-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import BranchInst
from .cfg_utils import predecessor_map, reverse_postorder
from .dominators import DominatorTree


class Loop:
    """One natural loop: header plus the body blocks that reach a latch."""

    def __init__(self, header: BasicBlock) -> None:
        self.header = header
        self.blocks: List[BasicBlock] = [header]
        self._block_ids: Set[int] = {id(header)}
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        #: Position in ``LoopInfo.loops`` (header reverse-postorder).
        self.index: int = 0
        self.loop_id: str = ""

    # -- membership -----------------------------------------------------------
    def contains(self, block: BasicBlock) -> bool:
        return id(block) in self._block_ids

    def add_block(self, block: BasicBlock) -> None:
        if id(block) not in self._block_ids:
            self._block_ids.add(id(block))
            self.blocks.append(block)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def nest(self) -> List["Loop"]:
        """This loop and every loop nested in it, in ``LoopInfo.loops`` order."""
        found = [self]
        for loop in found:
            found.extend(loop.children)
        return sorted(found, key=lambda l: l.index)

    # -- structure queries ----------------------------------------------------
    def latches(self) -> List[BasicBlock]:
        """Blocks inside the loop that branch back to the header."""
        result = []
        for block in self.blocks:
            for succ in block.successors():
                if succ is self.header:
                    result.append(block)
                    break
        return result

    def single_latch(self) -> Optional[BasicBlock]:
        latches = self.latches()
        return latches[0] if len(latches) == 1 else None

    def exiting_blocks(self) -> List[BasicBlock]:
        """Blocks inside the loop with a successor outside it."""
        result = []
        for block in self.blocks:
            if any(not self.contains(s) for s in block.successors()):
                result.append(block)
        return result

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are targets of exiting edges."""
        seen: Set[int] = set()
        result = []
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains(succ) and id(succ) not in seen:
                    seen.add(id(succ))
                    result.append(succ)
        return result

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [p for p in self.header.predecessors() if not self.contains(p)]
        if len(outside) == 1:
            return outside[0]
        return None

    def ensure_preheader(self) -> BasicBlock:
        """Return the preheader, creating a dedicated one if needed."""
        pre = self.preheader()
        if pre is not None and len(pre.successors()) == 1:
            return pre
        func = self.header.parent
        assert func is not None
        outside = [p for p in self.header.predecessors() if not self.contains(p)]
        new_pre = func.add_block(f"{self.header.name}.preheader")
        new_pre.append(BranchInst(self.header))
        for pred in outside:
            term = pred.terminator
            assert term is not None
            term.replace_successor(self.header, new_pre)
        for phi in self.header.phis():
            # Fold all outside-incoming entries into one entry via the new
            # preheader; multiple entries merge through a preheader phi.
            entries = [(v, b) for v, b in phi.incoming() if not self.contains(b)]
            if len(entries) == 1:
                for i, blk in enumerate(phi.incoming_blocks):
                    if blk is entries[0][1]:
                        phi.set_incoming_block(i, new_pre)
            elif len(entries) > 1:
                from ..ir.instructions import PhiInst

                pre_phi = PhiInst(phi.type)
                pre_phi.name = func.unique_name(f"{phi.name or 'v'}.pre")
                for value, block in entries:
                    pre_phi.add_incoming(value, block)
                new_pre.insert(new_pre.first_non_phi_index(), pre_phi)
                for value, block in entries:
                    phi.remove_incoming(block)
                phi.add_incoming(pre_phi, new_pre)
        return new_pre

    def contains_convergent(self) -> bool:
        return any(b.contains_convergent() for b in self.blocks)

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:
        return (f"<Loop {self.loop_id or self.header.name} "
                f"[{len(self.blocks)} blocks, depth {self.depth}]>")


class LoopInfo:
    """All loops of one function, organised as a forest."""

    def __init__(self, func: Function) -> None:
        self.function = func
        self.top_level: List[Loop] = []
        self.loops: List[Loop] = []
        self._loop_of_block: Dict[int, Loop] = {}
        self._analyze()

    @classmethod
    def compute(cls, func: Function) -> "LoopInfo":
        return cls(func)

    # -- queries -----------------------------------------------------------
    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """Innermost loop containing ``block``."""
        return self._loop_of_block.get(id(block))

    def by_id(self, loop_id: str) -> Optional[Loop]:
        for loop in self.loops:
            if loop.loop_id == loop_id:
                return loop
        return None

    def innermost_first(self) -> List[Loop]:
        """Loops ordered deepest-first (paper: try innermost loops first)."""
        return sorted(self.loops, key=lambda l: -l.depth)

    # -- construction -----------------------------------------------------------
    def _analyze(self) -> None:
        func = self.function
        preds = predecessor_map(func)
        rpo = reverse_postorder(func)
        rpo_index = {id(b): i for i, b in enumerate(rpo)}
        #: The dominator tree the loops were found with: current until the
        #: CFG changes, like the loops themselves.
        domtree = self.domtree = DominatorTree._run(
            rpo, preds.__getitem__, rpo[0])

        # Collect back edges grouped by header, in deterministic RPO order.
        headers: Dict[int, BasicBlock] = {}
        back_edges: Dict[int, List[BasicBlock]] = {}
        for block in rpo:
            for succ in block.successors():
                if domtree.dominates_block(succ, block):
                    headers[id(succ)] = succ
                    back_edges.setdefault(id(succ), []).append(block)

        # Build each loop body by walking predecessors from the latches.
        header_list = sorted(headers.values(), key=lambda b: rpo_index[id(b)])
        for index, header in enumerate(header_list):
            loop = Loop(header)
            loop.index = index
            loop.loop_id = f"{func.name}:{index}"
            work = [l for l in back_edges[id(header)]]
            visited = {id(header)}
            while work:
                block = work.pop()
                if id(block) in visited:
                    continue
                visited.add(id(block))
                loop.add_block(block)
                for pred in preds[block]:
                    if id(pred) not in visited and id(pred) in rpo_index:
                        work.append(pred)
            self.loops.append(loop)

        # Nest loops: a loop is a child of the smallest loop strictly
        # containing its header (headers are unique per loop).
        by_size = sorted(self.loops, key=lambda l: len(l.blocks))
        for loop in by_size:
            candidates = [other for other in by_size
                          if other is not loop
                          and other.contains(loop.header)
                          and len(other.blocks) > len(loop.blocks)]
            if candidates:
                parent = min(candidates, key=lambda l: len(l.blocks))
                loop.parent = parent
                parent.children.append(loop)
            else:
                self.top_level.append(loop)

        # Innermost-loop map for blocks.
        for loop in sorted(self.loops, key=lambda l: -len(l.blocks)):
            for block in loop.blocks:
                self._loop_of_block[id(block)] = loop

    def __repr__(self) -> str:
        return f"<LoopInfo {self.function.name}: {len(self.loops)} loops>"
