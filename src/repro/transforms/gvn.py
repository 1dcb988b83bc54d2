"""Dominator-scoped global value numbering with branch-fact propagation.

This pass is what turns u&u's structural duplication into actual instruction
elimination.  It walks the dominator tree with a scoped available-expression
table (classic dominator-based GVN) and, crucially, installs *branch facts*
on single-predecessor edges: when block ``B`` is only reachable as the true
target of ``br %c, T, F``, then inside ``B``'s dominance region ``%c`` is
``true``, any identical comparison re-evaluation folds to ``true``, the
negated comparison folds to ``false``, and an ``icmp eq x, C`` fact
substitutes ``C`` for ``x``.

Control-flow *merges destroy exactly these facts* — a merge block has
multiple predecessors, so no edge fact applies (the paper's core
observation, Section I).  Unmerging makes every duplicated path
single-predecessor, which is why this pass fires so much more often after
u&u than after plain unrolling.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.dominators import DominatorTree
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..obs import session as obs
from .facts import FactScopes


class GlobalValueNumbering:
    """GVN + branch-fact propagation (see module docstring).

    ``branch_facts=False`` disables the edge-fact machinery (plain
    dominator-scoped value numbering) — used by the ablation benchmarks to
    quantify how much of u&u's benefit flows through provenance facts.
    """

    name = "gvn"

    def __init__(self, branch_facts: bool = True) -> None:
        self.branch_facts = branch_facts

    def run(self, func: Function) -> bool:
        from ..analysis.cfg_utils import predecessor_map

        domtree = DominatorTree.compute(func)
        scopes = FactScopes()
        self._changed = False
        self._rewrites = 0     # Operand substitutions via facts/leaders.
        self._simplified = 0   # Instructions folded away locally.
        self._cse = 0          # Instructions replaced by a dominating leader.
        pred_map = predecessor_map(func)

        # Iterative dominator-tree DFS: (enter, block) / (exit, block).
        stack: List[Tuple[str, BasicBlock]] = [("enter", domtree.root)]
        while stack:
            action, block = stack.pop()
            if action == "exit":
                scopes.pop()
                continue
            scopes.push()
            stack.append(("exit", block))
            self._enter_block(block, pred_map.get(block, []), scopes)
            self._process_block(block, scopes)
            for child in reversed(domtree.children(block)):
                stack.append(("enter", child))
        if self._changed and obs.active() is not None:
            obs.remark(
                "analysis", self.name, func.name,
                "eliminated redundancies",
                rewrites=self._rewrites, simplified=self._simplified,
                cse=self._cse, branch_facts=self.branch_facts)
        return self._changed

    # -- branch facts -----------------------------------------------------
    def _enter_block(self, block: BasicBlock, preds: List[BasicBlock],
                     scopes: FactScopes) -> None:
        if self.branch_facts and len(preds) == 1:
            scopes.enter_edge(preds[0], block)

    # -- per-block numbering -----------------------------------------------
    def _process_block(self, block: BasicBlock, scopes: FactScopes) -> None:
        for inst in list(block.instructions):
            if inst.parent is None:
                continue
            rewrites = scopes.rewrite_operands(inst)
            if rewrites:
                self._changed = True
                self._rewrites += rewrites
            value, cse = scopes.number(inst)
            if value is None:
                continue
            inst.replace_all_uses_with(value)
            inst.erase_from_parent()
            self._changed = True
            if cse:
                self._cse += 1
            else:
                self._simplified += 1


def run_gvn(func: Function) -> bool:
    """Convenience wrapper."""
    return GlobalValueNumbering().run(func)
