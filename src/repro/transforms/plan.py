"""The experimental transform stage: one applier under every configuration.

Every non-baseline configuration is a *plan* — an ordered list of
:class:`~repro.directive.LoopDirective` — and this module is the only code
that executes one.  :func:`apply_directive` applies one directive to one
loop; its three arms are the paper's three per-loop configurations
(Section IV-B), so ``(L, u=1, unmerge)`` means the single-loop ``unmerge``
wherever it is measured (a sweep cell, an autotuner candidate) *or*
replayed (``tuned``, ``predicted``, a served ``directives`` list).
:class:`ApplyPlan` walks a plan over one function, logging one
:class:`~repro.transforms.heuristic.LoopDecision` row per directive —
never silently dropping one whose loop vanished or whose transform
declined (legality filter included) — and rendering the rows as remarks
once.  The pass sees one function at a time, so a directive naming a
function the module does not have is nobody's row: whoever accepts plans
from outside checks loop ids first, as ``serve.service`` does.

There are two producers.  An **explicit plan** is resolved before
compilation and handed in as data.  The **static heuristic** resolves at
pass time: ``select_loops`` reads the function as the early ``SimplifyCFG``
left it, and deciding any earlier would move its path and size analysis
ahead of that cleanup and change decisions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.cost_model import loop_size
from ..analysis.loops import Loop, LoopInfo
from ..analysis.paths import count_paths
from ..directive import LoopDirective
from ..ir.function import Function
from ..obs import session as obs
from ..obs.remarks import decision_remarks
from .heuristic import HeuristicParams, LoopDecision, select_loops
from .unmerge import MAX_INSTRUCTIONS, UnmergeBudgetExceeded, unmerge_loop
from .unroll import can_unroll, unroll_loop
from .uu import apply_uu, claim_loop, loop_by_header, uu_applicable


def directives_for(plan: Sequence[LoopDirective],
                   function: str) -> List[LoopDirective]:
    """The directives of ``plan`` that name a loop of ``function``."""
    return [d for d in plan if d.loop_id.startswith(f"{function}:")]


def apply_directive(func: Function, loop: Loop, directive: LoopDirective,
                    max_instructions: int = MAX_INSTRUCTIONS,
                    branch_facts: bool = True) -> bool:
    """Apply ``directive`` to ``loop``; returns True if the IR changed
    (``branch_facts=False``: unmerge without pruning)."""
    kind = directive.kind
    if kind == "uu":
        return apply_uu(func, loop, directive.factor,
                        max_instructions=max_instructions,
                        branch_facts=branch_facts)
    if kind == "unroll":
        if not can_unroll(loop):
            return False
        claim_loop(func, loop)
        unroll_loop(func, loop, directive.factor)
        return True
    # Unmerging duplicates the loop body per path, so the paper's legality
    # filter (Section III-C: no convergent op, no user pragma) guards this
    # arm exactly as ``apply_uu`` guards its own.
    if not uu_applicable(func, loop):
        return False
    claim_loop(func, loop)
    try:
        return unmerge_loop(func, loop, max_instructions,
                            branch_facts=branch_facts)
    except UnmergeBudgetExceeded:
        return True


class ApplyPlan:
    """Whole-function application of a plan (``None`` = the heuristic's)."""

    def __init__(self, plan: Optional[Sequence[LoopDirective]] = None,
                 heuristic: Optional[HeuristicParams] = None,
                 max_instructions: int = MAX_INSTRUCTIONS,
                 branch_facts: bool = True) -> None:
        self.plan = None if plan is None else list(plan)
        self.params = heuristic or HeuristicParams()
        self.max_instructions = max_instructions
        self.branch_facts = branch_facts
        # The pass reports under the name of what it applies:
        # ``PassStatistics``, Figure 6c's breakdown and the perf benchmark's
        # ``transforms.<pass>.*`` metrics are keyed by it.
        if self.plan is None:
            self.name = "uu-heuristic"
        elif len(self.plan) == 1:
            self.name = self.plan[0].kind
        else:
            self.name = "tuned-uu"
        #: One row per directive (plus, for the heuristic, one per loop it
        #: left alone), across every function the pass ran on.
        self.decisions: List[LoopDecision] = []

    def run(self, func: Function) -> bool:
        mine = None
        if self.plan is not None:
            # Directives naming loops of other functions are not this
            # function's business (and cost it no analysis).
            mine = directives_for(self.plan, func.name)
            if not mine:
                return False
        loop_info = LoopInfo.compute(func)
        originals = {loop.loop_id: loop for loop in loop_info.loops}
        if mine is None:
            rows = select_loops(func, loop_info, self.params)
            work = [(row, LoopDirective(row.loop_id, row.factor, True))
                    for row in rows if row.factor is not None]
        else:
            work = [(_row(d, originals.get(d.loop_id), loop_info), d)
                    for d in mine]
            rows = [row for row, _ in work]
        changed = False
        for index, (row, directive) in enumerate(work):
            loop = originals.get(row.loop_id)
            if index and loop is not None:
                # Applying a directive relayouts the function: every loop
                # after the first is re-found by its (stable) header.
                loop = loop_by_header(LoopInfo.compute(func), loop.header)
            row.applied = loop is not None and apply_directive(
                func, loop, directive, self.max_instructions,
                self.branch_facts)
            changed |= row.applied
        self.decisions.extend(rows)
        if obs.active() is not None:
            for remark in decision_remarks(
                    rows, func.name,
                    "uu" if self.plan is None else self.name):
                obs.emit(remark)
        return changed


def _row(directive: LoopDirective, loop: Optional[Loop],
         loop_info: LoopInfo) -> LoopDecision:
    """The log row of one explicit directive (``p``/``s`` of its loop as
    the plan found it; zeros when the loop does not exist)."""
    paths, size = ((count_paths(loop, loop_info), loop_size(loop))
                   if loop is not None else (0, 0))
    return LoopDecision(directive.loop_id, paths, size, directive.factor,
                        directive.kind)
