"""The combined *unroll-and-unmerge* (u&u) pass — the paper's contribution.

Applies, to one loop identified by its deterministic id:

1. loop unrolling by the requested factor (each copy keeps its exit check);
2. control-flow unmerging of the widened loop, innermost loops first — in
   loop nests, inner loops are *unmerged but not unrolled*, matching the
   paper's default (Section III-C);

and records the loop as claimed so the baseline unroller keeps its hands off
(the pipeline interaction behind the paper's `coordinates` observation).

Loops containing convergent operations (``syncthreads``) are skipped, as are
loops carrying an explicit unroll pragma (``loop_pragmas`` function
attribute) — both rules straight from Section III-C.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.convergence import loop_is_convergent
from ..analysis.loops import Loop, LoopInfo
from ..ir.function import Function
from ..obs import session as obs
from .unmerge import MAX_INSTRUCTIONS, UnmergeBudgetExceeded, unmerge_loop
from .unroll import can_unroll, unroll_loop


def apply_uu(func: Function, loop: Loop, factor: int,
             max_instructions: int = MAX_INSTRUCTIONS,
             selective: bool = False) -> bool:
    """Run u&u on ``loop``; returns True if the IR changed.

    ``selective=True`` enables partial unmerging (the paper's Section VI
    extension): only profitably-unmergeable merge blocks are duplicated.
    """
    if not uu_applicable(func, loop):
        obs.remark("missed", "uu", func.name, "convergent or pragma",
                   loop_id=loop.loop_id)
        return False
    header = loop.header
    claim_loop(func, loop)

    changed = False
    if factor >= 2 and can_unroll(loop):
        unroll_loop(func, loop, factor)
        changed = True
        loop = loop_by_header(LoopInfo.compute(func), header)
        if loop is None:
            return changed

    # Unmerge the widened outer loop and every nested loop, deepest first.
    # Unmerging one loop clones blocks, which invalidates the Loop objects
    # of the loops around it: after a change the next target is
    # re-discovered by its header.
    stale = False
    for target in _innermost_first(loop):
        if stale:
            target = loop_by_header(LoopInfo.compute(func), target.header)
            if target is None:
                continue
            stale = False
        try:
            if unmerge_loop(func, target, max_instructions,
                            selective=selective):
                changed = stale = True
        except UnmergeBudgetExceeded:
            changed = True
            break
    return changed


def claim_loop(func: Function, loop: Loop) -> None:
    """Record ``loop`` as taken, so the late baseline unroller skips it."""
    claimed = set(func.attributes.get("uu_claimed_loops", ()))
    claimed.add(loop.loop_id)
    func.attributes["uu_claimed_loops"] = claimed


def uu_applicable(func: Function, loop: Loop) -> bool:
    """The paper's legality filters: no convergent ops, no user pragma."""
    if loop_is_convergent(loop):
        return False
    pragmas = func.attributes.get("loop_pragmas", {})
    if isinstance(pragmas, dict) and loop.loop_id in pragmas:
        return False
    return True


def loop_by_header(loop_info: LoopInfo, header) -> Optional[Loop]:
    for loop in loop_info.loops:
        if loop.header is header:
            return loop
    return None


def _innermost_first(loop: Loop) -> List[Loop]:
    """``loop`` plus all loops nested in it, deepest first."""
    return sorted(loop.nest(), key=lambda l: -l.depth)
