"""The paper's u&u selection heuristic (Section III-C).

For each loop the heuristic estimates the unmerged-unrolled size
``f(p, s, u) = sum_{i=0}^{u-1} p^i * s`` from the number of body paths ``p``
(path analysis) and the cost-model size ``s``.  A loop is transformed if
some factor ``u' >= 2`` keeps ``f(p, s, u') < c``; the largest such
``u' <= u_max`` is chosen (paper evaluation: ``c = 1024``, ``u_max = 8``).

Nesting rule: innermost loops are tried first, and an outer loop is only
transformed when none of its inner loops was.  Convergent loops and loops
with explicit unroll pragmas are never touched.  As an optional extension
(the paper's Section V future-work sketch for `complex`), the heuristic can
also skip loops whose in-body branches are divergent (tid-tainted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.cost_model import loop_size
from ..analysis.divergence import DivergenceInfo, loop_has_divergent_branch
from ..analysis.loops import Loop, LoopInfo
from ..analysis.paths import count_paths, estimate_unmerged_size
from ..ir.function import Function
from .uu import uu_applicable


@dataclass
class HeuristicParams:
    """Tunables of the selection heuristic."""

    c: int = 1024       # Upper bound on the estimated post-u&u loop size.
    u_max: int = 8      # Maximum unroll factor considered.
    avoid_divergent: bool = False  # Optional tid-taint filter (extension).
    divergent_args: Tuple[str, ...] = ()  # Arguments known thread-dependent.


@dataclass
class LoopDecision:
    """One row of the transform stage's decision log.

    The heuristic logs every loop, with why it was or was not selected as
    ``reason``; an explicit plan logs one row per directive, with the
    directive's kind (``unroll`` / ``unmerge`` / ``uu``) as ``reason``.
    """

    loop_id: str
    paths: int
    size: int
    factor: Optional[int]
    reason: str
    #: Whether the transform actually mutated the IR: None for unselected
    #: loops, False when the loop's header could no longer be re-found
    #: after an earlier directive's relayout (or the transform declined).
    #: ``repro run-heuristic --report`` surfaces skips.
    applied: Optional[bool] = None


def choose_factor(paths: int, size: int, params: HeuristicParams
                  ) -> Optional[int]:
    """Largest ``2 <= u <= u_max`` with ``f(p, s, u) < c``, or None."""
    best: Optional[int] = None
    for factor in range(2, params.u_max + 1):
        if estimate_unmerged_size(paths, size, factor) < params.c:
            best = factor
        else:
            break  # f is monotone in u.
    return best


def select_loops(func: Function, loop_info: LoopInfo,
                 params: HeuristicParams) -> List[LoopDecision]:
    """Decide, per loop, whether and how to u&u (no IR mutation)."""
    decisions: List[LoopDecision] = []
    selected_loops: Set[int] = set()
    divergence: Optional[DivergenceInfo] = None
    if params.avoid_divergent:
        divergence = DivergenceInfo.compute(
            func, set(params.divergent_args))

    for loop in loop_info.innermost_first():
        paths = count_paths(loop, loop_info)
        size = loop_size(loop)

        if _any_descendant_selected(loop, selected_loops):
            decisions.append(LoopDecision(
                loop.loop_id, paths, size, None, "inner loop already selected"))
            continue
        if not uu_applicable(func, loop):
            decisions.append(LoopDecision(
                loop.loop_id, paths, size, None, "convergent or pragma"))
            continue
        if divergence is not None and \
                loop_has_divergent_branch(loop, divergence):
            decisions.append(LoopDecision(
                loop.loop_id, paths, size, None, "divergent branch"))
            continue
        factor = choose_factor(paths, size, params)
        if factor is None:
            decisions.append(LoopDecision(
                loop.loop_id, paths, size, None,
                f"f(p={paths}, s={size}, 2) >= c={params.c}"))
            continue
        selected_loops.add(id(loop))
        decisions.append(LoopDecision(
            loop.loop_id, paths, size, factor, "selected"))
    return decisions


def _any_descendant_selected(loop: Loop, selected: Set[int]) -> bool:
    stack = list(loop.children)
    while stack:
        child = stack.pop()
        if id(child) in selected:
            return True
        stack.extend(child.children)
    return False
