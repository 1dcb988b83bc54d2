"""Candidate enumeration with cost-model pruning.

The per-loop search space is {unroll factor u in 1..u_max} x {unmerge
on/off} minus the identity (u=1, unmerge off).  A candidate is a
:class:`~repro.directive.LoopDirective`, and its ``kind`` is one of the
paper's *existing* per-loop pipeline configurations —

* ``unmerge on,  u >= 2`` -> ``uu``      (unroll-and-unmerge),
* ``unmerge on,  u == 1`` -> ``unmerge`` (the paper's single-loop
  unmerge: that loop only, not its nest),
* ``unmerge off, u >= 2`` -> ``unroll``  (plain unrolling)

— so measuring a candidate is measuring an ordinary sweep cell: the
fan-out goes through :class:`~repro.harness.parallel.ParallelRunner` and
every measurement lands in (and is warm-served from) the persistent cell
cache.  The same directive, replayed from a ``tuned`` plan, goes through
the same :func:`repro.transforms.plan.apply_directive` arm, so what the
search measured is what the persisted file reproduces.

Pruning reuses the paper's own cost model *as a feasibility cap*, not as
the decision procedure: a candidate whose predicted post-transform size
``f(p, s, u)`` (unmerging) or ``s * u`` (plain unrolling) exceeds a hard
cap is never compiled.  The cap defaults to well above the heuristic's
``c = 1024`` — the whole point of the empirical search is to explore past
the static threshold — but still bounds compile-time blowup.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..analysis.cost_model import loop_size
from ..analysis.loops import LoopInfo
from ..analysis.paths import count_paths, estimate_unmerged_size
from ..directive import LoopDirective
from ..ir.module import Module


@dataclasses.dataclass
class TuneParams:
    """Tunables of the empirical search."""

    #: Largest unroll factor tried per loop (matches the paper's u_max).
    u_max: int = 8
    #: Heuristic budgets ``c`` whose whole-function decision sets enter the
    #: combined round.  Must include the default 1024 so the winner is
    #: never worse than the static heuristic.
    budgets: Tuple[int, ...] = (256, 1024, 4096)
    #: Successive-halving rounds: workload-geometry divisors, coarsest
    #: first, ending at 1 (full size).  Each round halves the per-loop
    #: survivor set; only full-size measurements pick winners.
    scales: Tuple[int, ...] = (4, 1)
    #: Hard cap on the cost-model-predicted post-transform size; larger
    #: candidates are pruned without compiling.
    size_cap: int = 8192
    #: Max per-loop candidates admitted to measurement (None = all).
    #: Truncation follows canonical enumeration order — never completion
    #: order — so a capped search stays deterministic across ``-j``.
    budget: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class LoopFacts:
    """Static facts about one loop (inputs to the cost model)."""

    loop_id: str
    paths: int
    size: int
    #: loop_ids of loops nested (transitively) inside this one; used to
    #: enforce the paper's nesting rule when composing per-loop winners.
    descendants: Tuple[str, ...]


def loop_facts(module: Module) -> List[LoopFacts]:
    """Deterministic per-loop facts for every loop in ``module``."""
    facts: List[LoopFacts] = []
    for func in module.functions.values():
        info = LoopInfo.compute(func)
        for loop in info.loops:
            facts.append(LoopFacts(
                loop.loop_id, count_paths(loop, info), loop_size(loop),
                tuple(sorted(inner.loop_id for inner in loop.nest()
                             if inner is not loop))))
    return facts


def predicted_size(facts: LoopFacts, candidate: LoopDirective) -> int:
    """Cost-model size estimate of the transformed loop."""
    if candidate.unmerge:
        return estimate_unmerged_size(facts.paths, facts.size,
                                      candidate.factor)
    return facts.size * candidate.factor


def enumerate_candidates(facts: List[LoopFacts], params: TuneParams
                         ) -> Tuple[List[LoopDirective],
                                    List[Tuple[LoopDirective, int]]]:
    """``(admitted, pruned)`` in canonical enumeration order.

    ``pruned`` pairs each rejected candidate with its predicted size (for
    the audit trail); the identity point (u=1, no unmerge) is the implicit
    do-nothing alternative and is never enumerated.
    """
    admitted: List[LoopDirective] = []
    pruned: List[Tuple[LoopDirective, int]] = []
    for loop in facts:
        for factor in range(1, params.u_max + 1):
            for unmerge in (True, False):
                if factor == 1 and not unmerge:
                    continue  # identity
                candidate = LoopDirective(loop.loop_id, factor, unmerge)
                predicted = predicted_size(loop, candidate)
                if predicted > params.size_cap:
                    pruned.append((candidate, predicted))
                else:
                    admitted.append(candidate)
    return admitted, pruned
