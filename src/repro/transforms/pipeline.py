"""Optimization pipelines: the five configurations of the paper's Section IV-B.

* ``baseline``   — the stock -O3-like pipeline.
* ``unroll``     — baseline + plain unrolling of one loop (no unmerge).
* ``unmerge``    — baseline + unmerging of one loop (unroll factor 1).
* ``uu``         — baseline + unroll-and-unmerge of one loop.
* ``uu_heuristic`` — baseline + heuristic u&u over all loops.

Below its name every configuration is the baseline pipeline plus a *plan*
(:mod:`repro.directive`) applied by the one transform pass,
:class:`~repro.transforms.plan.ApplyPlan`: :func:`config_plan` for the
five above, an explicit ``plan=`` for ``tuned`` / ``predicted`` or any
caller holding decisions (resolved from stored decisions by
:meth:`repro.harness.experiment.ExperimentRunner.resolve_plan`).

All transforms are placed *early* in the pipeline, exactly as the paper
argues ("a late position in the pipeline is ineffective"), so that the full
cleanup battery — GVN with branch facts, SCCP, instcombine, load
elimination, SimplifyCFG, DCE — runs over the duplicated code, and the late
predication stage turns remaining small diamonds into selects (the PTX
``selp`` forms of the baseline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..directive import KINDS, LoopDirective
from ..ir.module import Module
from .dce import DeadCodeElimination
from .gvn import GlobalValueNumbering
from .heuristic import HeuristicParams
from .instcombine import InstCombine
from .licm import LoopInvariantCodeMotion
from .load_elim import LoadElimination
from .pass_manager import (CompileTimeout, FixpointPassManager, PassManager,
                           PassStatistics)
from .plan import ApplyPlan
from .predication import Predication
from .sccp import SparseConditionalConstantPropagation
from .simplifycfg import SimplifyCFG
from .unmerge import MAX_INSTRUCTIONS
from .unroll import BaselineUnroll

#: Every configuration name, in sweep-enumeration order — the only literal
#: (the CLI, the service and the sweep engine import or slice it).
#: ``tuned`` replays persisted per-loop decisions from the empirical
#: autotuner (:mod:`repro.tune`); ``predicted`` replays decisions the
#: similarity index transferred from the nearest tuned kernels
#: (:mod:`repro.similarity`).  Both degrade to the static heuristic when
#: no decisions are available, so they are usable unconditionally.
CONFIGS = ("baseline", "uu", "unroll", "unmerge", "uu_heuristic", "tuned",
           "predicted")

#: Configs that apply one directive to one loop (and so need a loop id):
#: exactly the directive kinds.
PER_LOOP_CONFIGS = tuple(c for c in CONFIGS if c in KINDS)

#: Configs that decide over the whole function, one cell per application.
WHOLE_FUNCTION_CONFIGS = tuple(c for c in CONFIGS[1:]
                               if c not in PER_LOOP_CONFIGS)


@dataclass
class CompileResult:
    """Outcome of one compilation: timing plus final module statistics."""

    module: Module
    config: str
    compile_seconds: float
    code_size: int
    instruction_count: int
    pass_stats: PassStatistics
    heuristic_decisions: list = field(default_factory=list)
    #: True when the pipeline hit its compile budget (the paper's ccs
    #: timeouts); the module is valid but only partially optimized.
    timed_out: bool = False


def cleanup_passes(branch_facts: bool = True) -> List:
    """Fresh instances of the mid-pipeline cleanup battery (fixpointed)."""
    return [
        InstCombine(),
        GlobalValueNumbering(branch_facts=branch_facts),
        LoopInvariantCodeMotion(),
        SparseConditionalConstantPropagation(),
        SimplifyCFG(),
        LoadElimination(),
        DeadCodeElimination(),
    ]


def config_plan(config: str, loop_id: Optional[str] = None,
                factor: int = 1) -> Optional[List[LoopDirective]]:
    """The plan ``config`` names by itself: empty for ``baseline``, one
    directive for a per-loop config, and None where the heuristic decides
    at pass time (``uu_heuristic``; the ``tuned`` / ``predicted``
    fallback)."""
    if config not in CONFIGS:
        raise ValueError(f"unknown configuration {config!r}")
    if config == "baseline":
        return []
    if config in PER_LOOP_CONFIGS:
        if loop_id is None:
            raise ValueError(f"{config} config requires a loop id")
        return [LoopDirective.of(config, loop_id, factor)]
    return None


def transform_passes(config: str, *, loop_id: Optional[str] = None,
                     factor: int = 1,
                     heuristic: Optional[HeuristicParams] = None,
                     max_instructions: int = MAX_INSTRUCTIONS,
                     plan: Optional[Sequence[LoopDirective]] = None) -> List:
    """The experimental transform stage (possibly empty): an explicit
    ``plan`` as given, else :func:`config_plan` of the other arguments."""
    if plan is None:
        plan = config_plan(config, loop_id, factor)
    if plan is not None and not plan:
        return []
    return [ApplyPlan(plan, heuristic, max_instructions)]


def late_passes() -> List:
    """Fresh instances of the late pipeline stage.

    Stock unroller (skips loops the transform claimed), light cleanup,
    then late if-conversion producing the baseline's selp forms.
    Deliberately *no* GVN/load-elim here: LLVM's late pipeline does not
    re-run the branch-fact machinery over freshly unrolled code either —
    which is exactly why plain unrolling misses the cross-iteration
    redundancies u&u exposes (the paper's RQ3 contrast).
    """
    return [
        BaselineUnroll(),
        InstCombine(),
        SparseConditionalConstantPropagation(),
        SimplifyCFG(),
        DeadCodeElimination(),
        Predication(),
        SimplifyCFG(),
        InstCombine(),
        DeadCodeElimination(),
    ]


def build_pipeline(config: str, *, loop_id: Optional[str] = None,
                   factor: int = 1,
                   heuristic: Optional[HeuristicParams] = None,
                   max_instructions: int = MAX_INSTRUCTIONS,
                   branch_facts: bool = True,
                   verify_each: bool = False,
                   plan: Optional[Sequence[LoopDirective]] = None
                   ) -> PassManager:
    """Assemble the pass pipeline for one configuration.

    ``loop_id``/``factor`` select the target loop for the per-loop configs
    (``unroll``, ``unmerge``, ``uu``); ``heuristic`` parameterises
    ``uu_heuristic``; ``plan`` is an explicit plan (see
    :func:`transform_passes`).  ``branch_facts=False`` ablates GVN's
    provenance-fact machinery (for the ablation benchmarks).
    """
    # The experimental transform, placed early (paper Section IV-B).
    transform = transform_passes(config, loop_id=loop_id, factor=factor,
                                 heuristic=heuristic,
                                 max_instructions=max_instructions, plan=plan)
    # Mid-pipeline cleanup to a fixed point.
    cleanup = FixpointPassManager(cleanup_passes(branch_facts),
                                  verify_each=verify_each)
    return PassManager(
        [SimplifyCFG(), *transform, _NestedManager("cleanup", cleanup),
         *late_passes()], verify_each=verify_each)


class _NestedManager:
    """Adapts a PassManager to the FunctionPass protocol."""

    def __init__(self, name: str, manager: PassManager) -> None:
        self.name = name
        self.manager = manager

    def run(self, func) -> bool:
        return self.manager.run_function(func)


def compile_module(module: Module, config: str, *,
                   loop_id: Optional[str] = None, factor: int = 1,
                   heuristic: Optional[HeuristicParams] = None,
                   max_instructions: int = MAX_INSTRUCTIONS,
                   timeout_seconds: Optional[float] = None,
                   branch_facts: bool = True,
                   verify_each: bool = False,
                   plan: Optional[Sequence[LoopDirective]] = None
                   ) -> CompileResult:
    """Run the configured pipeline over ``module`` and measure it.

    The returned compile time is real wall-clock of the pass pipeline —
    the quantity Figure 6c reports relative to baseline.  When
    ``timeout_seconds`` elapses mid-pipeline the compilation is abandoned
    (``timed_out=True``), mirroring the paper's per-loop compile timeouts.
    """
    pipeline = build_pipeline(config, loop_id=loop_id, factor=factor,
                              heuristic=heuristic,
                              max_instructions=max_instructions,
                              branch_facts=branch_facts,
                              verify_each=verify_each,
                              plan=plan)
    timed_out = False
    start = time.perf_counter()
    if timeout_seconds is not None:
        deadline = start + timeout_seconds
        pipeline.deadline = deadline
        for p in pipeline.passes:
            if isinstance(p, _NestedManager):
                p.manager.deadline = deadline
    try:
        pipeline.run(module)
    except CompileTimeout:
        timed_out = True
    elapsed = time.perf_counter() - start

    decisions = []
    for p in pipeline.passes:
        if isinstance(p, ApplyPlan):
            decisions = p.decisions
    return CompileResult(
        module=module,
        config=config,
        compile_seconds=elapsed,
        code_size=module.code_size(),
        instruction_count=module.instruction_count(),
        pass_stats=pipeline.stats,
        heuristic_decisions=decisions,
        timed_out=timed_out,
    )
