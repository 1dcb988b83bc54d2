"""Optimization pipelines: the five configurations of the paper's Section IV-B.

* ``baseline``   — the stock -O3-like pipeline.
* ``unroll``     — baseline + plain unrolling of one loop (no unmerge).
* ``unmerge``    — baseline + unmerging of one loop (unroll factor 1).
* ``uu``         — baseline + unroll-and-unmerge of one loop.
* ``uu_heuristic`` — baseline + heuristic u&u over all loops.

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
from typing import Dict, List, Optional

from ..ir.module import Module
from .dce import DeadCodeElimination
from .gvn import GlobalValueNumbering
from .heuristic import HeuristicParams, HeuristicUU
from .instcombine import InstCombine
from .licm import LoopInvariantCodeMotion
from .load_elim import LoadElimination
from .pass_manager import (CompileTimeout, FixpointPassManager, PassManager,
                           PassStatistics)
from .predication import Predication
from .sccp import SparseConditionalConstantPropagation
from .simplifycfg import SimplifyCFG
from .tuned import TunedUU
from .unmerge import UnmergePass
from .unroll import BaselineUnroll, UnrollPass
from .uu import UnrollAndUnmerge

#: ``tuned`` replays persisted per-loop decisions from the empirical
#: autotuner (:mod:`repro.tune`); ``predicted`` replays decisions the
#: similarity index transferred from the nearest tuned kernels
#: (:mod:`repro.similarity`).  Both degrade to the static heuristic when
#: no decisions are available, so they are usable unconditionally.
CONFIGS = ("baseline", "unroll", "unmerge", "uu", "uu_heuristic", "tuned",
           "predicted")


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


def transform_passes(config: str, *, loop_id: Optional[str] = None,
                     factor: int = 1,
                     heuristic: Optional[HeuristicParams] = None,
                     max_instructions: int = 200_000,
                     tuned: Optional[List] = None) -> List:
    """The experimental transform stage for ``config`` (possibly empty).

    ``tuned`` carries the per-loop decisions of the ``tuned`` config
    (``repro.tune.store.TunedLoopDecision`` rows); ``None`` means no
    usable tuned file was resolved and the config falls back to the
    static heuristic (the caller is responsible for warning).
    """
    if config == "baseline":
        return []
    if config == "unroll":
        if loop_id is None:
            raise ValueError("unroll config requires a loop id")
        return [UnrollPass(loop_id, factor)]
    if config == "unmerge":
        if loop_id is None:
            raise ValueError("unmerge config requires a loop id")
        return [UnmergePass(loop_id, max_instructions)]
    if config == "uu":
        if loop_id is None:
            raise ValueError("uu config requires a loop id")
        return [UnrollAndUnmerge(loop_id, factor, max_instructions)]
    if config == "uu_heuristic":
        return [HeuristicUU(heuristic or HeuristicParams(),
                            max_instructions)]
    if config in ("tuned", "predicted"):
        if tuned is None:
            # Graceful fallback: no (usable) tuned file for this module,
            # or no usable similarity-index evidence for ``predicted``.
            return [HeuristicUU(heuristic or HeuristicParams(),
                                max_instructions)]
        return [TunedUU(tuned, max_instructions)]
    raise ValueError(f"unknown configuration {config!r}")


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
                   max_instructions: int = 200_000,
                   branch_facts: bool = True,
                   verify_each: bool = False,
                   tuned: Optional[List] = None) -> PassManager:
    """Assemble the pass pipeline for one configuration.

    ``loop_id``/``factor`` select the target loop for the per-loop configs
    (``unroll``, ``unmerge``, ``uu``); ``heuristic`` parameterises
    ``uu_heuristic``; ``tuned`` carries the per-loop decisions of the
    ``tuned`` config.  ``branch_facts=False`` ablates GVN's
    provenance-fact machinery (for the ablation benchmarks).
    """
    if config not in CONFIGS:
        raise ValueError(f"unknown configuration {config!r}")

    # The experimental transform, placed early (paper Section IV-B).
    passes: List = [SimplifyCFG()]
    passes.extend(transform_passes(config, loop_id=loop_id, factor=factor,
                                   heuristic=heuristic,
                                   max_instructions=max_instructions,
                                   tuned=tuned))

    # Mid-pipeline cleanup to a fixed point.
    cleanup = FixpointPassManager(cleanup_passes(branch_facts),
                                  verify_each=verify_each)

    manager = PassManager(verify_each=verify_each)
    for p in passes:
        manager.add(p)
    manager.add(_NestedManager("cleanup", cleanup))
    for p in late_passes():
        manager.add(p)
    return manager


class _NestedManager:
    """Adapts a PassManager to the FunctionPass protocol."""

    def __init__(self, name: str, manager: PassManager) -> None:
        self.name = name
        self.manager = manager

    def run(self, func) -> bool:
        changed = self.manager.run_function(func)
        return changed


def compile_module(module: Module, config: str, *,
                   loop_id: Optional[str] = None, factor: int = 1,
                   heuristic: Optional[HeuristicParams] = None,
                   max_instructions: int = 60_000,
                   timeout_seconds: Optional[float] = None,
                   branch_facts: bool = True,
                   verify_each: bool = False,
                   tuned: Optional[List] = None) -> CompileResult:
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
                              tuned=tuned)
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
        if isinstance(p, (HeuristicUU, TunedUU)):
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
