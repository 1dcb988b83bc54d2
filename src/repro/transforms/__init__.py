"""Compiler transformations: u&u and the -O3-like cleanup battery."""

from .dce import DeadCodeElimination, run_dce
from .gvn import GlobalValueNumbering, run_gvn
from .heuristic import (HeuristicParams, LoopDecision, choose_factor,
                        select_loops)
from .instcombine import InstCombine, run_instcombine, simplify_instruction
from .lcssa import form_lcssa
from .licm import LoopInvariantCodeMotion, run_licm
from .load_elim import LoadElimination, run_load_elim
from .pass_manager import (CompileTimeout, FixpointPassManager,
                           PassManager, PassStatistics)
from .pipeline import (CONFIGS, CompileResult, build_pipeline, compile_module)
from .plan import ApplyPlan, apply_directive
from .predication import Predication, run_predication
from .profitability import merge_is_profitable
from .sccp import SparseConditionalConstantPropagation, run_sccp
from .simplifycfg import SimplifyCFG, run_simplifycfg
from .unmerge import UnmergeBudgetExceeded, unmerge_loop
from .unroll import BaselineUnroll, UnrollError, can_unroll, unroll_loop
from .uu import apply_uu, uu_applicable

__all__ = [
    "PassManager", "FixpointPassManager", "PassStatistics",
    "CompileTimeout",
    "DeadCodeElimination", "run_dce",
    "SimplifyCFG", "run_simplifycfg",
    "SparseConditionalConstantPropagation", "run_sccp",
    "InstCombine", "run_instcombine", "simplify_instruction",
    "GlobalValueNumbering", "run_gvn",
    "LoadElimination", "run_load_elim",
    "LoopInvariantCodeMotion", "run_licm",
    "Predication", "run_predication",
    "merge_is_profitable",
    "form_lcssa",
    "unroll_loop", "can_unroll", "UnrollError", "BaselineUnroll",
    "unmerge_loop", "UnmergeBudgetExceeded",
    "apply_uu", "uu_applicable",
    "HeuristicParams", "LoopDecision", "choose_factor", "select_loops",
    "ApplyPlan", "apply_directive",
    "CONFIGS", "CompileResult", "build_pipeline", "compile_module",
]
