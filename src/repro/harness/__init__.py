"""Experiment harness regenerating the paper's Table I and Figures 6-8."""

from .experiment import (Cell, CellSpec, ExperimentRunner, UNROLL_FACTORS,
                         sweep_specs)
from .cache import CellCache
from .stats import geomean, mean_and_rsd, median, relative_std, simulate_runs
from . import fig6, fig7, fig8, figures_svg, indepth, svg, table1
from .summary import HeuristicSummary, heuristic_summary

__all__ = [
    "Cell", "ExperimentRunner", "UNROLL_FACTORS",
    "CellCache", "CellSpec", "sweep_specs",
    "geomean", "median", "relative_std", "simulate_runs", "mean_and_rsd",
    "table1", "fig6", "fig7", "fig8", "indepth", "svg", "figures_svg",
    "HeuristicSummary", "heuristic_summary",
]
