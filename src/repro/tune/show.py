"""``repro tune show`` — tuned decisions next to the static heuristic's.

A per-loop side-by-side of what the empirical search persisted versus
what the paper's heuristic (``f(p, s, u) < c``) would pick, plus the
measurements that justify the winner.  Rendering is pure text over the
persisted file — no measurement happens here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from ..analysis.loops import LoopInfo
from ..bench.base import Benchmark
from ..directive import LoopDirective
from ..transforms.heuristic import (HeuristicParams, LoopDecision,
                                    select_loops)
from .store import load_tuned, tuned_path


def _heuristic_by_loop(bench: Benchmark,
                       params: HeuristicParams) -> Dict[str, LoopDecision]:
    module = bench.build_module()
    decisions: Dict[str, LoopDecision] = {}
    for func in module.functions.values():
        info = LoopInfo.compute(func)
        for d in select_loops(func, info, params):
            decisions[d.loop_id] = d
    return decisions


def _describe(directive: Optional[LoopDirective]) -> str:
    if directive is None:
        return "-"
    if directive.kind == "unmerge":
        return "unmerge"
    what = "u&u" if directive.kind == "uu" else "unroll"
    return f"{what} u={directive.factor}"


def render_tuned(bench: Benchmark, root: Optional[Path] = None,
                 heuristic: Optional[HeuristicParams] = None) -> str:
    """Human-readable report for one benchmark's tuned config."""
    params = heuristic or HeuristicParams()
    config, reason = load_tuned(bench.name, root)
    lines: List[str] = []
    if config is None:
        lines.append(f"{bench.name}: no usable tuned config ({reason}) — "
                     f"expected at {tuned_path(bench.name, root)}")
        lines.append("  the `tuned` pipeline falls back to the static "
                     "heuristic; run `repro tune " + bench.name +
                     "` to search")
        return "\n".join(lines)

    static = _heuristic_by_loop(bench, params)
    tuned_by_loop = {d.loop_id: d for d in config.decisions}
    lines.append(f"{bench.name}: tuned winner `{config.source}` "
                 f"({config.tuned_cycles:.0f} cycles; "
                 f"{config.speedup_over_baseline:.3f}x over baseline, "
                 f"{config.speedup_over_heuristic:.3f}x over heuristic)")
    header = (f"  {'loop':<28} {'p':>3} {'s':>5} "
              f"{'heuristic':>12} {'tuned':>12}  agreement")
    lines.append(header)
    for loop_id in sorted(set(static) | set(tuned_by_loop)):
        h = static.get(loop_id)
        t = tuned_by_loop.get(loop_id)
        h_desc = _describe(LoopDirective(loop_id, h.factor, True)
                           if h and h.factor is not None else None)
        t_desc = _describe(t)
        agree = "same" if h_desc == t_desc else "DIFFERS"
        paths = h.paths if h else 0
        size = h.size if h else 0
        lines.append(f"  {loop_id:<28} {paths:>3} {size:>5} "
                     f"{h_desc:>12} {t_desc:>12}  {agree}")
    measured = [t for t in config.trials if t.get("status") == "ok"]
    lines.append(f"  trials: {len(config.trials)} recorded, "
                 f"{len(measured)} measured ok; oracle-verified: "
                 f"{'yes' if config.verified else 'NO'}")
    return "\n".join(lines)
