"""The measurement-driven search: screen, halve, combine, verify, persist.

One ``tune_benchmark`` call runs four stages:

1. **Enumerate + prune** — every per-loop candidate (see
   :mod:`repro.tune.space`), minus those the cost model predicts would
   blow past the size cap, truncated to the measurement budget in
   canonical enumeration order (never completion order).
2. **Screen with successive halving** — each round measures the surviving
   candidates as ordinary sweep cells through
   :class:`~repro.harness.experiment.ExperimentRunner`; early rounds run a
   reduced launch geometry (``workload_scale``) against a
   tuner-prefixed region of the persistent cell cache, the final round
   runs full size against the shared cache.  Between rounds each loop
   keeps the better half of its candidates, ranked by
   ``(cycles, candidate key)`` — the canonical key breaks ties, so
   ``-j1`` and ``-jN`` pick identical survivors.
3. **Combine** — per-loop winners are composed under the paper's nesting
   rule and raced against whole-function decision sets of the static
   heuristic at several budgets ``c`` and against the do-nothing
   baseline.  Each contender is a ``tuned`` cell carrying its plan as
   data (``CellSpec(..., plan=...)``), so the whole race is one fan-out
   through the final round's runner.  The default ``c = 1024`` set is
   always in the race, so the winner is never slower than the static
   heuristic.
4. **Verify + persist** — the winner is re-measured as a pair of
   ``verify_each=True`` cells (baseline + tuned replay) against the same
   cell cache as the search rounds: the baseline cell differentially
   anchors on the *unoptimized* lowering and the tuned cell on the
   baseline, so the composition gives the oracle's tuned-vs-raw
   guarantee, with a clean IR-verifier run after every pass on top.
   Only then is ``results/tuned/<bench>.json`` written; unverifiable
   winners are reported, never persisted.  Because verification cells
   land in the shared cell cache, a warm ``repro tune --all``
   re-verifies every app with zero fresh evaluations.

Everything measured lands in the content-addressed cell cache, so
re-tuning is warm: a repeated search performs zero fresh evaluations
(``TuneResult.fresh_evaluations``) and reproduces the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..analysis.loops import LoopInfo
from ..bench.base import Benchmark
from ..directive import LoopDirective, fingerprint
from ..harness.cache import TUNE_PREFIX, CellCache
from ..harness.experiment import (Cell, CellSpec, ExperimentRunner,
                                  resolve_jobs)
from ..obs import session as obs
from ..transforms.heuristic import HeuristicParams, select_loops
from ..transforms.pass_manager import COMPILE_TIMEOUT
from ..transforms.unmerge import MAX_INSTRUCTIONS
from .space import LoopFacts, TuneParams, enumerate_candidates, loop_facts
from .store import TunedConfig, save_tuned

_PASS = "tune"


@dataclasses.dataclass
class TuneResult:
    """Outcome of tuning one benchmark."""

    app: str
    config: TunedConfig
    #: Where the winner was persisted; None when verification failed (or
    #: persisting was disabled).
    path: Optional[Path]
    verified: bool
    #: Why verification failed ("" when it passed).
    verify_detail: str
    candidates_total: int
    candidates_pruned: int
    candidates_truncated: int
    #: Cells the search's runners computed rather than read from the
    #: cell cache — 0 on a warm re-tune (the cache-effectiveness contract
    #: the smoke test pins), every measured cell without a cache.
    fresh_evaluations: int

    @property
    def persisted(self) -> bool:
        return self.path is not None


def _cell_status(cell: Cell) -> str:
    if cell.error is not None:
        return "error"
    if cell.timed_out:
        return "timeout"
    if not cell.outputs_match_baseline:
        return "mismatch"
    if not math.isfinite(cell.cycles):
        return "error"
    return "ok"


def _trial(candidate: LoopDirective, round_label: str, scale: int,
           cell: Cell) -> Dict:
    status = _cell_status(cell)
    return {
        **dataclasses.asdict(candidate),
        "round": round_label,
        "scale": scale,
        "cycles": cell.cycles if status == "ok" else None,
        "status": status,
    }


def _heuristic_decisions(bench: Benchmark, base: HeuristicParams,
                         c: int, u_max: int) -> List[LoopDirective]:
    """The static heuristic's whole-function decision set at budget ``c``."""
    params = dataclasses.replace(base, c=c, u_max=u_max)
    return sorted(
        (LoopDirective(d.loop_id, d.factor, True)
         for func in bench.build_module().functions.values()
         for d in select_loops(func, LoopInfo.compute(func), params)
         if d.factor is not None), key=lambda d: d.loop_id)


def _compose_per_loop(facts: List[LoopFacts],
                      winners: Dict[str, LoopDirective]
                      ) -> List[LoopDirective]:
    """Per-loop winners composed under the paper's nesting rule.

    Innermost loops first; an outer loop's winner is dropped when any of
    its (transitive) inner loops already won — transforming both would
    multiply, not add, the duplication.
    """
    selected: set = set()
    decisions: List[LoopDirective] = []
    for fact in sorted(facts, key=lambda f: (len(f.descendants), f.loop_id)):
        winner = winners.get(fact.loop_id)
        if winner is None:
            continue
        if any(d in selected for d in fact.descendants):
            continue
        selected.add(fact.loop_id)
        decisions.append(winner)
    return sorted(decisions, key=lambda d: d.loop_id)


def _verify_winner(bench: Benchmark, decisions: List[LoopDirective],
                   runner: ExperimentRunner) -> Tuple[bool, str]:
    """Differentially verify the winning decision set via shared cells.

    ``runner`` is a ``verify_each=True`` runner over the search's cell
    cache; the winner is replayed as a cell pair — baseline plus a
    ``tuned`` cell carrying ``decisions`` as its plan.  The baseline cell
    checks the baseline pipeline against the *unoptimized* lowering and
    the tuned cell checks the replay against the baseline, so
    bitwise-equality transitivity yields exactly the oracle's
    tuned-vs-raw guarantee; ``verify_each`` adds a clean IR verifier run
    after every pass.  Both cells persist in the shared cache, so a warm
    re-tune — including ``repro tune --all`` — re-verifies without a
    single fresh evaluation.

    Returns ``(ok, detail)`` with ``detail == ""`` on success.
    """
    cells = runner.prefetch([bench], specs=[
        CellSpec(bench.name, "baseline", None, 1),
        CellSpec(bench.name, "tuned", None, 1, plan=tuple(decisions))])
    for cell in cells:
        status = _cell_status(cell)
        if status == "ok":
            continue
        detail = f"{cell.config}: {status}"
        if cell.error:
            detail += f" ({cell.error.strip().splitlines()[-1]})"
        return False, detail
    return True, ""


def tune_benchmark(bench: Benchmark, *,
                   params: Optional[TuneParams] = None,
                   heuristic: Optional[HeuristicParams] = None,
                   max_instructions: int = MAX_INSTRUCTIONS,
                   compile_timeout: Optional[float] = COMPILE_TIMEOUT,
                   jobs: Optional[int] = None,
                   cache_root: Optional[Path] = None,
                   use_cache: bool = True,
                   tuned_dir: Optional[Path] = None,
                   persist: bool = True) -> TuneResult:
    """Search, verify, and (on success) persist one benchmark's tuning.

    ``cache_root``/``tuned_dir`` default to the repo-level
    ``results/.cellcache`` and ``results/tuned``; tests point both at
    temporary directories.
    """
    params = params or TuneParams()
    heuristic = heuristic or HeuristicParams()
    #: One cell cache per workload scale, shared by every runner at that
    #: scale; ``fresh_evaluations`` sums what each runner computed.
    caches: Dict[int, CellCache] = {}
    runners: List[ExperimentRunner] = []

    def make_runner(scale: int,
                    verify_each: bool = False) -> ExperimentRunner:
        cache = None
        if use_cache:
            if scale not in caches:
                caches[scale] = CellCache(
                    root=cache_root, prefix=TUNE_PREFIX if scale != 1 else "")
            cache = caches[scale]
        runners.append(ExperimentRunner(
            heuristic=heuristic, max_instructions=max_instructions,
            compile_timeout=compile_timeout, verify_each=verify_each,
            jobs=resolve_jobs(jobs), cache=cache,
            workload_scale=scale))
        return runners[-1]

    # -- stage 1: enumerate + prune + budget ------------------------------
    facts = loop_facts(bench.build_module())
    admitted, pruned = enumerate_candidates(facts, params)
    total = len(admitted) + len(pruned)
    for candidate, predicted in pruned:
        obs.remark("missed", _PASS, bench.name,
                   f"pruned {candidate.key}: predicted size {predicted} "
                   f"> cap {params.size_cap}",
                   loop_id=candidate.loop_id, predicted=predicted)
    truncated = 0
    if params.budget is not None and len(admitted) > params.budget:
        truncated = len(admitted) - params.budget
        admitted = admitted[:params.budget]
        obs.remark("analysis", _PASS, bench.name,
                   f"budget {params.budget}: truncated {truncated} "
                   "candidates (canonical enumeration order)")

    trials: List[Dict] = []
    survivors = list(admitted)
    final_cells: Dict[str, Cell] = {}
    baseline_full: Optional[Cell] = None

    # -- stage 2: successive halving --------------------------------------
    scales = tuple(params.scales) or (1,)
    for round_index, scale in enumerate(scales):
        is_final = round_index == len(scales) - 1
        runner = make_runner(scale)
        specs = [CellSpec(bench.name, "baseline", None, 1)]
        specs += [CellSpec(bench.name, c.kind, c.loop_id, c.factor)
                  for c in survivors]
        if is_final:
            specs.append(CellSpec(bench.name, "uu_heuristic", None, 1))
        # Distinct candidates are distinct cells, so prefetch returns one
        # cell per spec, in this order.
        cells = runner.prefetch([bench], specs=specs)
        baseline = cells[0]
        round_label = f"screen-{round_index}"
        measured = list(zip(survivors, cells[1:]))
        for candidate, cell in measured:
            trials.append(_trial(candidate, round_label, scale, cell))
        if is_final:
            baseline_full = baseline
            heuristic_cell = cells[-1]
            final_cells = {c.key: cell for c, cell in measured}
            break
        # Keep the better half per loop, ranked (cycles, canonical key).
        next_survivors: List[LoopDirective] = []
        by_loop: Dict[str, List[Tuple[LoopDirective, Cell]]] = {}
        for candidate, cell in measured:
            by_loop.setdefault(candidate.loop_id, []).append((candidate,
                                                              cell))
        for loop_id in sorted(by_loop):
            ok = [(c, cell) for c, cell in by_loop[loop_id]
                  if _cell_status(cell) == "ok"]
            ok.sort(key=lambda item: (item[1].cycles, item[0].key))
            keep = ok[:max(1, math.ceil(len(ok) / 2))]
            next_survivors.extend(c for c, _ in keep)
            for c, cell in ok[len(keep):]:
                obs.remark("missed", _PASS, bench.name,
                           f"halved out {c.key} at scale {scale} "
                           f"({cell.cycles:.0f} cycles)",
                           loop_id=c.loop_id)
        # Deterministic order for the next round: canonical enumeration.
        order = {c.key: i for i, c in enumerate(admitted)}
        survivors = sorted(next_survivors, key=lambda c: order[c.key])

    assert baseline_full is not None
    baseline_cycles = baseline_full.cycles
    heuristic_cycles = (heuristic_cell.cycles
                        if _cell_status(heuristic_cell) == "ok"
                        else float("inf"))

    # -- per-loop winners --------------------------------------------------
    winners: Dict[str, LoopDirective] = {}
    by_loop = {}
    for candidate in survivors:
        by_loop.setdefault(candidate.loop_id, []).append(candidate)
    for loop_id in sorted(by_loop):
        ok = [(final_cells[c.key].cycles, c.key, c) for c in by_loop[loop_id]
              if _cell_status(final_cells[c.key]) == "ok"
              and final_cells[c.key].cycles < baseline_cycles]
        if not ok:
            continue
        ok.sort(key=lambda item: (item[0], item[1]))
        winners[loop_id] = ok[0][2]
        obs.remark("applied", _PASS, bench.name,
                   f"per-loop winner {ok[0][2].key} "
                   f"({ok[0][0]:.0f} cycles vs baseline "
                   f"{baseline_cycles:.0f})", loop_id=loop_id)

    # -- stage 3: combined round ------------------------------------------
    combined: List[Tuple[str, List[LoopDirective]]] = []
    for c in params.budgets:
        combined.append((f"heuristic:c={c}",
                         _heuristic_decisions(bench, heuristic, c,
                                              params.u_max)))
    combined.append(("per_loop", _compose_per_loop(facts, winners)))
    # Dedupe identical decision sets (e.g. per_loop == heuristic:c=1024);
    # first name in the deterministic order above wins the label.  The
    # empty set is the baseline entry the race starts with.
    unique: Dict[str, Tuple[str, List[LoopDirective]]] = {}
    for name, decisions in combined:
        if decisions:
            unique.setdefault(fingerprint(decisions), (name, decisions))

    # (cycles, plan fingerprint, name, decisions); the do-nothing baseline
    # races too, reusing the already-measured baseline cell.  The
    # contenders are distinct plans, hence distinct cells of the final
    # round's runner: one fan-out, results in enumeration order.
    race: List[Tuple[float, str, str, List[LoopDirective]]] = [
        (baseline_cycles, fingerprint([]), "baseline", [])]
    cells = runner.prefetch([bench], specs=[
        CellSpec(bench.name, "tuned", None, 1, plan=tuple(decisions))
        for _, decisions in unique.values()])
    for (key, (name, decisions)), cell in zip(unique.items(), cells):
        status = _cell_status(cell)
        trials.append({
            "loop_id": None, "factor": None, "unmerge": None,
            "round": "combined", "scale": 1,
            "cycles": cell.cycles if status == "ok" else None,
            "status": status, "source": name,
            "decisions": [dataclasses.asdict(d) for d in decisions],
        })
        if status != "ok":
            obs.remark("missed", _PASS, bench.name,
                       f"combined candidate {name} rejected ({status})")
            continue
        race.append((cell.cycles, key, name, decisions))

    race.sort(key=lambda item: (item[0], item[1]))
    tuned_cycles, _, source, decisions = race[0]
    obs.remark("applied", _PASS, bench.name,
               f"winner {source}: {tuned_cycles:.0f} cycles "
               f"(baseline {baseline_cycles:.0f}, heuristic "
               f"{heuristic_cycles:.0f})")

    # -- stage 4: oracle verification + persistence ------------------------
    verified, verify_detail = _verify_winner(
        bench, decisions, make_runner(1, verify_each=True))
    config = TunedConfig(app=bench.name, decisions=decisions, source=source,
                         baseline_cycles=baseline_cycles,
                         heuristic_cycles=heuristic_cycles,
                         tuned_cycles=tuned_cycles,
                         verified=verified, trials=trials)
    path = None
    if verified and persist:
        path = save_tuned(config, tuned_dir)
    elif not verified:
        obs.remark("missed", _PASS, bench.name,
                   f"winner {source} failed oracle verification "
                   f"({verify_detail}); not persisted")
    return TuneResult(
        app=bench.name, config=config, path=path, verified=verified,
        verify_detail=verify_detail,
        candidates_total=total, candidates_pruned=len(pruned),
        candidates_truncated=truncated,
        fresh_evaluations=sum(r.computed for r in runners))
