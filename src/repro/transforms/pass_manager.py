"""Pass manager: runs passes over functions, with timing and statistics.

Mirrors (in spirit) LLVM's new pass manager: passes are callables over a
function returning whether they changed anything; the manager collects
per-pass wall time, which the harness reports as "compile time" — the
paper's Figure 6c measures exactly this inflation caused by other passes
having to process u&u-duplicated code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from ..ir.function import Function
from ..ir.module import Module
from ..ir.verifier import verify_function
from ..obs import session as obs


def _ir_size(func: Function) -> "tuple[int, int]":
    """(instructions, blocks) — the IR delta recorded on trace spans."""
    return sum(len(b.instructions) for b in func.blocks), len(func.blocks)


#: The wall-clock budget, in seconds, of one measured compilation: the
#: default of every runner and of the tuner (the paper's 5-minute timeout,
#: scaled to the harness).
COMPILE_TIMEOUT = 20.0


class CompileTimeout(Exception):
    """Raised when a pipeline exceeds its compile-time budget.

    The paper hit the same wall: on ccs, four loops' compilations timed out
    after 5 minutes (Section IV RQ2).  The harness records such cells as
    timed out and excludes them from the figures, as the paper did.
    """


class FunctionPass(Protocol):
    """A function transformation: returns True if the IR changed."""

    name: str

    def run(self, func: Function) -> bool:  # pragma: no cover - protocol
        ...


@dataclass
class PassStatistics:
    """Aggregated per-pass counters for one pipeline run."""

    times: Dict[str, float] = field(default_factory=dict)
    runs: Dict[str, int] = field(default_factory=dict)
    changes: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, seconds: float, changed: bool) -> None:
        self.times[name] = self.times.get(name, 0.0) + seconds
        self.runs[name] = self.runs.get(name, 0) + 1
        if changed:
            self.changes[name] = self.changes.get(name, 0) + 1

    @property
    def total_time(self) -> float:
        return sum(self.times.values())

    def merge(self, other: "PassStatistics") -> None:
        """Accumulate another run's counters (for cross-cell aggregation)."""
        for name, seconds in other.times.items():
            self.times[name] = self.times.get(name, 0.0) + seconds
        for name, runs in other.runs.items():
            self.runs[name] = self.runs.get(name, 0) + runs
        for name, changes in other.changes.items():
            self.changes[name] = self.changes.get(name, 0) + changes

    def dominant_pass(self) -> Optional[str]:
        """The pass consuming the largest share of compile time."""
        if not self.times:
            return None
        return max(self.times, key=lambda n: self.times[n])


class PassManager:
    """Runs a sequence of function passes over every function of a module."""

    def __init__(self, passes: Optional[List[FunctionPass]] = None,
                 verify_each: bool = False) -> None:
        self.passes: List[FunctionPass] = list(passes or [])
        self.verify_each = verify_each
        self.stats = PassStatistics()
        #: Absolute perf_counter() deadline; None disables the budget.
        self.deadline: Optional[float] = None

    def apply(self, pass_: FunctionPass, func: Function,
              iteration: Optional[int] = None) -> bool:
        """Apply one pass to one function: the only place a pass runs, so
        the budget, the timing statistics, the trace span (with the IR
        delta; ``iteration`` is the fixpoint's) and verify-each live here."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise CompileTimeout(
                "compile budget exhausted before finishing the pipeline")
        tracer = obs.tracer()
        if tracer is not None:
            insts_before, blocks_before = _ir_size(func)
            span_start = tracer.now()
        start = time.perf_counter()
        changed = pass_.run(func)
        elapsed = time.perf_counter() - start
        self.stats.record(pass_.name, elapsed, changed)
        if tracer is not None:
            insts_after, blocks_after = _ir_size(func)
            args = {"function": func.name, "changed": changed}
            if iteration is not None:
                args["iteration"] = iteration
            args.update(insts_before=insts_before, insts_after=insts_after,
                        blocks_before=blocks_before,
                        blocks_after=blocks_after)
            tracer.complete(pass_.name, "pass", span_start, elapsed, args=args)
        if self.verify_each:
            try:
                verify_function(func)
            except Exception as exc:
                raise AssertionError(
                    f"pass {pass_.name} broke @{func.name}: {exc}") from exc
        return changed

    def run_function(self, func: Function) -> bool:
        changed_any = False
        for pass_ in self.passes:
            changed_any |= self.apply(pass_, func)
        return changed_any

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.functions.values():
            changed |= self.run_function(func)
        return changed


class FixpointPassManager(PassManager):
    """Repeats the pass sequence until no pass reports a change.

    ``max_iterations`` bounds pathological ping-ponging; the cleanup
    pipeline converges in 2-4 iterations on all benchmarks.

    Later iterations skip passes that cannot make progress: a pass that
    reported "no change" is skipped until some *other* pass mutates the
    function again.  Passes are deterministic functions of the IR, so
    re-running one on the identical IR it just declined to change must
    decline again — the skip is provably output-preserving (the final IR
    is exactly what the naive loop produces); it only avoids redundant
    analysis work, and the redundant no-op runs it elides are simply not
    recorded in the timing statistics.
    """

    def __init__(self, passes: Optional[List[FunctionPass]] = None,
                 verify_each: bool = False, max_iterations: int = 8) -> None:
        super().__init__(passes, verify_each)
        self.max_iterations = max_iterations

    def run_function(self, func: Function) -> bool:
        changed_any = False
        # ``version`` counts IR mutations; clean_at[i] records the version
        # at which pass i last reported no change.  While the version is
        # unchanged, re-running that pass is a guaranteed no-op.
        version = 0
        clean_at: Dict[int, int] = {}
        for iteration in range(self.max_iterations):
            iteration_changed = False
            for index, pass_ in enumerate(self.passes):
                if clean_at.get(index) == version:
                    continue
                if self.apply(pass_, func, iteration):
                    version += 1
                    clean_at.pop(index, None)
                    iteration_changed = True
                else:
                    clean_at[index] = version
            if not iteration_changed:
                break
            changed_any = True
        return changed_any
