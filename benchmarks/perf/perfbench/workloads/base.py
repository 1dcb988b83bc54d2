"""What every workload provides to the run loop in ``single.py``."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from ..meters import Op
from ..spans import Tracer


@dataclass
class TraceReport:
    """Outcome of a workload's traced run."""

    #: Per-layer metric name -> value (a subset of the declared names).
    layer: Dict[str, float]
    #: Seed-independent exact counts for the determinism ledger.
    counts: Dict[str, object]
    #: Wall of the traced pass, probe time excluded: what is compared with
    #: the untraced pass to give ``trace.overhead_share``.
    traced_wall_s: float
    #: Wall (times concurrent clients) the top-level spans should cover.
    span_wall_s: float
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)


class Workload:
    """One fixed list of operations, run as identical passes.

    A *round* is a fresh process that imports the program, calls
    ``prepare`` and ``setup`` (together one ``setup_s`` sample), runs
    ``passes_per_setup`` timed passes, and ``teardown``.  The seed decides
    the order (and on ``serve_mix`` the duplicate choices and interleaving)
    of a pass, never how much work it holds: the driver requires metrics
    to agree across seeds within their bounds.
    """

    name = ""
    passes_per_setup = 1

    def __init__(self, seed: int, quick: bool, work: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.work = work
        #: Peak RSS of child processes that belong to the workload (the
        #: daemon on ``serve_mix``), added to this process's own peak.
        self.child_peak_rss_mb = 0.0

    def shuffled(self, items: Sequence, salt: str = "") -> List:
        """``items`` in the seed's order (same seed, same order)."""
        out = list(items)
        random.Random(f"{self.seed}/{self.name}/{salt}").shuffle(out)
        return out

    # -- the run loop's hooks -------------------------------------------------
    def prepare(self) -> None:
        """Inputs from the seed and their reference outputs."""

    def setup(self):
        """The program's own set-up for a round; returns the round's state."""
        raise NotImplementedError

    def run_pass(self, state) -> List[Op]:
        """One timed pass over the operations, tracing off."""
        raise NotImplementedError

    def check_pass(self, state, ops: List[Op]) -> int:
        """Untimed: how many of ``ops`` failed (program verdict or check)."""
        return sum(1 for op in ops if not op.ok)

    def live_children(self, state) -> Iterable[int]:
        """Pids whose CPU belongs to the pass but are not yet reaped."""
        return ()

    def teardown(self, state) -> None:
        pass

    def verify(self, ops: List[Op]) -> Tuple[int, int]:
        """Independent check where ``check_pass`` cannot be one, made after
        the passes of a run's first round; returns (attempted, failed)."""
        return 0, 0

    def traced(self, tracer: Tracer, state, ops: List[Op]) -> TraceReport:
        """The traced run, inside the round whose untraced pass gave
        ``ops``."""
        raise NotImplementedError


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
